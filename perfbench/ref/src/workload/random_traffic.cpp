#include "workload/random_traffic.hpp"

#include <algorithm>
#include <cassert>

namespace xmp::workload {

void RandomTraffic::start() {
  std::vector<int> senders = cfg_.senders;
  if (senders.empty()) {
    senders.resize(static_cast<std::size_t>(topo_.n_hosts()));
    for (int i = 0; i < topo_.n_hosts(); ++i) senders[static_cast<std::size_t>(i)] = i;
  }
  for (int src : senders) issue_from(src);
}

int RandomTraffic::pick_destination(int src) {
  const int n = topo_.n_hosts();
  // Rejection sampling with a bounded number of tries; fall back to the
  // least-loaded eligible host so the pattern cannot stall.
  for (int tries = 0; tries < 64; ++tries) {
    const auto d = static_cast<int>(rng_.uniform_u64(static_cast<std::uint64_t>(n)));
    if (d == src) continue;
    if (cfg_.exclude_same_rack && topo_.rack_of(d) == topo_.rack_of(src)) continue;
    if (inbound_[static_cast<std::size_t>(d)] >= cfg_.max_inbound_per_host) continue;
    return d;
  }
  int best = -1;
  for (int d = 0; d < n; ++d) {
    if (d == src) continue;
    if (cfg_.exclude_same_rack && topo_.rack_of(d) == topo_.rack_of(src)) continue;
    if (best < 0 || inbound_[static_cast<std::size_t>(d)] < inbound_[static_cast<std::size_t>(best)]) {
      best = d;
    }
  }
  assert(best >= 0 && "no eligible destination");
  return best;
}

void RandomTraffic::issue_from(int src) {
  if (stopped_) return;
  const int dst = pick_destination(src);
  ++inbound_[static_cast<std::size_t>(dst)];
  ++issued_;

  const double raw = rng_.bounded_pareto(cfg_.pareto_shape, static_cast<double>(cfg_.min_bytes),
                                         static_cast<double>(cfg_.max_bytes));
  const auto bytes = static_cast<std::int64_t>(raw);

  flows_.start_large_flow(topo_.host(src), topo_.host(dst), src, dst, bytes,
                          [this, src, dst] {
                            --inbound_[static_cast<std::size_t>(dst)];
                            issue_from(src);  // "immediately chooses another host at random"
                          },
                          CallbackTag{CallbackTag::kRandom, src, dst, 0});
}

}  // namespace xmp::workload
