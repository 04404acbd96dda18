#include "workload/permutation.hpp"

#include <numeric>
#include <vector>

namespace xmp::workload {

void PermutationTraffic::start_round() {
  const int n = topo_.n_hosts();
  // Random permutation with no fixed points: Fisher-Yates shuffle, then
  // repair any host mapped to itself by swapping with a neighbour.
  std::vector<int> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  for (int i = n - 1; i > 0; --i) {
    const auto j = static_cast<int>(rng_.uniform_u64(static_cast<std::uint64_t>(i) + 1));
    std::swap(perm[i], perm[j]);
  }
  for (int i = 0; i < n; ++i) {
    if (perm[i] == i) std::swap(perm[i], perm[(i + 1) % n]);
  }

  outstanding_.store(n, std::memory_order_relaxed);
  latest_done_ns_.store(0, std::memory_order_relaxed);
  for (int src = 0; src < n; ++src) {
    const int dst = perm[src];
    const std::int64_t bytes = rng_.uniform_int(cfg_.min_bytes, cfg_.max_bytes);
    flows_.start_large_flow(topo_.host(src), topo_.host(dst), src, dst, bytes,
                            [this] { on_flow_done(); },
                            CallbackTag{CallbackTag::kPermutation, 0, 0, 0});
  }
}

void PermutationTraffic::on_flow_done() {
  // The dispatching scheduler's clock is the completion instant; in a
  // sharded run `sched_` is the control strand, whose clock lags inside an
  // epoch.
  const sim::Scheduler* cs = sim::current_scheduler();
  const std::int64_t t = (cs != nullptr ? cs->now() : sched_.now()).ns();
  std::int64_t latest = latest_done_ns_.load(std::memory_order_relaxed);
  while (latest < t &&
         !latest_done_ns_.compare_exchange_weak(latest, t, std::memory_order_relaxed)) {
  }
  // acq_rel: the completion that reaches zero sees every earlier one's
  // latest_done_ns_ update, whichever shard made it.
  if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) > 1) return;
  const sim::Time at =
      sim::Time::nanoseconds(latest_done_ns_.load(std::memory_order_relaxed)) + cfg_.round_gap;
  round_end_ = sched_.schedule_at(at, [this] { end_round(); });
}

void PermutationTraffic::end_round() {
  round_end_ = sim::kInvalidEventId;
  ++completed_rounds_;
  if (completed_rounds_ < cfg_.rounds) {
    start_round();
  } else if (on_done_) {
    on_done_();
  }
}

}  // namespace xmp::workload
