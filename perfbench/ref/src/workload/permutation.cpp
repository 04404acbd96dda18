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
  for (int src = 0; src < n; ++src) {
    const int dst = perm[src];
    const std::int64_t bytes = rng_.uniform_int(cfg_.min_bytes, cfg_.max_bytes);
    flows_.start_large_flow(topo_.host(src), topo_.host(dst), src, dst, bytes,
                            [this] { on_flow_done(); },
                            CallbackTag{CallbackTag::kPermutation, 0, 0, 0});
  }
}

void PermutationTraffic::on_flow_done() {
  if (outstanding_.fetch_sub(1, std::memory_order_relaxed) > 1) return;
  if (parallel_phase_.load(std::memory_order_relaxed)) {
    // Last flow of the round finished inside a parallel epoch. The flip
    // fans out to every shard, so it cannot run here: flag the engine,
    // which discards this attempt and replays the epoch serially (where
    // this callback fires again, taking the branch below).
    deferred_done_.store(true, std::memory_order_relaxed);
    return;
  }
  ++completed_rounds_;
  if (completed_rounds_ < cfg_.rounds) {
    start_round();
  } else if (on_done_) {
    on_done_();
  }
}

}  // namespace xmp::workload
