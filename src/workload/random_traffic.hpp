#pragma once

#include <cstdint>
#include <vector>

#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "topo/host_pool.hpp"
#include "workload/flow_manager.hpp"

namespace xmp::workload {

/// The paper's Random pattern (§5.2.1): every host keeps exactly one large
/// flow to a random destination in flight (re-issued immediately on
/// completion), destinations capped at 4 concurrent inbound flows, sizes
/// bounded-Pareto with shape 1.5.
class RandomTraffic {
 public:
  struct Config {
    double pareto_shape = 1.5;
    std::int64_t min_bytes = 2'000'000;   ///< scaled: paper mean 192 MB -> ~6 MB
    std::int64_t max_bytes = 24'000'000;  ///< scaled: paper cap 768 MB -> 24 MB
    int max_inbound_per_host = 4;
    /// Paper's Incast-pattern footnote: background large flows must not be
    /// intra-rack.
    bool exclude_same_rack = false;
    /// Restrict senders to a subset of hosts (used for the Table 2
    /// coexistence scenarios where half the hosts run another scheme).
    std::vector<int> senders;  ///< empty = all hosts
  };

  RandomTraffic(sim::Scheduler& sched, topo::HostPool& topo, FlowManager& flows, sim::Rng rng,
                const Config& cfg)
      : sched_{sched}, topo_{topo}, flows_{flows}, rng_{rng}, cfg_{cfg},
        inbound_(static_cast<std::size_t>(topo.n_hosts()), 0) {}

  /// Launch one flow per configured sender; each re-issues on completion
  /// until stop() is called.
  void start();
  void stop() { stopped_ = true; }

  [[nodiscard]] std::uint64_t flows_issued() const { return issued_; }

  /// Checkpoint the RNG, inbound tallies and issue progress.
  void checkpoint(core::ckpt::Io& io) {
    io.rng(rng_);
    io.b(stopped_);
    io.u64(issued_);
    if (!io.count(inbound_.size())) return;
    for (int& v : inbound_) io.i64(v);
  }
  /// Completion-callback target for flows re-bound after a restore; must
  /// mirror the lambda issue_from() installs.
  void restored_flow_done(int src, int dst) {
    --inbound_[static_cast<std::size_t>(dst)];
    issue_from(src);
  }

 private:
  void issue_from(int src);
  [[nodiscard]] int pick_destination(int src);

  sim::Scheduler& sched_;
  topo::HostPool& topo_;
  FlowManager& flows_;
  sim::Rng rng_;
  Config cfg_;
  std::vector<int> inbound_;
  bool stopped_ = false;
  std::uint64_t issued_ = 0;
};

}  // namespace xmp::workload
