#pragma once

#include <array>
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
  void save_state(core::ckpt::Saver& s) const {
    for (const std::uint64_t w : rng_.state()) s.u64(w);
    s.b(stopped_);
    s.u64(issued_);
    s.u64(inbound_.size());
    for (const int v : inbound_) s.i64(v);
  }
  void restore_state(core::ckpt::Loader& l) {
    std::array<std::uint64_t, 4> st{};
    for (auto& w : st) w = l.u64();
    rng_.restore_state(st);
    stopped_ = l.b();
    issued_ = l.u64();
    const std::uint64_t n = l.u64();
    for (std::uint64_t i = 0; i < n && i < inbound_.size() && l.ok(); ++i) {
      inbound_[i] = static_cast<int>(l.i64());
    }
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
