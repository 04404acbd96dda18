#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/network.hpp"
#include "route/policy.hpp"

namespace xmp::route {

/// Owns one SwitchTable per multipath switch and keeps them converged with
/// link liveness — the simulator's control plane.
///
/// On a member link's administrative transition the manager starts a
/// convergence timer (RouteConfig::reroute_delay); when it fires, the table
/// entry is flipped to the link's *current* state, traffic re-spreads over
/// the survivors, and a Reroute timeline event is emitted. Repairs take the
/// same path, restoring the original spread (Pinned tables become
/// bit-identical to their pre-failure selections again). During the window
/// packets still chase the dead port and are dropped there (admin_down) —
/// the blackhole every real routing protocol shows until it converges.
///
/// Fault-free runs schedule no events and perturb nothing, so installing
/// the manager with the Pinned policy is byte-identical to no manager at
/// all (the golden determinism tests pin this).
class RouteManager final : public net::Link::StateListener {
 public:
  RouteManager(sim::Scheduler& sched, net::Network& netw, const RouteConfig& cfg);
  ~RouteManager() override = default;

  RouteManager(const RouteManager&) = delete;
  RouteManager& operator=(const RouteManager&) = delete;

  /// Build + install a table for every switch that has upward ports.
  void install_all();
  /// Build + install the table of one switch.
  void install(net::Switch& sw);

  // net::Link::StateListener
  void on_link_state(net::Link& link, bool down) override;

  [[nodiscard]] const RouteConfig& config() const { return cfg_; }
  [[nodiscard]] SwitchTable* table_for(const net::Switch& sw);

  /// Converged liveness changes applied to tables.
  [[nodiscard]] std::uint64_t reroutes() const { return reroutes_; }
  /// Sums over every installed table.
  [[nodiscard]] std::uint64_t collisions() const;
  [[nodiscard]] std::uint64_t repaths() const;

  /// Checkpoint the reroute tally, pending convergence timers and every
  /// table (in install order). Loading expects install_all() to have
  /// already run on the restoring world.
  void checkpoint(core::ckpt::Io& io);

 private:
  void converge(net::Link* link);
  /// The timer that applies `link`'s state to its table after the reroute
  /// delay and drops its converge_timers_ entry.
  sim::EventCallback converge_timer(net::Link* link);

  sim::Scheduler& sched_;
  net::Network& netw_;
  RouteConfig cfg_;
  std::vector<std::unique_ptr<SwitchTable>> tables_;
  std::unordered_map<const net::Switch*, SwitchTable*> by_switch_;
  /// Member link -> (its table, member index).
  std::unordered_map<const net::Link*, std::pair<SwitchTable*, std::size_t>> member_of_;
  std::uint64_t reroutes_ = 0;
  /// Pending convergence timers (same-delay timers for one link fire FIFO,
  /// so erase-first-match on fire is exact); tracked for checkpoints.
  std::vector<std::pair<net::Link*, sim::EventId>> converge_timers_;
};

}  // namespace xmp::route
