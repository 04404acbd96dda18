#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "faults/fault_plan.hpp"
#include "net/link.hpp"
#include "net/network.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"

namespace xmp::faults {

/// Per-link stochastic loss/corruption channel installed as the link's
/// fault hook. Draws from its own xoshiro stream seeded by
/// (fault seed, link id), so the sequence of verdicts on one link depends
/// only on how many packets traversed *that* link — loss on link A can
/// never perturb the draws on link B.
class LossProcess final : public net::Link::FaultHook {
 public:
  LossProcess(const LossModel& model, std::uint64_t seed, net::LinkId link);

  [[nodiscard]] net::Link::FaultVerdict on_send(const net::Packet& p) override;

  [[nodiscard]] const LossModel& model() const { return model_; }

  /// Checkpoint the channel RNG and Gilbert–Elliott state (the model itself
  /// is reconstructed from the saved LossModel by the controller).
  void checkpoint(core::ckpt::Io& io) {
    io.rng(rng_);
    io.b(bad_state_);
  }

 private:
  LossModel model_;
  sim::Rng rng_;
  bool bad_state_ = false;  ///< Gilbert–Elliott channel state
};

/// Per-link gray-failure process: the stochastic (delay-jitter, reorder,
/// duplicate, ECN-overmark) effects that impair packets *without* dropping
/// them. Each effect draws from its own salted xoshiro substream seeded by
/// (fault seed, link id, effect), so starting or stopping one effect never
/// shifts the draws of another — the per-effect verdict sequence depends
/// only on how many packets the effect has examined on this link.
///
/// Degrade (slow drain) is deliberately absent: it is deterministic link
/// state (a rate multiplier), applied via Link::set_degrade and
/// checkpointed by the link itself.
class GrayProcess final {
 public:
  enum class Effect : std::uint8_t { Delay = 0, Reorder = 1, Duplicate = 2, Overmark = 3 };
  static constexpr int kEffects = 4;

  GrayProcess(std::uint64_t seed, net::LinkId link);

  void start(Effect e, const GrayModel& m);
  void stop(Effect e);
  [[nodiscard]] bool active(Effect e) const { return slot(e).on; }
  [[nodiscard]] bool any_active() const;

  /// Compose the active effects onto a not-dropped packet's verdict:
  /// delay inflation (+ jitter draw), reorder hold, duplicate flag,
  /// overmark flag. Draw order is fixed (Delay, Reorder, Duplicate,
  /// Overmark), one substream per effect.
  void impair(net::Link::FaultVerdict& v);

  /// Checkpoint every slot (on flag + model) and every substream's RNG
  /// words; loading expects a freshly constructed process.
  void checkpoint(core::ckpt::Io& io);

 private:
  struct Slot {
    bool on = false;
    GrayModel model;
    sim::Rng rng;
    Slot() : rng{1} {}
  };

  [[nodiscard]] Slot& slot(Effect e) { return slots_[static_cast<std::size_t>(e)]; }
  [[nodiscard]] const Slot& slot(Effect e) const { return slots_[static_cast<std::size_t>(e)]; }

  std::array<Slot, kEffects> slots_;
};

/// Executes a FaultPlan against a live network: schedules every event on
/// the simulation clock and applies it via the net-layer primitives
/// (Link::set_down, Link::set_fault_hook, Queue::set_marking_enabled).
///
/// Composite semantics:
///  - SwitchDown downs every egress port of the switch *and* every link
///    delivering into it (so the failure is visible from both directions);
///    SwitchUp reverses exactly that set.
///  - HostDown downs the host's uplink and its ingress links.
///  - EcnBlackhole disables CE-marking on all egress-port queues of the
///    switch; forwarding continues (the failure mode of a misconfigured
///    or buggy switch that silently stops marking).
///
/// Lifetime: must outlive the scheduler run (it owns the per-link fault
/// channels — loss + gray processes — installed as link hooks). arm() is
/// idempotent-hostile: call it exactly once.
class FaultController {
 public:
  struct Config {
    std::uint64_t seed = 1;  ///< fault-stream seed (independent of workload)
  };

  FaultController(sim::Scheduler& sched, net::Network& net, FaultPlan plan, Config cfg);
  FaultController(sim::Scheduler& sched, net::Network& net, FaultPlan plan)
      : FaultController(sched, net, std::move(plan), Config{}) {}

  FaultController(const FaultController&) = delete;
  FaultController& operator=(const FaultController&) = delete;

  /// Schedule every plan event. Call once, before (or during) the run.
  void arm();

  [[nodiscard]] std::size_t events_applied() const { return events_applied_; }
  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

  /// Checkpoint applied-event progress, the pending plan timers' keys and
  /// every active loss/gray process. Loading expects an *un-armed*
  /// controller over the same plan: it re-arms only the still-pending
  /// events and re-installs the per-link fault channels (the
  /// already-applied topology effects — down links, degraded rates,
  /// disabled marking — live in the net-layer state and restore there).
  void checkpoint(core::ckpt::Io& io);

 private:
  /// The one FaultHook installed per faulted link: loss first (a dropped
  /// packet draws nothing from the gray streams), then the gray effects on
  /// survivors. Owns both processes; the controller installs/uninstalls it
  /// as processes come and go.
  struct Channel final : net::Link::FaultHook {
    [[nodiscard]] net::Link::FaultVerdict on_send(const net::Packet& p) override {
      net::Link::FaultVerdict v;
      if (loss != nullptr) {
        v = loss->on_send(p);
        if (v.action == net::Link::FaultAction::Drop) return v;
      }
      if (gray != nullptr) gray->impair(v);
      return v;
    }
    std::unique_ptr<LossProcess> loss;
    std::unique_ptr<GrayProcess> gray;
  };

  void apply(const FaultEvent& e);
  void set_switch_down(int idx, bool down);
  void set_host_down(int idx, bool down);
  void set_blackhole(int idx, bool blackholed);
  void start_loss(net::LinkId link, const LossModel& m);
  void stop_loss(net::LinkId link);
  void start_gray(net::LinkId link, GrayProcess::Effect effect, const GrayModel& m);
  void stop_gray(net::LinkId link, GrayProcess::Effect effect);
  /// Get-or-create the link's channel (installing it as the fault hook).
  Channel& ensure_channel(net::LinkId link);
  /// Drop the channel (and uninstall the hook) once both processes are gone.
  void prune_channel(net::LinkId link);

  sim::Scheduler& sched_;
  net::Network& net_;
  FaultPlan plan_;
  Config cfg_;
  std::size_t events_applied_ = 0;
  /// Pending plan-event timers, parallel to plan_.events (invalid once
  /// fired); tracked so checkpoints can re-arm the remaining schedule.
  std::vector<sim::EventId> event_ids_;
  std::unordered_map<net::LinkId, std::unique_ptr<Channel>> channels_;
};

}  // namespace xmp::faults
