#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/fifo.hpp"
#include "net/packet.hpp"
#include "net/queue.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace xmp::net {

class HandoffChannel;

/// Anything that can accept a packet (the receiving end of a link).
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void receive(Packet p) = 0;
};

/// Per-cause drop accounting of one link. Every packet offered to the link
/// ends up in exactly one of {delivered, one of these counters, still
/// queued/in flight}, which the InvariantChecker verifies as a conservation
/// law.
struct LinkDropCounters {
  std::uint64_t queue = 0;       ///< egress queue rejected the packet
  std::uint64_t admin_down = 0;  ///< link administratively closed (incl. flushes)
  std::uint64_t fault = 0;       ///< injected loss process dropped it at entry
  std::uint64_t corrupt = 0;     ///< corrupted in flight, discarded at the sink end

  [[nodiscard]] std::uint64_t total() const { return queue + admin_down + fault + corrupt; }
};

/// Unidirectional point-to-point link: an egress queue, a serializing
/// transmitter of fixed rate, and a propagation delay to the peer sink.
///
/// Store-and-forward: a packet is handed to the sink `serialization +
/// propagation` after transmission starts. The link keeps utilization
/// statistics (busy time, bytes) used for the paper's Figure 11.
///
/// Event economy: one event per packet hop, its delivery. Deliveries
/// leave in FIFO order, so only the in-flight head has its event armed
/// (the next one is armed when it fires). Transmissions start lazily: a
/// FIFO queue's next departure is fixed once the previous transmission
/// starts, so a queued packet leaves the queue at its virtual start time
/// (the previous transmission's end) the first time anything needs it: the
/// next send(), the head delivery, the end-of-epoch sweep of a boundary
/// link (settle_before()), or a barrier-time mutation (set_down,
/// set_fluid_share, set_degrade). With propagation >= 0 the head delivery
/// always comes at or after its successor's start, so no queued packet is
/// left without a trigger. Accessors that report transmitter state
/// (bytes_sent, busy_time, queued, live_in_flight, mean_occupancy) read the
/// settled view without starting anything (DESIGN.md §6).
///
/// Its FIFOs hold their entries on `pool`, the sending shard's FIFO pool
/// (a private pool when null); a boundary link's arrivals move to the
/// destination shard's pool in set_remote_handoff().
class Link final {
 public:
  /// Verdict of a fault hook on one packet offered to the link. The action
  /// is exclusive; the gray-failure effects compose with it (and with each
  /// other) on any packet that is not dropped outright.
  struct FaultVerdict {
    enum class Action : std::uint8_t {
      Pass,     ///< forward normally
      Drop,     ///< lose the packet at link entry (counted as drops().fault)
      Corrupt,  ///< transmit, but discard at the sink end (drops().corrupt)
    };

    Action action = Action::Pass;
    bool duplicate = false;  ///< enqueue a clone right behind the original
    bool overmark = false;   ///< force CE if the packet is ECN-capable
    bool reorder = false;    ///< the delay came from a reorder hold, not inflation
    sim::Time delay = sim::Time::zero();  ///< hold at entry before enqueueing

    constexpr FaultVerdict() = default;
    // NOLINTNEXTLINE(google-explicit-constructor): a bare action is a verdict
    constexpr FaultVerdict(Action a) : action{a} {}
    friend bool operator==(const FaultVerdict&, const FaultVerdict&) = default;
  };
  /// Historical name for the exclusive part of the verdict.
  using FaultAction = FaultVerdict::Action;

  /// Injected per-link loss/corruption/gray-failure process (see
  /// faults::FaultController). A null hook — the default — costs one
  /// predictable branch per send.
  class FaultHook {
   public:
    virtual ~FaultHook() = default;
    [[nodiscard]] virtual FaultVerdict on_send(const Packet& p) = 0;
  };

  /// Notified on every administrative state transition (after the link has
  /// already changed state). route::RouteManager uses this to start its
  /// convergence clock. Listeners must not destroy the link.
  class StateListener {
   public:
    virtual ~StateListener() = default;
    virtual void on_link_state(Link& link, bool down) = 0;
  };

  Link(sim::Scheduler& sched, LinkId id, std::int64_t rate_bps, sim::Time prop_delay,
       std::unique_ptr<Queue> queue, PacketSink& sink, FifoPool* pool = nullptr);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Enqueue a packet for transmission (dropped if the queue rejects it,
  /// if the link is administratively down, or if the fault hook says so).
  void send(Packet p);

  /// Administratively close / reopen the link (paper Fig.7: "L3 is closed").
  /// Closing flushes the queue; packets already propagating are lost too.
  void set_down(bool down);
  [[nodiscard]] bool is_down() const { return down_; }

  /// Install / remove (nullptr) the fault-injection hook. Not owned.
  void set_fault_hook(FaultHook* hook) { fault_hook_ = hook; }
  [[nodiscard]] FaultHook* fault_hook() const { return fault_hook_; }

  /// Subscribe to administrative state transitions. Not owned; listeners
  /// are expected to live as long as the link (setup-time wiring only).
  void add_state_listener(StateListener* l) { state_listeners_.push_back(l); }

  [[nodiscard]] LinkId id() const { return id_; }
  [[nodiscard]] std::int64_t rate_bps() const { return rate_bps_; }

  /// Hybrid-engine coupling: fraction of the transmitter's capacity consumed
  /// by fluid-modelled background traffic. Packet serialization slows down by
  /// 1/(1-share), so packet-accurate flows experience the reduced residual
  /// bandwidth without any fluid packet existing. Clamped to [0, 0.95] by the
  /// caller. A change settles the link first, so transmissions already due
  /// keep their timing; checkpointed, so the hybrid engine's re-apply after
  /// a restore changes nothing.
  void set_fluid_share(double share) {
    if (share == fluid_share_) return;
    settle();
    fluid_share_ = share;
    recompute_effective_rate();
  }
  [[nodiscard]] double fluid_share() const { return fluid_share_; }
  /// Hybrid-engine coupling: transmitter time the fluid load has taken up
  /// so far, counted in busy_time(). Not checkpointed, like the share: the
  /// hybrid engine keeps the total and re-applies it after a restore.
  void set_fluid_busy(sim::Time t) { fluid_busy_ = t; }

  /// Gray failure: slow drain. Serialization runs at `factor` x the nominal
  /// rate (factor in (0, 1]; 1.0 restores full capacity). Composes with the
  /// hybrid fluid share; a change settles the link first, so transmissions
  /// already due keep their old timing. Checkpointed.
  void set_degrade(double factor) {
    if (factor == degrade_) return;
    settle();
    degrade_ = factor;
    recompute_effective_rate();
  }
  [[nodiscard]] double degrade() const { return degrade_; }
  [[nodiscard]] sim::Time prop_delay() const { return prop_delay_; }
  /// The egress queue. Its raw length still counts transmissions that are
  /// due but not started; queued() is the settled count.
  [[nodiscard]] const Queue& queue() const { return *queue_; }
  [[nodiscard]] Queue& queue() { return *queue_; }
  [[nodiscard]] PacketSink& sink() { return sink_; }
  [[nodiscard]] const PacketSink& sink() const { return sink_; }

  // --- settled views: what the link holds once every transmission due by
  // the link's clock has started; reading them starts nothing. ---
  /// Total bytes put onto the wire.
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_ + due().bytes; }
  /// Cumulative time the transmitter was busy: packet serialization plus,
  /// in hybrid runs, the fluid load's share.
  [[nodiscard]] sim::Time busy_time() const { return busy_ + due().busy + fluid_busy_; }
  /// Packets waiting for the transmitter.
  [[nodiscard]] std::size_t queued() const { return queue_->len_packets() - due().packets; }
  /// The queue's time-averaged occupancy over [0, now], `now` at or
  /// before the link's clock.
  [[nodiscard]] double mean_occupancy(sim::Time now) const;

  /// Start every transmission due by the link's clock (inclusive): a
  /// departure at `now` leaves before an arrival at `now`.
  void settle() { settle_before(sched_.now() + sim::Time::nanoseconds(1)); }
  /// Start every transmission due strictly before `b`: the end-of-epoch
  /// sweep of a boundary link (ShardFabric::settle_boundary), run after
  /// the epoch's events so every start it makes lands in its channel.
  void settle_before(sim::Time b) {
    while (tx_end_ < b && queue_->len_packets() > 0) start_next();
  }

  // --- conservation accounting (stats::probes, faults::InvariantChecker) ---
  /// Packets ever offered via send().
  [[nodiscard]] std::uint64_t offered() const { return offered_; }
  /// Packets handed to the sink (excludes corrupt discards).
  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  [[nodiscard]] const LinkDropCounters& drops() const { return drops_; }
  /// In-flight packets that will still reach the sink (stale-epoch entries
  /// were already counted as a drop when the link went down); a settled
  /// view, like queued().
  [[nodiscard]] std::size_t live_in_flight() const;
  /// Packets parked in the gray-failure hold buffer, awaiting release.
  [[nodiscard]] std::size_t held() const { return held_.size(); }

  // --- gray-failure impairment accounting ---
  /// Clones materialized by a Duplicate verdict. The conservation law is
  /// offered + duplicated == delivered + drops + queued + in_flight + held.
  [[nodiscard]] std::uint64_t duplicated() const { return duplicated_; }
  /// Packets held at entry by a Delay or Reorder verdict.
  [[nodiscard]] std::uint64_t delayed() const { return delayed_; }
  /// ECT packets force-marked CE by an EcnOvermark verdict.
  [[nodiscard]] std::uint64_t overmarked() const { return overmarked_; }

  // --- sharded (conservative-sync) boundary mode ---
  /// Make this a shard-boundary link: transmitted packets go to `ch`
  /// instead of the local in-flight FIFO and are delivered on the
  /// destination shard's scheduler `dst` after the barrier drain; they wait
  /// for delivery on that shard's `dst_pool`. Wired once at topology
  /// construction (net::Network), while the link is empty; never in a
  /// one-shard run.
  void set_remote_handoff(HandoffChannel* ch, sim::Scheduler* dst, FifoPool& dst_pool) {
    remote_ = ch;
    remote_sched_ = dst;
    remote_arrivals_.set_pool(dst_pool);
  }
  [[nodiscard]] bool is_boundary() const { return remote_ != nullptr; }

  /// Park one drained packet for delivery at `deliver_t_ns` on the
  /// destination scheduler (ShardFabric::drain_into, shards quiesced). A
  /// packet sent before the link last went down is discarded here; it was
  /// counted by set_down().
  void accept_remote_arrival(Packet&& pkt, std::int64_t deliver_t_ns, std::uint64_t epoch);

  /// Checkpoint the link as it stands, unsettled: queue contents,
  /// counters, the transmitter's end time, and in-flight packets with their
  /// delivery keys. On restore the in-flight heads are re-armed under their
  /// original keys, so dispatch order is unchanged. Restore rejects
  /// (Io::fail) keys behind the restored clock or never handed out,
  /// out-of-order deliveries, arrivals on a link without a destination
  /// scheduler, and a queued packet nothing would start.
  void checkpoint(core::ckpt::Io& io);

 private:
  /// Transmissions due but not started at `t`: what settling at `t` would
  /// move out of the queue.
  struct Due {
    std::size_t packets = 0;
    std::uint64_t bytes = 0;
    sim::Time busy = sim::Time::zero();  ///< what their starts add to busy_
    std::uint64_t area = 0;  ///< Σ (t - start): occupancy their departures remove
  };
  [[nodiscard]] Due due(sim::Time t) const;
  [[nodiscard]] Due due() const { return due(sched_.now()); }

  /// Dequeue the head at its virtual start, tx_end_, and put it on the wire.
  void start_next();
  /// Transmitter time a serialization of `tx` counts as packet-busy: a
  /// fluid share's stretch is the fluid load's time, which the hybrid
  /// engine credits through set_fluid_busy().
  [[nodiscard]] sim::Time packet_busy(sim::Time tx) const {
    return fluid_share_ > 0.0 ? sim::Time::seconds(tx.sec() * (1.0 - fluid_share_)) : tx;
  }
  void deliver_head();
  void remote_deliver_head();
  void arm_head();
  void arm_remote_head();
  /// Enqueue for transmission after the verdict's entry effects; `dup`
  /// materializes the clone right behind the original.
  void enqueue_for_tx(Packet&& p, bool dup);
  void release_held(std::uint64_t id);
  void recompute_effective_rate() {
    const double residual =
        static_cast<double>(rate_bps_) * (1.0 - fluid_share_) * degrade_;
    effective_rate_bps_ = residual >= 1.0 ? static_cast<std::int64_t>(residual) : 1;
  }

  sim::Scheduler& sched_;
  LinkId id_;
  std::int64_t rate_bps_;
  /// rate_bps_ scaled down by the fluid share and the degrade factor;
  /// equals rate_bps_ outside hybrid/faulted runs so serialization times
  /// are bit-identical to the seed.
  std::int64_t effective_rate_bps_;
  double fluid_share_ = 0.0;
  sim::Time fluid_busy_ = sim::Time::zero();
  double degrade_ = 1.0;  ///< slow-drain capacity multiplier (1 = healthy)
  sim::Time prop_delay_;
  std::unique_ptr<Queue> queue_;
  PacketSink& sink_;
  FaultHook* fault_hook_ = nullptr;
  std::vector<StateListener*> state_listeners_;
  std::unique_ptr<FifoPool> own_pool_;  ///< only without a shard's pool

  /// Packets serialized onto the wire, awaiting delivery at the sink, each
  /// with the (time, sequence) key its delivery reserved. Propagation delay
  /// is constant, so deliveries are FIFO and only the head's event is armed
  /// (head_ev_); set_down() empties the FIFO, so every entry is live.
  struct InFlight {
    Packet pkt;
    std::int64_t t_ns;
    std::uint64_t seq;
  };
  Fifo<InFlight> in_flight_;
  sim::EventId head_ev_ = sim::kInvalidEventId;

  /// End of the latest transmission started: the transmitter is free from
  /// then on. While the queue is not empty its head starts exactly here.
  sim::Time tx_end_ = sim::Time::zero();

  /// Gray-failure hold buffer: packets parked at link *entry* (before the
  /// egress queue) by a Delay/Reorder verdict. Entries are id-keyed so the
  /// release event captures 16 bytes; release re-enters the normal enqueue
  /// path, which is why held packets never perturb the in-flight FIFO or
  /// the boundary-mode state. set_down() cancels the release events and
  /// accounts the contents, so the buffer only ever holds live packets.
  struct Held {
    std::uint64_t id;
    bool duplicate;  ///< clone on release (deferred with the original)
    Packet pkt;
    sim::EventId ev;
  };
  std::vector<Held> held_;
  std::uint64_t next_held_id_ = 0;

  // --- boundary-mode state. Thread ownership is partitioned: the source
  // shard writes offered_/queue_/busy_/bytes_sent_/drops_.{queue,fault},
  // tx_end_ and remote_handed_; the destination
  // shard writes delivered_, drops_.corrupt, remote_landed_, remote_arrivals_ and
  // remote_head_ev_ (also in its barrier drain, on its own thread); epoch_/down_/
  // drops_.admin_down change only at barriers with every shard quiesced.
  // Distinct members, so no two threads ever touch the same word. ---
  HandoffChannel* remote_ = nullptr;
  sim::Scheduler* remote_sched_ = nullptr;  ///< destination shard's engine

  /// Packets of the current epoch handed to the channel (src-owned) and,
  /// of those, the ones that reached the sink end (dst-owned): their
  /// difference is live_in_flight()'s boundary part. set_down() zeroes both.
  std::uint64_t remote_handed_ = 0;
  std::uint64_t remote_landed_ = 0;

  /// dst-consumed FIFO of drained packets awaiting delivery, keyed like
  /// in_flight_; only the head's event is armed, on remote_sched_. Grows
  /// in the destination's barrier drain, i.e. on its worker thread, which
  /// is why it lives on the destination shard's pool.
  Fifo<InFlight> remote_arrivals_;
  sim::EventId remote_head_ev_ = sim::kInvalidEventId;

  bool down_ = false;
  std::uint64_t bytes_sent_ = 0;
  sim::Time busy_ = sim::Time::zero();
  std::uint64_t epoch_ = 0;  ///< invalidates in-flight deliveries on set_down
  std::uint64_t offered_ = 0;
  std::uint64_t delivered_ = 0;
  LinkDropCounters drops_;
  std::uint64_t duplicated_ = 0;  ///< clones materialized (extra sends)
  std::uint64_t delayed_ = 0;     ///< packets parked in the hold buffer
  std::uint64_t overmarked_ = 0;  ///< forced CE marks applied at entry
};

}  // namespace xmp::net
