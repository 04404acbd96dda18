#pragma once

#include <cstdint>
#include <memory>

#include "net/fifo.hpp"
#include "net/packet.hpp"
#include "obs/hooks.hpp"
#include "sim/time.hpp"

namespace xmp::net {

/// Counters shared by every queue discipline.
struct QueueCounters {
  std::uint64_t enqueued = 0;
  std::uint64_t dropped = 0;
  std::uint64_t marked = 0;  ///< packets that received a CE mark here
};

/// Egress queue discipline attached to a link.
///
/// `enqueue` may modify the packet (ECN marking) and returns false when the
/// packet is dropped. Queues count both packets and bytes; capacity is
/// expressed in packets, matching the paper ("queue size of 100 packets").
/// The packets live on `pool`, the owning shard's FIFO pool; a queue built
/// without one (unit tests, micro-benches) owns a private pool.
class Queue {
 public:
  explicit Queue(std::size_t capacity_packets, FifoPool* pool = nullptr)
      : capacity_{capacity_packets}, fifo_{pool_or_own(pool, own_pool_)} {}
  virtual ~Queue() = default;

  Queue(const Queue&) = delete;
  Queue& operator=(const Queue&) = delete;

  /// Try to accept `p`; returns false if dropped.
  [[nodiscard]] virtual bool enqueue(Packet&& p, sim::Time now) = 0;

  /// Pop the head packet; returns false when empty.
  [[nodiscard]] bool dequeue(Packet& out, sim::Time now);

  [[nodiscard]] std::size_t len_packets() const { return fifo_.size(); }
  [[nodiscard]] std::size_t len_bytes() const { return bytes_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] const QueueCounters& counters() const { return counters_; }

  /// Time-weighted average occupancy (packets) over [0, now] — the paper's
  /// "level of link buffer occupancy", measured exactly rather than by
  /// polling. `now` must be monotone across calls (simulation time).
  [[nodiscard]] double mean_occupancy(sim::Time now) const;
  /// The integral behind mean_occupancy(): sum of len * dt over [0, now],
  /// in packet-nanoseconds. Integer, so splitting an interval anywhere
  /// leaves it unchanged.
  [[nodiscard]] std::uint64_t occupancy_area(sim::Time now) const;
  /// Largest instantaneous occupancy ever observed.
  [[nodiscard]] std::size_t peak_occupancy() const { return peak_; }

  /// Fault injection: an "ECN blackhole" switch keeps forwarding but stops
  /// CE-marking (non-ECN hardware). Marking disciplines must honour this.
  void set_marking_enabled(bool on) { marking_enabled_ = on; }
  [[nodiscard]] bool marking_enabled() const { return marking_enabled_; }

  /// Hybrid-engine coupling: while set, marking disciplines mark every
  /// arriving ECT packet, so packet-accurate foreground flows see the
  /// congestion the fluid-modelled background traffic would cause. The
  /// engine toggles this as a duty cycle — bursts covering a p_mark
  /// fraction of a fixed period — because the fluid equilibrium backlog
  /// sits *above* K by construction; feeding it into the threshold compare
  /// directly would mark 100% of foreground packets where the real
  /// (oscillating) queue marks only a p fraction of rounds. Not
  /// checkpointed — the hybrid engine re-applies it after a restore,
  /// exactly as it re-derives it every fluid tick.
  void set_fluid_marking(bool on) { fluid_marking_ = on; }
  [[nodiscard]] bool fluid_marking() const { return fluid_marking_; }

  /// The queued packets, head first (a link's lazy transmitter reads their
  /// sizes to time the transmissions it has not started yet).
  [[nodiscard]] const Fifo<Packet>& packets() const { return fifo_; }

  /// Observability only: the link this queue drains (labels trace events).
  void set_owner(std::uint32_t link_id) { owner_ = link_id; }
  [[nodiscard]] std::uint32_t owner() const { return owner_; }

  /// Checkpoint the queued packets, counters and occupancy integral (the
  /// integral feeds results, so it must survive exactly). Disciplines with
  /// extra state (RED) extend via checkpoint_extra.
  void checkpoint(core::ckpt::Io& io);

 protected:
  /// FIFO admission used by subclasses after their drop/mark decision.
  /// `now` feeds the occupancy integral.
  bool push_tail(Packet&& p, sim::Time now);
  virtual void on_dequeue(const Packet& /*p*/, sim::Time /*now*/) {}
  virtual void checkpoint_extra(core::ckpt::Io& /*io*/) {}

  // --- observability (single predictable branch when disabled) ---
  /// Activity-driven depth sample: piggybacks on enqueue/dequeue, rate-
  /// limited per queue, never schedules events — a traced run executes the
  /// exact same simulation as an untraced one.
  void observe(sim::Time now) {
    if (obs::tracer() != nullptr || obs::metrics() != nullptr) [[unlikely]] {
      observe_slow(now);
    }
  }
  /// Marking disciplines call note_mark when a CE mark is applied and
  /// note_gap when an ECT packet passes unmarked; consecutive-mark run
  /// lengths feed the `mark_runs` histogram.
  void note_mark(sim::Time now) {
    if (obs::tracer() != nullptr || obs::metrics() != nullptr) [[unlikely]] {
      note_mark_slow(now);
    }
  }
  void note_gap() {
    if (mark_run_ != 0) [[unlikely]] note_gap_slow();
  }

  std::size_t capacity_;
  std::unique_ptr<FifoPool> own_pool_;  ///< only without a shard's pool
  Fifo<Packet> fifo_;
  std::size_t bytes_ = 0;
  QueueCounters counters_;
  bool marking_enabled_ = true;
  bool fluid_marking_ = false;  ///< see set_fluid_marking()

 private:
  void advance_occupancy_clock(sim::Time now);
  void observe_slow(sim::Time now);
  void note_mark_slow(sim::Time now);
  void note_gap_slow();

  // Occupancy integral: Σ len · dt, in packet·nanoseconds.
  std::uint64_t occupancy_area_ = 0;
  sim::Time last_change_ = sim::Time::zero();
  std::size_t peak_ = 0;

  // Observability state; never read by the simulation itself.
  std::uint32_t owner_ = 0xffffffffu;
  sim::Time last_sample_ = sim::Time::nanoseconds(-1);
  std::uint64_t mark_run_ = 0;  ///< consecutive CE marks since the last gap
};

/// Plain FIFO drop-tail queue (what LIA/TCP see in the paper).
class DropTailQueue final : public Queue {
 public:
  using Queue::Queue;
  bool enqueue(Packet&& p, sim::Time now) override;
};

/// Drop-tail queue with the paper's packet-marking rule (§2.1): the arriving
/// packet is marked CE iff the *instantaneous* queue length is larger than
/// K packets. Non-ECT packets are never marked (they are dropped only on
/// overflow), which is how the paper's plain-TCP small flows coexist.
class EcnThresholdQueue final : public Queue {
 public:
  EcnThresholdQueue(std::size_t capacity_packets, std::size_t mark_threshold,
                    FifoPool* pool = nullptr)
      : Queue{capacity_packets, pool}, k_{mark_threshold} {}

  bool enqueue(Packet&& p, sim::Time now) override;

  [[nodiscard]] std::size_t mark_threshold() const { return k_; }

 private:
  std::size_t k_;
};

/// Classic RED with EWMA average-queue estimation (Floyd & Jacobson).
/// Included to reproduce the paper's argument for *not* using it: with
/// ultra-low RTT and low statistical multiplexing the EWMA average is a
/// poor congestion signal. Setting `wq = 1.0` and `min_th == max_th == K`
/// degenerates RED into the paper's instantaneous-threshold rule (the
/// "configuration trick" of §3).
class RedQueue final : public Queue {
 public:
  struct Params {
    double wq = 0.002;       ///< EWMA weight
    double min_th = 5;       ///< packets
    double max_th = 15;      ///< packets
    double max_p = 0.1;      ///< marking probability at max_th
    bool ecn = true;         ///< mark ECT packets instead of dropping
  };

  RedQueue(std::size_t capacity_packets, const Params& params, FifoPool* pool = nullptr)
      : Queue{capacity_packets, pool}, p_{params} {}

  bool enqueue(Packet&& p, sim::Time now) override;

  [[nodiscard]] double avg() const { return avg_; }

  /// RNG hook so runs stay deterministic; defaults to a fixed seed stream.
  void set_random01(double (*fn)(std::uint64_t), std::uint64_t seed);

 protected:
  void checkpoint_extra(core::ckpt::Io& io) override;

 private:
  double random01();

  Params p_;
  double avg_ = 0.0;
  std::uint64_t count_since_mark_ = 0;
  std::uint64_t rng_state_ = 0x9e3779b97f4a7c15ULL;
};

/// Factory signature used by topology builders to instantiate one queue
/// per link egress.
using QueueFactory = std::unique_ptr<Queue> (*)(const struct QueueConfig&);

/// Declarative queue configuration used across topologies and experiments.
struct QueueConfig {
  enum class Kind { DropTail, EcnThreshold, Red } kind = Kind::EcnThreshold;
  std::size_t capacity_packets = 100;
  std::size_t mark_threshold = 10;  ///< K, for EcnThreshold
  RedQueue::Params red;             ///< for Red
};

/// Build a queue from a declarative config, its packets on `pool` (a
/// private pool when null).
[[nodiscard]] std::unique_ptr<Queue> make_queue(const QueueConfig& cfg,
                                                FifoPool* pool = nullptr);

}  // namespace xmp::net
