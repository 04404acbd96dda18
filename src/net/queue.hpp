#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>

#include "net/packet.hpp"
#include "obs/hooks.hpp"
#include "sim/time.hpp"

namespace xmp::net {

/// Growable FIFO ring buffer.
///
/// Allocates nothing until its first push, then starts at kInitialSlots
/// and doubles whenever it is full, but never beyond `max_slots`. Most
/// FIFOs in a run stay empty or short — XMP's marking rule keeps queues
/// near K=10 (paper §2.1), and a link's in-flight FIFO holds only what one
/// propagation delay covers — so memory follows occupancy, not capacity.
/// Growth moves the contents to the front of the new buffer; the physical
/// layout is invisible to FIFO behavior.
template <class T>
class Ring {
 public:
  static constexpr std::size_t kInitialSlots = 8;
  static constexpr std::size_t kUnbounded = static_cast<std::size_t>(-1);

  explicit Ring(std::size_t max_slots = kUnbounded) : max_{max_slots} {}

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  /// Slots allocated (0 until the first push; at most max_slots()).
  [[nodiscard]] std::size_t capacity() const { return cap_; }
  [[nodiscard]] std::size_t max_slots() const { return max_; }

  /// The i-th element from the front.
  [[nodiscard]] T& operator[](std::size_t i) { return buf_[slot(i)]; }
  [[nodiscard]] const T& operator[](std::size_t i) const { return buf_[slot(i)]; }
  [[nodiscard]] T& front() { return buf_[head_]; }
  [[nodiscard]] const T& back() const { return (*this)[count_ - 1]; }

  /// Front-to-back iteration (read-only).
  class const_iterator {
   public:
    const_iterator(const Ring* r, std::size_t i) : r_{r}, i_{i} {}
    const T& operator*() const { return (*r_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator!=(const const_iterator& o) const { return i_ != o.i_; }

   private:
    const Ring* r_;
    std::size_t i_;
  };
  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, count_}; }

  void push_back(T&& v) {
    if (count_ == cap_) grow();
    buf_[slot(count_)] = std::move(v);
    ++count_;
  }

  void pop_front() {
    assert(count_ > 0);
    if (++head_ == cap_) head_ = 0;
    --count_;
  }

  /// Empty the ring; the allocated slots are kept for reuse.
  void clear() {
    head_ = 0;
    count_ = 0;
  }

 private:
  [[nodiscard]] std::size_t slot(std::size_t i) const {
    const std::size_t at = head_ + i;
    return at >= cap_ ? at - cap_ : at;
  }

  void grow() {
    assert(cap_ < max_ && "push into a ring that is full at its cap");
    const std::size_t n = std::min(cap_ == 0 ? kInitialSlots : 2 * cap_, max_);
    auto next = std::make_unique<T[]>(n);
    for (std::size_t i = 0; i < count_; ++i) next[i] = std::move((*this)[i]);
    buf_ = std::move(next);
    cap_ = n;
    head_ = 0;
  }

  std::unique_ptr<T[]> buf_;
  std::size_t cap_ = 0;
  std::size_t max_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

/// A queue's packet FIFO: a Ring capped at the queue's capacity, plus its
/// checkpoint encoding (the packets in FIFO order).
class PacketRing : public Ring<Packet> {
 public:
  using Ring::Ring;

  /// Loading refills the ring; more packets than the cap allows fail.
  void checkpoint(core::ckpt::Io& io) {
    std::uint64_t n = size();
    io.u64(n);
    if (io.saving()) {
      for (Packet p : *this) net::checkpoint(io, p);
      return;
    }
    clear();
    if (n > max_slots()) return io.fail();
    for (std::uint64_t i = 0; i < n && io.ok(); ++i) {
      Packet p;
      net::checkpoint(io, p);
      push_back(std::move(p));
    }
  }
};

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
class Queue {
 public:
  explicit Queue(std::size_t capacity_packets)
      : capacity_{capacity_packets}, fifo_{capacity_packets} {}
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
  /// Packet slots the FIFO has allocated so far (never above capacity()).
  [[nodiscard]] std::size_t ring_slots() const { return fifo_.capacity(); }
  [[nodiscard]] const QueueCounters& counters() const { return counters_; }

  /// Time-weighted average occupancy (packets) over [0, now] — the paper's
  /// "level of link buffer occupancy", measured exactly rather than by
  /// polling. `now` must be monotone across calls (simulation time).
  [[nodiscard]] double mean_occupancy(sim::Time now) const;
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
  PacketRing fifo_;
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
  double occupancy_area_ = 0.0;
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
  EcnThresholdQueue(std::size_t capacity_packets, std::size_t mark_threshold)
      : Queue{capacity_packets}, k_{mark_threshold} {}

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

  RedQueue(std::size_t capacity_packets, const Params& params)
      : Queue{capacity_packets}, p_{params} {}

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

/// Build a queue from a declarative config.
[[nodiscard]] std::unique_ptr<Queue> make_queue(const QueueConfig& cfg);

}  // namespace xmp::net
