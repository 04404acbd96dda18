#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "sim/event_callback.hpp"
#include "sim/time.hpp"

namespace xmp::sim {

/// Identifier of a scheduled event; used for cancellation.
///
/// Encodes a slab slot plus a per-slot generation, so an id for an event
/// that already fired (or was cancelled) stays invalid even after its slot
/// is reused by a later event.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

/// Discrete-event scheduler with a virtual clock.
///
/// Events scheduled for the same instant fire in FIFO order, which together
/// with the deterministic Rng makes every simulation run reproducible.
///
/// The hot path is allocation-free in steady state and built from two
/// pieces:
///  - a slab of callback slots (EventCallback small-buffer storage, no
///    heap allocation per event) recycled through a free list;
///  - one indexed 4-ary min-heap of 16-byte (time, sequence|slot) keys
///    holding every pending event; per-slot heap positions live in a dense
///    side array, so cancel() is O(log n) in place — no tombstones, no
///    skip-on-pop hash lookups.
///
/// Dispatch order is defined purely by the (time, sequence) key.
///
/// Cache-line aligned: the sharded engine gives each worker thread its own
/// schedulers and writes their clock and counters on every event, so two
/// shards' schedulers must never share a line (false sharing there cost
/// ~25% of a k=8 run, depending on where the allocator placed them).
class alignas(64) Scheduler {
 public:
  using Callback = EventCallback;

  /// Current virtual time.
  [[nodiscard]] Time now() const { return now_; }

  /// Schedule `cb` at absolute time `t` (must be >= now()).
  EventId schedule_at(Time t, Callback cb);

  /// Schedule `cb` after `delay` (must be >= 0).
  EventId schedule_in(Time delay, Callback cb) { return schedule_at(now_ + delay, std::move(cb)); }

  /// Cancel a pending event. Cancelling an already-fired or invalid id is a no-op.
  void cancel(EventId id);

  /// Run until no events remain or stop() is called.
  void run();

  /// Run all events with timestamp <= `t`; the clock is advanced to `t`
  /// afterwards if the queue drained early. If stop() was called, the clock
  /// stays at the stopping event's time.
  void run_until(Time t);

  /// Run all events with timestamp strictly < `bound` and leave the clock at
  /// the last dispatched event. The conservative-sync epoch loop uses this:
  /// an event landing exactly on the epoch boundary belongs to the *next*
  /// epoch (it may be affected by cross-shard arrivals at `bound`), so the
  /// boundary itself is excluded. The caller advances the clock to the
  /// barrier time afterwards via advance_clock_to().
  void run_before(Time bound);

  /// Dispatch exactly one event (the earliest pending), advancing the clock
  /// to its timestamp. Returns false if no event is pending.
  bool step_one();

  /// Timestamp of the earliest pending event, or Time::infinity() if none.
  [[nodiscard]] Time next_time() const;

  /// Move the clock forward to `t` (no-op if already past). Barriers use
  /// this to align every shard's clock on the epoch boundary so that
  /// relative delays stay correct after the handoff drain. Every event
  /// before `t` has then passed and none at `t` has.
  void advance_clock_to(Time t) {
    if (now_ < t) {
      now_ = t;
      last_seq_ = 0;
    }
  }

  /// Request the run loop to return after the current event.
  void stop() { stopped_ = true; }

  /// Whether the last run loop exited via stop() (as opposed to draining or
  /// reaching its horizon). run()/run_until()/run_before() clear this flag
  /// on entry. The segmented checkpoint loop uses it to distinguish "the
  /// workload stopped the run" from "the checkpoint boundary was reached".
  [[nodiscard]] bool stopped() const { return stopped_; }

  /// Install an external stop flag (e.g. set by a SIGTERM handler) checked
  /// between events; when it becomes true the run loop returns after the
  /// current event, leaving the clock at that event's time. Unlike stop(),
  /// this does NOT set stopped(), so callers can tell the two apart. The
  /// flag object must outlive the scheduler; nullptr detaches.
  void set_external_stop(const std::atomic<bool>* flag) { stop_flag_ = flag; }

  // --- checkpoint/restore support (core/checkpoint) -----------------------
  //
  // Dispatch order is a pure function of each event's (time, sequence) key,
  // so checkpointing the pending set means saving every event's key next to
  // the owning module's state and re-arming it on restore with the same key.
  // arm_at() (below) accepts the historical sequence explicitly, which makes
  // the re-arm order during restore irrelevant.

  /// The portion of an event's identity that must survive a checkpoint.
  struct PendingKey {
    std::int64_t t_ns = 0;
    std::uint64_t seq = 0;
  };

  /// Fetch the (time, sequence) key of a pending event. Returns false if
  /// `id` no longer names a pending event.
  [[nodiscard]] bool key_of(EventId id, PendingKey& out) const;

  /// Restore the clock, sequence counter and dispatch count saved by a
  /// checkpoint. Must be called on a virgin scheduler before any
  /// arm_at() of a checkpointed key.
  void restore_clock(Time now, std::uint64_t next_seq, std::uint64_t dispatched);

  /// Checkpointed counters (paired with restore_clock on the loading side).
  [[nodiscard]] std::uint64_t next_seq() const { return next_seq_; }

  // --- deferred arming -----------------------------------------------------
  //
  // A module that knows an event *would* exist, but needs it dispatched only
  // if some later condition holds, reserves the event's sequence number at
  // the moment it would have scheduled it and arms it later (or never)
  // under that reserved key. Dispatch order is the same as if the event had
  // been scheduled eagerly; an event that is never armed simply never runs.

  /// Take the next sequence number without scheduling anything.
  [[nodiscard]] std::uint64_t reserve_seq() { return next_seq_++; }

  /// Schedule `cb` under an explicit (time, sequence) key: a reserved
  /// sequence, or a checkpointed one on restore (`seq` from key_of() on the
  /// saving side, after restore_clock()). The key must not have passed().
  EventId arm_at(Time t, std::uint64_t seq, Callback cb);

  /// Whether an event with key (t, seq) would already have been
  /// dispatched: the key is at or before the last dispatched one. After
  /// advance_clock_to(t) or restore_clock(t, ...) the last key is (t, 0);
  /// after a run_until(t) that was not stopped it is (t, next_seq() - 1).
  [[nodiscard]] bool passed(Time t, std::uint64_t seq) const {
    return t < now_ || (t == now_ && seq <= last_seq_);
  }

  /// Number of live (not yet fired, not cancelled) events.
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }

  /// Total events dispatched so far (for micro-benchmarks and tests).
  [[nodiscard]] std::uint64_t dispatched() const { return dispatched_; }

 private:
  static constexpr std::uint32_t kNullPos = 0xffffffffu;
  static constexpr std::size_t kArity = 4;
  /// Heap keys pack (sequence << kSlotBits) | slot into one word: the
  /// monotone sequence makes FIFO ties exact, the slot rides along for
  /// free. 2^24 concurrent events and 2^40 total schedules are orders of
  /// magnitude beyond any run we do; both are asserted.
  static constexpr std::uint32_t kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1u << kSlotBits) - 1;

  /// Slab slot: callback storage plus the generation that validates ids.
  struct Slot {
    EventCallback cb;
    std::uint32_t gen = 0;
  };

  struct HeapEntry {
    std::int64_t t_ns;
    std::uint64_t key;  ///< (seq << kSlotBits) | slot

    [[nodiscard]] std::uint32_t slot() const { return static_cast<std::uint32_t>(key & kSlotMask); }
  };

  [[nodiscard]] static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.t_ns != b.t_ns) return a.t_ns < b.t_ns;
    return a.key < b.key;  // seq occupies the high bits: FIFO among equal times
  }

  /// Decode an EventId; returns the slot index if it names a pending event,
  /// kNullPos otherwise.
  [[nodiscard]] std::uint32_t pending_slot_of(EventId id) const;

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t idx);
  void place(const HeapEntry& e, std::size_t pos) {
    heap_[pos] = e;
    pos_[e.slot()] = static_cast<std::uint32_t>(pos);
  }
  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);
  void restore(std::size_t pos);
  void heap_erase(std::size_t pos);

  /// Push an entry for `idx` at time `t` under sequence `seq` onto the
  /// heap. schedule_at passes next_seq_++; arm_at passes a reserved or
  /// checkpointed one.
  void insert_entry(std::uint32_t idx, Time t, std::uint64_t seq);

  [[nodiscard]] bool external_stop() const {
    return stop_flag_ != nullptr && stop_flag_->load(std::memory_order_relaxed);
  }

  /// Remove the earliest event with time <= `bound_ns`, moving its deadline
  /// and callback out and recording its key as the last dispatched one.
  /// Returns false when no such event exists.
  bool pop_next(std::int64_t bound_ns, Time& t, EventCallback& cb);

  void dispatch(Time t, EventCallback& cb);

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> pos_;  ///< per-slot heap position
  std::vector<HeapEntry> heap_;
  std::vector<std::uint32_t> free_;
  Time now_ = Time::zero();
  std::uint64_t next_seq_ = 1;
  /// Sequence of the last dispatched event; with now_ it is the key
  /// passed() compares against.
  std::uint64_t last_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  bool stopped_ = false;
  const std::atomic<bool>* stop_flag_ = nullptr;
};

namespace detail {
/// Scheduler whose run loop is executing on this thread (nullptr outside a
/// run loop). Lets code that may run on behalf of a *remote* shard — e.g. a
/// boundary link delivering into its destination shard — read the clock of
/// the engine actually dispatching it instead of the one it was built with.
inline thread_local Scheduler* tls_scheduler = nullptr;
}  // namespace detail

/// The scheduler currently dispatching events on this thread, if any.
[[nodiscard]] inline Scheduler* current_scheduler() { return detail::tls_scheduler; }

}  // namespace xmp::sim
