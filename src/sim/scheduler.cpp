#include "sim/scheduler.hpp"

#include <cassert>
#include <limits>

#include "obs/hooks.hpp"
#include "obs/timeline.hpp"

namespace xmp::sim {

namespace {

constexpr EventId encode(std::uint32_t gen, std::uint32_t idx) {
  return (static_cast<EventId>(gen) << 32) | (idx + 1);
}

/// Marks this scheduler as the one dispatching on the current thread for
/// the duration of a run loop; restores the previous value on exit so
/// nested run_until() calls (tests do this) unwind correctly.
struct TlsSchedulerScope {
  explicit TlsSchedulerScope(Scheduler* s) : prev{detail::tls_scheduler} {
    detail::tls_scheduler = s;
  }
  ~TlsSchedulerScope() { detail::tls_scheduler = prev; }
  TlsSchedulerScope(const TlsSchedulerScope&) = delete;
  TlsSchedulerScope& operator=(const TlsSchedulerScope&) = delete;
  Scheduler* prev;
};

}  // namespace

std::uint32_t Scheduler::pending_slot_of(EventId id) const {
  if (id == kInvalidEventId) return kNullPos;
  const std::uint32_t idx = static_cast<std::uint32_t>(id & 0xffffffffu) - 1;
  const std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
  if (idx >= slots_.size()) return kNullPos;
  if (slots_[idx].gen != gen || pos_[idx] == kNullPos) return kNullPos;
  return idx;
}

std::uint32_t Scheduler::acquire_slot() {
  if (!free_.empty()) {
    const std::uint32_t idx = free_.back();
    free_.pop_back();
    return idx;
  }
  assert(slots_.size() < kSlotMask && "too many concurrent events");
  slots_.emplace_back();
  pos_.push_back(kNullPos);
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Scheduler::release_slot(std::uint32_t idx) {
  Slot& s = slots_[idx];
  s.cb.reset();
  ++s.gen;  // invalidate outstanding ids for this slot
  pos_[idx] = kNullPos;
  free_.push_back(idx);
}

void Scheduler::sift_up(std::size_t pos) {
  const HeapEntry e = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / kArity;
    if (!earlier(e, heap_[parent])) break;
    place(heap_[parent], pos);
    pos = parent;
  }
  place(e, pos);
}

void Scheduler::sift_down(std::size_t pos) {
  const HeapEntry e = heap_[pos];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = pos * kArity + 1;
    if (first >= n) break;
    const std::size_t end = first + kArity < n ? first + kArity : n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], e)) break;
    place(heap_[best], pos);
    pos = best;
  }
  place(e, pos);
}

void Scheduler::restore(std::size_t pos) {
  if (pos > 0 && earlier(heap_[pos], heap_[(pos - 1) / kArity])) {
    sift_up(pos);
  } else {
    sift_down(pos);
  }
}

void Scheduler::heap_erase(std::size_t pos) {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;
  place(last, pos);
  restore(pos);
}

void Scheduler::insert_entry(std::uint32_t idx, Time t, std::uint64_t seq) {
  assert(seq < (1ull << (64 - kSlotBits)) && "sequence space exhausted");
  heap_.push_back(HeapEntry{t.ns(), (seq << kSlotBits) | idx});
  sift_up(heap_.size() - 1);  // records pos_[idx]
}

EventId Scheduler::schedule_at(Time t, Callback cb) {
  assert(t >= now_ && "cannot schedule into the past");
  assert(cb && "null event callback");
  const std::uint32_t idx = acquire_slot();
  Slot& s = slots_[idx];
  s.cb = std::move(cb);
  insert_entry(idx, t, next_seq_++);
  return encode(s.gen, idx);
}

bool Scheduler::key_of(EventId id, PendingKey& out) const {
  const std::uint32_t idx = pending_slot_of(id);
  if (idx == kNullPos) return false;
  const HeapEntry& e = heap_[pos_[idx]];
  out.t_ns = e.t_ns;
  out.seq = e.key >> kSlotBits;
  return true;
}

EventId Scheduler::arm_at(Time t, std::uint64_t seq, Callback cb) {
  assert(!passed(t, seq) && "cannot arm a key that already passed");
  assert(seq < next_seq_ && "sequence was never reserved (or restore_clock has not run)");
  assert(cb && "null event callback");
  const std::uint32_t idx = acquire_slot();
  Slot& s = slots_[idx];
  s.cb = std::move(cb);
  insert_entry(idx, t, seq);
  return encode(s.gen, idx);
}

void Scheduler::restore_clock(Time now, std::uint64_t next_seq, std::uint64_t dispatched) {
  assert(now_ == Time::zero() && dispatched_ == 0 && pending() == 0 &&
         "restore_clock needs a virgin scheduler");
  now_ = now;
  last_seq_ = 0;
  next_seq_ = next_seq;
  dispatched_ = dispatched;
}

void Scheduler::cancel(EventId id) {
  const std::uint32_t idx = pending_slot_of(id);
  if (idx == kNullPos) return;
  heap_erase(pos_[idx]);
  release_slot(idx);
}

bool Scheduler::pop_next(std::int64_t bound_ns, Time& t, EventCallback& cb) {
  if (heap_.empty()) return false;
  const HeapEntry top = heap_.front();
  if (top.t_ns > bound_ns) return false;
  const std::uint32_t idx = top.slot();
  t = Time::nanoseconds(top.t_ns);
  last_seq_ = top.key >> kSlotBits;
  cb = std::move(slots_[idx].cb);
  // Refill the root from the heap's last leaf and sink it (no parent check
  // needed at the root).
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    place(last, 0);
    sift_down(0);
  }
  release_slot(idx);
  return true;
}

void Scheduler::dispatch(Time t, EventCallback& cb) {
  assert(t >= now_);
  now_ = t;
  ++dispatched_;
  if (auto* tr = obs::tracer(); tr != nullptr) [[unlikely]] {
    if ((dispatched_ & tr->sched_sample_mask()) == 0) {
      tr->sched_sample(now_, pending(), dispatched_);
    }
  }
  cb();
}

void Scheduler::run() {
  TlsSchedulerScope scope{this};
  stopped_ = false;
  Time t;
  EventCallback cb;
  while (!stopped_ && pop_next(std::numeric_limits<std::int64_t>::max(), t, cb)) {
    dispatch(t, cb);
  }
}

void Scheduler::run_until(Time t) {
  TlsSchedulerScope scope{this};
  stopped_ = false;
  Time et;
  EventCallback cb;
  while (!stopped_ && pop_next(t.ns(), et, cb)) {
    dispatch(et, cb);
  }
  // Advance the clock to the horizon only on a quiet completion; a stop()
  // freezes time at the last dispatched event (so measurement windows stay
  // tight).
  if (!stopped_ && now_ <= t) {
    now_ = t;
    // Everything up to and including `t` has run: every key at `t` handed
    // out so far has passed.
    last_seq_ = next_seq_ - 1;
  }
}

void Scheduler::run_before(Time bound) {
  TlsSchedulerScope scope{this};
  stopped_ = false;
  Time et;
  EventCallback cb;
  // pop_next's bound is inclusive; the epoch boundary itself is excluded.
  while (!stopped_ && pop_next(bound.ns() - 1, et, cb)) {
    dispatch(et, cb);
  }
}

bool Scheduler::step_one() {
  TlsSchedulerScope scope{this};
  Time t;
  EventCallback cb;
  if (!pop_next(std::numeric_limits<std::int64_t>::max(), t, cb)) return false;
  dispatch(t, cb);
  return true;
}

Time Scheduler::next_time() const {
  return heap_.empty() ? Time::infinity() : Time::nanoseconds(heap_.front().t_ns);
}

}  // namespace xmp::sim
