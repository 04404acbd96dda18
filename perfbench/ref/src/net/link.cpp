#include "net/link.hpp"

#include <cassert>

#include "net/handoff.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"

namespace xmp::net {

namespace {

// One call per drop; the TLS gate keeps the disabled cost to two loads.
void note_drop(sim::Time t, LinkId link, obs::DropCause cause) {
  if (auto* tr = obs::tracer(); tr != nullptr) [[unlikely]] tr->drop(t, link, cause);
  if (auto* m = obs::metrics(); m != nullptr) [[unlikely]] m->packets_dropped.inc();
}

// One call per gray impairment applied (delay/reorder/duplicate/overmark).
void note_impair(sim::Time t, LinkId link, obs::ImpairKind kind) {
  if (auto* tr = obs::tracer(); tr != nullptr) [[unlikely]] tr->impair(t, link, kind);
  if (auto* m = obs::metrics(); m != nullptr) [[unlikely]] m->packets_impaired.inc();
}

}  // namespace

Link::Link(sim::Scheduler& sched, LinkId id, std::int64_t rate_bps, sim::Time prop_delay,
           std::unique_ptr<Queue> queue, PacketSink& sink)
    : sched_{sched},
      id_{id},
      rate_bps_{rate_bps},
      effective_rate_bps_{rate_bps},
      prop_delay_{prop_delay},
      queue_{std::move(queue)},
      sink_{sink} {
  assert(rate_bps_ > 0);
  assert(queue_ != nullptr);
  queue_->set_owner(id_);  // label this queue's trace events with the link id
}

void Link::send(Packet p) {
  ++offered_;
  if (down_) {  // administratively closed
    ++drops_.admin_down;
    note_drop(sched_.now(), id_, obs::DropCause::AdminDown);
    return;
  }
  bool dup = false;
  if (fault_hook_ != nullptr) {
    const FaultVerdict v = fault_hook_->on_send(p);
    switch (v.action) {
      case FaultAction::Pass:
        break;
      case FaultAction::Drop:
        ++drops_.fault;
        note_drop(sched_.now(), id_, obs::DropCause::Fault);
        return;
      case FaultAction::Corrupt:
        p.corrupt = true;  // rides the wire, discarded at the sink end
        break;
    }
    if (v.overmark && p.ecn == Ecn::Ect) {
      p.ecn = Ecn::Ce;  // the dual of a blackhole: CE without congestion
      ++overmarked_;
      note_impair(sched_.now(), id_, obs::ImpairKind::Overmark);
    }
    dup = v.duplicate;
    if (dup) note_impair(sched_.now(), id_, obs::ImpairKind::Duplicate);
    if (v.delay > sim::Time::zero()) {
      // Park the packet (and a pending clone) at entry; release re-enters
      // the enqueue path below, so everything downstream — egress queue,
      // in-flight FIFO, boundary handoff — sees a perfectly ordinary send.
      ++delayed_;
      note_impair(sched_.now(), id_, v.reorder ? obs::ImpairKind::Reorder : obs::ImpairKind::Delay);
      const std::uint64_t id = next_held_id_++;
      const sim::EventId ev =
          sched_.schedule_in(v.delay, [this, id] { release_held(id); });
      held_.push_back(Held{id, dup, std::move(p), ev});
      return;
    }
  }
  enqueue_for_tx(std::move(p), dup);
}

void Link::enqueue_for_tx(Packet&& p, bool dup) {
  Packet clone;
  if (dup) clone = p;  // copy before the move below
  if (!queue_->enqueue(std::move(p), sched_.now())) {  // tail drop
    ++drops_.queue;
    note_drop(sched_.now(), id_, obs::DropCause::Queue);
  }
  if (dup) {
    // The clone is an extra packet the link manufactured: it enters the
    // conservation law on the offered side (duplicated_), then lives and
    // dies exactly like any other packet.
    ++duplicated_;
    if (!queue_->enqueue(std::move(clone), sched_.now())) {
      ++drops_.queue;
      note_drop(sched_.now(), id_, obs::DropCause::Queue);
    }
  }
  if (!transmitting_) start_transmission();
}

void Link::release_held(std::uint64_t id) {
  for (auto it = held_.begin(); it != held_.end(); ++it) {
    if (it->id == id) {
      Held h = std::move(*it);
      held_.erase(it);
      enqueue_for_tx(std::move(h.pkt), h.duplicate);
      return;
    }
  }
  assert(!"release for a hold entry that no longer exists");
}

void Link::start_transmission() {
  Packet p;
  if (!queue_->dequeue(p, sched_.now())) return;
  transmitting_ = true;

  const sim::Time tx = sim::transmission_time(p.size_bytes, effective_rate_bps_);
  busy_ += tx;
  bytes_sent_ += p.size_bytes;

  if (remote_ != nullptr) {
    // Shard-boundary link: hand the packet to the cross-shard channel; the
    // barrier drain schedules its delivery on the destination shard. The
    // src-owned mirror keeps conservation accounting (set_down,
    // live_in_flight) working without touching destination-shard state.
    const std::int64_t deliver_t_ns = (sched_.now() + tx + prop_delay_).ns();
    while (!remote_in_flight_.empty() &&
           remote_in_flight_.front().deliver_t_ns + remote_->min_delay_ns() <
               sched_.now().ns()) {
      remote_in_flight_.pop_front();  // certainly delivered (see header)
    }
    remote_in_flight_.push_back(RemoteInFlight{deliver_t_ns, epoch_, p.corrupt});
    remote_->push(RemotePacket{this, std::move(p), deliver_t_ns, epoch_});
    tx_events_.push_back(
        TxDone{sched_.schedule_in(tx, [this, e = epoch_] { complete_tx(e); }), epoch_});
    return;
  }

  // Deliver to the sink after serialization + propagation. The packet rides
  // in the in-flight FIFO, so the event captures only `this`.
  in_flight_.push_back(InFlight{std::move(p), epoch_});
  delivery_events_.push_back(sched_.schedule_in(tx + prop_delay_, [this] { deliver_head(); }));
  // Transmitter frees up after serialization only; a stale completion from
  // before a set_down() must not restart the (possibly reopened) link.
  tx_events_.push_back(
      TxDone{sched_.schedule_in(tx, [this, e = epoch_] { complete_tx(e); }), epoch_});
}

void Link::complete_tx(std::uint64_t epoch) {
  // Retire the checkpoint-tracking entry for this event (unique per epoch:
  // within one epoch at most one transmit-complete is ever pending).
  for (auto it = tx_events_.begin(); it != tx_events_.end(); ++it) {
    if (it->epoch == epoch) {
      tx_events_.erase(it);
      break;
    }
  }
  if (epoch == epoch_) on_transmit_complete();
}

void Link::remote_deliver_head() {
  assert(!remote_arrivals_.empty());
  if (!remote_delivery_events_.empty()) remote_delivery_events_.pop_front();
  RemoteArrival head = std::move(remote_arrivals_.front());
  remote_arrivals_.pop_front();
  if (head.epoch != epoch_) return;  // lost to set_down; counted there
  // Running on the destination shard's engine: its clock, not sched_'s
  // (the source shard's), is the delivery time.
  const sim::Time now = sim::current_scheduler()->now();
  if (head.pkt.corrupt) {
    ++drops_.corrupt;  // failed checksum at the receiving end
    note_drop(now, id_, obs::DropCause::Corrupt);
    return;
  }
  ++delivered_;
  if (auto* m = obs::metrics(); m != nullptr) [[unlikely]] m->packets_delivered.inc();
  sink_.receive(std::move(head.pkt));
}

void Link::deliver_head() {
  assert(!in_flight_.empty());
  assert(!delivery_events_.empty());
  delivery_events_.pop_front();  // this event; stale-epoch entries pop too
  InFlight head = std::move(in_flight_.front());
  in_flight_.pop_front();
  if (head.epoch != epoch_) return;  // lost to set_down; counted there
  if (head.pkt.corrupt) {
    ++drops_.corrupt;  // failed checksum at the receiving end
    note_drop(sched_.now(), id_, obs::DropCause::Corrupt);
    return;
  }
  ++delivered_;
  if (auto* m = obs::metrics(); m != nullptr) [[unlikely]] m->packets_delivered.inc();
  sink_.receive(std::move(head.pkt));
}

void Link::on_transmit_complete() {
  transmitting_ = false;
  if (queue_->len_packets() > 0) start_transmission();
}

void Link::set_down(bool down) {
  if (down == down_) return;
  down_ = down;
  if (auto* tr = obs::tracer(); tr != nullptr) [[unlikely]] {
    tr->link_state(sched_.now(), id_, down_);
  }
  if (down_) {
    // Everything currently propagating with the live epoch is lost; count
    // it now so conservation holds at any probe instant (the stale pops in
    // deliver_head must not count again). Attribution is deterministic: a
    // packet already corrupted by a fault dies as `corrupt` wherever it is
    // when the link closes; only clean packets become admin_down.
    for (const InFlight& f : in_flight_) {
      if (f.epoch == epoch_) ++(f.pkt.corrupt ? drops_.corrupt : drops_.admin_down);
    }
    // Boundary mode: faults apply at barriers, where every event with
    // t < now has run, so mirror entries with deliver_t < now were
    // delivered and the rest are lost in flight. Their parked/scheduled
    // deliveries discard on the stale epoch without double counting.
    while (!remote_in_flight_.empty() && remote_in_flight_.front().deliver_t_ns < sched_.now().ns()) {
      remote_in_flight_.pop_front();
    }
    for (const RemoteInFlight& f : remote_in_flight_) {
      if (f.epoch == epoch_) ++(f.corrupt ? drops_.corrupt : drops_.admin_down);
    }
    ++epoch_;  // cancels in-flight deliveries and the pending tx-complete
    transmitting_ = false;
    Packet discard;
    while (queue_->dequeue(discard, sched_.now())) {
      ++(discard.corrupt ? drops_.corrupt : drops_.admin_down);  // flushed on closure
    }
    // The hold buffer drains the same way; pending clones were never
    // materialized, so they owe the conservation law nothing.
    for (const Held& h : held_) {
      sched_.cancel(h.ev);
      ++(h.pkt.corrupt ? drops_.corrupt : drops_.admin_down);
    }
    held_.clear();
  }
  for (StateListener* l : state_listeners_) l->on_link_state(*this, down_);
}

void Link::save_state(core::ckpt::Saver& s, sim::Scheduler* remote_sched) const {
  s.b(transmitting_);
  s.b(down_);
  s.u64(bytes_sent_);
  s.time(busy_);
  s.u64(epoch_);
  s.u64(offered_);
  s.u64(delivered_);
  s.u64(drops_.queue);
  s.u64(drops_.admin_down);
  s.u64(drops_.fault);
  s.u64(drops_.corrupt);
  s.u64(duplicated_);
  s.u64(delayed_);
  s.u64(overmarked_);
  s.f64(degrade_);
  queue_->save_state(s);

  // Hold buffer: each parked packet re-arms its release event on restore.
  s.u64(held_.size());
  for (const Held& h : held_) {
    sim::Scheduler::PendingKey k;
    [[maybe_unused]] const bool live = sched_.key_of(h.ev, k);
    assert(live && "hold release event lost");
    s.i64(k.t_ns);
    s.u64(k.seq);
    s.b(h.duplicate);
    save_packet(s, h.pkt);
  }

  assert(in_flight_.size() == delivery_events_.size());
  s.u64(in_flight_.size());
  for (std::size_t i = 0; i < in_flight_.size(); ++i) {
    sim::Scheduler::PendingKey k;
    [[maybe_unused]] const bool live = sched_.key_of(delivery_events_[i], k);
    assert(live && "delivery event lost");
    s.i64(k.t_ns);
    s.u64(k.seq);
    s.u64(in_flight_[i].epoch);
    save_packet(s, in_flight_[i].pkt);
  }

  s.u64(tx_events_.size());
  for (const TxDone& e : tx_events_) {
    sim::Scheduler::PendingKey k;
    [[maybe_unused]] const bool live = sched_.key_of(e.id, k);
    assert(live && "tx-complete event lost");
    s.i64(k.t_ns);
    s.u64(k.seq);
    s.u64(e.epoch);
  }

  s.u64(remote_in_flight_.size());
  for (const RemoteInFlight& f : remote_in_flight_) {
    s.i64(f.deliver_t_ns);
    s.u64(f.epoch);
    s.b(f.corrupt);
  }

  assert(remote_arrivals_.size() == remote_delivery_events_.size());
  s.u64(remote_arrivals_.size());
  for (std::size_t i = 0; i < remote_arrivals_.size(); ++i) {
    assert(remote_sched != nullptr && "boundary link needs its destination scheduler");
    sim::Scheduler::PendingKey k;
    [[maybe_unused]] const bool live = remote_sched->key_of(remote_delivery_events_[i], k);
    assert(live && "remote delivery event lost");
    s.i64(k.t_ns);
    s.u64(k.seq);
    s.u64(remote_arrivals_[i].epoch);
    save_packet(s, remote_arrivals_[i].pkt);
  }
}

void Link::restore_state(core::ckpt::Loader& l, sim::Scheduler* remote_sched) {
  transmitting_ = l.b();
  down_ = l.b();  // listeners are NOT notified: their state restores separately
  bytes_sent_ = l.u64();
  busy_ = l.time();
  epoch_ = l.u64();
  offered_ = l.u64();
  delivered_ = l.u64();
  drops_.queue = l.u64();
  drops_.admin_down = l.u64();
  drops_.fault = l.u64();
  drops_.corrupt = l.u64();
  duplicated_ = l.u64();
  delayed_ = l.u64();
  overmarked_ = l.u64();
  degrade_ = l.f64();
  recompute_effective_rate();
  queue_->restore_state(l);

  const std::uint64_t n_held = l.u64();
  for (std::uint64_t i = 0; i < n_held && l.ok(); ++i) {
    const std::int64_t t_ns = l.i64();
    const std::uint64_t seq = l.u64();
    const bool dup = l.b();
    const std::uint64_t id = next_held_id_++;
    const sim::EventId ev =
        sched_.restore_at(sim::Time::nanoseconds(t_ns), seq, [this, id] { release_held(id); });
    held_.push_back(Held{id, dup, load_packet(l), ev});
  }

  const std::uint64_t n_flight = l.u64();
  for (std::uint64_t i = 0; i < n_flight && l.ok(); ++i) {
    const std::int64_t t_ns = l.i64();
    const std::uint64_t seq = l.u64();
    const std::uint64_t epoch = l.u64();
    in_flight_.push_back(InFlight{load_packet(l), epoch});
    delivery_events_.push_back(
        sched_.restore_at(sim::Time::nanoseconds(t_ns), seq, [this] { deliver_head(); }));
  }

  const std::uint64_t n_tx = l.u64();
  for (std::uint64_t i = 0; i < n_tx && l.ok(); ++i) {
    const std::int64_t t_ns = l.i64();
    const std::uint64_t seq = l.u64();
    const std::uint64_t epoch = l.u64();
    tx_events_.push_back(TxDone{
        sched_.restore_at(sim::Time::nanoseconds(t_ns), seq, [this, epoch] { complete_tx(epoch); }),
        epoch});
  }

  const std::uint64_t n_remote = l.u64();
  for (std::uint64_t i = 0; i < n_remote && l.ok(); ++i) {
    const std::int64_t t_ns = l.i64();
    const std::uint64_t epoch = l.u64();
    const bool corrupt = l.b();
    remote_in_flight_.push_back(RemoteInFlight{t_ns, epoch, corrupt});
  }

  const std::uint64_t n_arrivals = l.u64();
  for (std::uint64_t i = 0; i < n_arrivals && l.ok(); ++i) {
    const std::int64_t t_ns = l.i64();
    const std::uint64_t seq = l.u64();
    const std::uint64_t epoch = l.u64();
    remote_arrivals_.push_back(RemoteArrival{load_packet(l), epoch});
    assert(remote_sched != nullptr && "boundary link needs its destination scheduler");
    remote_delivery_events_.push_back(remote_sched->restore_at(
        sim::Time::nanoseconds(t_ns), seq, [this] { remote_deliver_head(); }));
  }
}

std::size_t Link::live_in_flight() const {
  std::size_t n = 0;
  for (const InFlight& f : in_flight_) {
    if (f.epoch == epoch_) ++n;
  }
  // Boundary mode (probed only at quiesced instants, where everything with
  // t <= now has been dispatched): mirror entries still ahead of the clock
  // are on the wire.
  for (const RemoteInFlight& f : remote_in_flight_) {
    if (f.epoch == epoch_ && f.deliver_t_ns > sched_.now().ns()) ++n;
  }
  return n;
}

}  // namespace xmp::net
