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
           std::unique_ptr<Queue> queue, PacketSink& sink, FifoPool* pool)
    : sched_{sched},
      id_{id},
      rate_bps_{rate_bps},
      effective_rate_bps_{rate_bps},
      prop_delay_{prop_delay},
      queue_{std::move(queue)},
      sink_{sink},
      in_flight_{pool_or_own(pool, own_pool_)},
      remote_arrivals_{pool_or_own(pool, own_pool_)} {
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
  const sim::Time now = sched_.now();
  // Departures due by now leave first, so ECN marking and tail drops see
  // exactly the packets still waiting.
  settle();
  // tx_end_ lies ahead while anything waits. Otherwise an idle
  // transmitter (tx_end_ behind the clock) takes the packet at once.
  if (tx_end_ < now) tx_end_ = now;
  Packet clone;
  if (dup) clone = p;  // copy before the move below
  if (!queue_->enqueue(std::move(p), now)) {  // tail drop
    ++drops_.queue;
    note_drop(now, id_, obs::DropCause::Queue);
  }
  if (dup) {
    // The clone is an extra packet the link manufactured: it enters the
    // conservation law on the offered side (duplicated_), then lives and
    // dies exactly like any other packet.
    ++duplicated_;
    if (!queue_->enqueue(std::move(clone), now)) {
      ++drops_.queue;
      note_drop(now, id_, obs::DropCause::Queue);
    }
  }
  settle();  // an idle transmitter starts the head now
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

void Link::start_next() {
  const sim::Time start = tx_end_;
  Packet p;
  (void)queue_->dequeue(p, start);
  // The rate in force at the start: every rate change settles first.
  const sim::Time tx = sim::transmission_time(p.size_bytes, effective_rate_bps_);
  busy_ += packet_busy(tx);
  bytes_sent_ += p.size_bytes;
  tx_end_ = start + tx;
  const std::int64_t deliver_t_ns = (tx_end_ + prop_delay_).ns();

  if (remote_ != nullptr) {
    // Shard-boundary link: hand the packet to the cross-shard channel; the
    // barrier drain schedules its delivery on the destination shard.
    ++remote_handed_;
    remote_->push(RemotePacket{this, std::move(p), deliver_t_ns, epoch_});
  } else {
    // Deliver to the sink after serialization + propagation. The packet
    // rides in the in-flight FIFO, so the event captures only `this`. Its
    // key is reserved now, when the start is triggered; the delivery is
    // never earlier than the trigger (the predecessor's delivery, at
    // start + prop, is one).
    in_flight_.push_back(InFlight{std::move(p), deliver_t_ns, sched_.reserve_seq()});
    if (in_flight_.size() == 1) arm_head();
  }
}

Link::Due Link::due(sim::Time t) const {
  Due d;
  sim::Time start = tx_end_;
  for (const Packet& p : queue_->packets()) {
    if (start > t) break;
    const sim::Time tx = sim::transmission_time(p.size_bytes, effective_rate_bps_);
    ++d.packets;
    d.bytes += p.size_bytes;
    d.busy += packet_busy(tx);
    d.area += static_cast<std::uint64_t>((t - start).ns());
    start += tx;
  }
  return d;
}

double Link::mean_occupancy(sim::Time now) const {
  if (now <= sim::Time::zero()) return 0.0;
  return static_cast<double>(queue_->occupancy_area(now) - due(now).area) /
         static_cast<double>(now.ns());
}

void Link::arm_head() {
  const InFlight& h = in_flight_.front();
  head_ev_ = sched_.arm_at(sim::Time::nanoseconds(h.t_ns), h.seq, [this] { deliver_head(); });
}

void Link::arm_remote_head() {
  const InFlight& h = remote_arrivals_.front();
  remote_head_ev_ = remote_sched_->arm_at(sim::Time::nanoseconds(h.t_ns), h.seq,
                                          [this] { remote_deliver_head(); });
}

void Link::accept_remote_arrival(Packet&& pkt, std::int64_t deliver_t_ns, std::uint64_t epoch) {
  // Reserved even for a discarded packet, so sequence numbers stay exactly
  // those of eagerly scheduled deliveries.
  const std::uint64_t seq = remote_sched_->reserve_seq();
  if (epoch != epoch_) return;  // lost to set_down; counted there
  remote_arrivals_.push_back(InFlight{std::move(pkt), deliver_t_ns, seq});
  if (remote_arrivals_.size() == 1) arm_remote_head();
}

void Link::remote_deliver_head() {
  Packet pkt = std::move(remote_arrivals_.front().pkt);
  remote_arrivals_.pop_front();
  ++remote_landed_;
  if (!remote_arrivals_.empty()) arm_remote_head();
  // Running on the destination shard's engine: its clock, not sched_'s
  // (the source shard's), is the delivery time.
  if (pkt.corrupt) {
    ++drops_.corrupt;  // failed checksum at the receiving end
    note_drop(remote_sched_->now(), id_, obs::DropCause::Corrupt);
    return;
  }
  ++delivered_;
  if (auto* m = obs::metrics(); m != nullptr) [[unlikely]] m->packets_delivered.inc();
  sink_.receive(std::move(pkt));
}

void Link::deliver_head() {
  Packet pkt = std::move(in_flight_.front().pkt);
  in_flight_.pop_front();
  if (!in_flight_.empty()) arm_head();
  settle();  // the successor's start is due by now (prop >= 0)
  if (pkt.corrupt) {
    ++drops_.corrupt;  // failed checksum at the receiving end
    note_drop(sched_.now(), id_, obs::DropCause::Corrupt);
    return;
  }
  ++delivered_;
  if (auto* m = obs::metrics(); m != nullptr) [[unlikely]] m->packets_delivered.inc();
  sink_.receive(std::move(pkt));
}

void Link::set_down(bool down) {
  if (down == down_) return;
  settle();  // transmissions due by now started before the link closed
  down_ = down;
  if (auto* tr = obs::tracer(); tr != nullptr) [[unlikely]] {
    tr->link_state(sched_.now(), id_, down_);
  }
  if (down_) {
    // Everything currently propagating is lost. Attribution is
    // deterministic: a packet already corrupted by a fault dies as
    // `corrupt` wherever it is when the link closes; only clean packets
    // become admin_down.
    for (const InFlight& f : in_flight_) ++(f.pkt.corrupt ? drops_.corrupt : drops_.admin_down);
    in_flight_.clear();
    sched_.cancel(head_ev_);
    // Boundary mode: faults apply at barriers, with every shard quiesced.
    // What is still on the wire is parked at the destination or, not yet
    // drained, in the channel: both are lost. Parked deliveries are dropped
    // here and channelled ones at the drain (stale epoch), without double
    // counting.
    if (remote_ != nullptr) {
      remote_->for_each_parked(this, [this](const RemotePacket& rp) {
        if (rp.link_epoch == epoch_) ++(rp.pkt.corrupt ? drops_.corrupt : drops_.admin_down);
      });
    }
    for (const InFlight& f : remote_arrivals_) {
      ++(f.pkt.corrupt ? drops_.corrupt : drops_.admin_down);
    }
    remote_arrivals_.clear();
    if (remote_sched_ != nullptr) remote_sched_->cancel(remote_head_ev_);
    ++epoch_;  // invalidates cross-shard packets still in the channel
    remote_handed_ = 0;
    remote_landed_ = 0;
    // The transmitter is idle at once (a reopened link restarts now).
    tx_end_ = sim::Time::zero();
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

void Link::checkpoint(core::ckpt::Io& io) {
  io.b(down_);  // listeners are NOT notified: their state restores separately
  io.u64(bytes_sent_);
  io.time(busy_);
  io.u64(epoch_);
  io.u64(offered_);
  io.u64(delivered_);
  io.u64(drops_.queue);
  io.u64(drops_.admin_down);
  io.u64(drops_.fault);
  io.u64(drops_.corrupt);
  io.u64(duplicated_);
  io.u64(delayed_);
  io.u64(overmarked_);
  io.f64(degrade_);
  io.f64(fluid_share_);
  if (io.loading()) recompute_effective_rate();
  io.time(tx_end_);
  queue_->checkpoint(io);

  // Hold buffer: each parked packet re-arms its release event on restore.
  io.seq(held_, [&](Held& h) {
    if (io.loading()) h.id = next_held_id_++;
    io.event(sched_, h.ev, [this, id = h.id] { release_held(id); });
    io.b(h.duplicate);
    net::checkpoint(io, h.pkt);
  });

  // In-flight FIFOs: keys must be re-armable and deliveries in time order.
  // set_down() empties both, so every entry belongs to the current epoch.
  auto fifo = [&](Fifo<InFlight>& q, const sim::Scheduler* on) {
    std::uint64_t n = q.size();
    io.u64(n);
    if (n > 0 && on == nullptr) return io.fail();
    auto entry = [&](InFlight& f) {
      core::ckpt::EventKey k{f.t_ns, f.seq};
      io.key(*on, k);
      net::checkpoint(io, f.pkt);
      f.t_ns = k.t_ns;
      f.seq = k.seq;
    };
    if (io.saving()) {
      for (InFlight f : q) entry(f);
      return;
    }
    for (std::uint64_t i = 0; i < n && io.ok(); ++i) {
      InFlight f{};
      entry(f);
      if (!q.empty() && f.t_ns < q.back().t_ns) return io.fail();
      q.push_back(std::move(f));
    }
  };
  // Boundary links never use the local FIFO; remote arrivals need the
  // destination shard's engine.
  fifo(in_flight_, remote_ == nullptr ? &sched_ : nullptr);

  io.u64(remote_handed_);
  io.u64(remote_landed_);

  fifo(remote_arrivals_, remote_sched_);
  if (!io.ok() || io.saving()) return;

  // A queued packet needs a trigger. On a local link that is the delivery
  // of the transmission ahead of it, at tx_end_ + prop; a boundary link's
  // end-of-epoch sweep started everything due before the snapshot's
  // barrier.
  if (queue_->len_packets() > 0) {
    const bool triggered = remote_ == nullptr
                               ? !in_flight_.empty() && in_flight_.back().t_ns >= tx_end_.ns()
                               : tx_end_ >= sched_.now();
    if (!triggered) return io.fail();
  }
  if (!in_flight_.empty()) arm_head();
  if (!remote_arrivals_.empty()) arm_remote_head();
}

std::size_t Link::live_in_flight() const {
  // Boundary mode (probed only at quiesced instants): handed off and not
  // yet at the sink end, whichever side of the barrier a delivery at
  // exactly now falls on.
  return in_flight_.size() + due().packets + (remote_handed_ - remote_landed_);
}

}  // namespace xmp::net
