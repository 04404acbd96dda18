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
      remote_in_flight_{pool_or_own(pool, own_pool_)},
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
  if (!transmitting()) {
    start_transmission();
  } else if (tx_ev_ == sim::kInvalidEventId && queue_->len_packets() > 0) {
    arm_tx();  // a packet now waits for the transmitter
  }
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

  const sim::Time tx = sim::transmission_time(p.size_bytes, effective_rate_bps_);
  // A fluid share stretches the serialization; the stretch is the fluid
  // load's time, which the hybrid engine credits through set_fluid_busy().
  busy_ += fluid_share_ > 0.0 ? sim::Time::seconds(tx.sec() * (1.0 - fluid_share_)) : tx;
  bytes_sent_ += p.size_bytes;
  const std::int64_t deliver_t_ns = (sched_.now() + tx + prop_delay_).ns();

  if (remote_ != nullptr) {
    // Shard-boundary link: hand the packet to the cross-shard channel; the
    // barrier drain schedules its delivery on the destination shard. The
    // src-owned mirror keeps conservation accounting (set_down,
    // live_in_flight) working without touching destination-shard state.
    while (!remote_in_flight_.empty() &&
           remote_in_flight_.front().deliver_t_ns + remote_->min_delay_ns() <
               sched_.now().ns()) {
      remote_in_flight_.pop_front();  // certainly delivered (see header)
    }
    remote_in_flight_.push_back(RemoteInFlight{deliver_t_ns, epoch_, p.corrupt});
    remote_->push(RemotePacket{this, std::move(p), deliver_t_ns, epoch_});
  } else {
    // Deliver to the sink after serialization + propagation. The packet
    // rides in the in-flight FIFO, so the event captures only `this`.
    in_flight_.push_back(InFlight{std::move(p), deliver_t_ns, sched_.reserve_seq()});
    if (in_flight_.size() == 1) arm_head();
  }
  // Transmitter frees up after serialization only. The completion needs an
  // event only if a packet is waiting by then (enqueue_for_tx arms it late).
  tx_end_ = sched_.now() + tx;
  tx_seq_ = sched_.reserve_seq();
  if (queue_->len_packets() > 0) arm_tx();
}

void Link::arm_tx() {
  tx_ev_ = sched_.arm_at(tx_end_, tx_seq_, [this] { complete_tx(); });
}

void Link::complete_tx() {
  tx_ev_ = sim::kInvalidEventId;
  start_transmission();
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
    // Boundary mode: faults apply at barriers, where every event with
    // t < now has run, so mirror entries with deliver_t < now were
    // delivered and the rest are lost in flight. Their parked deliveries
    // are dropped here and still-channelled ones at the drain (stale
    // epoch), without double counting.
    while (!remote_in_flight_.empty() && remote_in_flight_.front().deliver_t_ns < sched_.now().ns()) {
      remote_in_flight_.pop_front();
    }
    for (const RemoteInFlight& f : remote_in_flight_) {
      if (f.epoch == epoch_) ++(f.corrupt ? drops_.corrupt : drops_.admin_down);
    }
    remote_arrivals_.clear();
    if (remote_sched_ != nullptr) remote_sched_->cancel(remote_head_ev_);
    ++epoch_;  // invalidates cross-shard packets still in the channel
    // The transmitter is idle at once (a reopened link restarts now).
    sched_.cancel(tx_ev_);
    tx_ev_ = sim::kInvalidEventId;
    tx_end_ = sim::Time::zero();
    tx_seq_ = 0;
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
  bool busy = transmitting();
  io.b(busy);
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
  if (io.loading()) recompute_effective_rate();
  queue_->checkpoint(io);

  // Hold buffer: each parked packet re-arms its release event on restore.
  io.seq(held_, [&](Held& h) {
    if (io.loading()) h.id = next_held_id_++;
    io.event(sched_, h.ev, [this, id = h.id] { release_held(id); });
    io.b(h.duplicate);
    net::checkpoint(io, h.pkt);
  });

  // In-flight FIFOs: keys must be re-armable and deliveries in time order.
  // Entries from before the link last went down (older snapshots kept
  // them) were already counted as lost and are dropped.
  auto fifo = [&](Fifo<InFlight>& q, const sim::Scheduler* on) {
    std::uint64_t n = q.size();
    io.u64(n);
    if (n > 0 && on == nullptr) return io.fail();
    // Whether the entry belongs to the current epoch.
    auto entry = [&](InFlight& f) {
      core::ckpt::EventKey k{f.t_ns, f.seq};
      std::uint64_t epoch = epoch_;
      io.key(*on, k);
      io.u64(epoch);
      net::checkpoint(io, f.pkt);
      f.t_ns = k.t_ns;
      f.seq = k.seq;
      return epoch == epoch_;
    };
    if (io.saving()) {
      for (InFlight f : q) entry(f);
      return;
    }
    for (std::uint64_t i = 0; i < n && io.ok(); ++i) {
      InFlight f{};
      if (!entry(f)) continue;
      if (!q.empty() && f.t_ns < q.back().t_ns) return io.fail();
      q.push_back(std::move(f));
    }
  };
  // Boundary links never use the local FIFO; remote arrivals need the
  // destination shard's engine.
  fifo(in_flight_, remote_ == nullptr ? &sched_ : nullptr);
  if (!io.ok()) return;

  // Only a completion that has not passed is state; an armed one is
  // re-armed on restore iff a packet is still waiting.
  std::uint64_t n_tx = busy ? 1 : 0;
  io.u64(n_tx);
  bool live_tx = false;
  for (std::uint64_t i = 0; i < n_tx && io.ok(); ++i) {
    core::ckpt::EventKey k{tx_end_.ns(), tx_seq_};
    std::uint64_t epoch = epoch_;
    io.key(sched_, k);
    io.u64(epoch);
    if (epoch != epoch_) continue;  // stale completion (older snapshots)
    if (live_tx) return io.fail();
    live_tx = true;
    tx_end_ = sim::Time::nanoseconds(k.t_ns);
    tx_seq_ = k.seq;
  }
  if (busy != live_tx) return io.fail();

  std::uint64_t n_remote = remote_in_flight_.size();
  io.u64(n_remote);
  auto mirror = [&](RemoteInFlight& f) {
    io.i64(f.deliver_t_ns);
    io.u64(f.epoch);
    io.b(f.corrupt);
  };
  if (io.saving()) {
    for (RemoteInFlight f : remote_in_flight_) mirror(f);
  } else {
    for (std::uint64_t i = 0; i < n_remote && io.ok(); ++i) {
      RemoteInFlight f{};
      mirror(f);
      remote_in_flight_.push_back(std::move(f));
    }
  }

  fifo(remote_arrivals_, remote_sched_);
  if (!io.ok() || io.saving()) return;

  if (!in_flight_.empty()) arm_head();
  if (!remote_arrivals_.empty()) arm_remote_head();
  if (live_tx && queue_->len_packets() > 0) arm_tx();
}

std::size_t Link::live_in_flight() const {
  std::size_t n = in_flight_.size();
  // Boundary mode (probed only at quiesced instants, where everything with
  // t <= now has been dispatched): mirror entries still ahead of the clock
  // are on the wire.
  for (const RemoteInFlight& f : remote_in_flight_) {
    if (f.epoch == epoch_ && f.deliver_t_ns > sched_.now().ns()) ++n;
  }
  return n;
}

}  // namespace xmp::net
