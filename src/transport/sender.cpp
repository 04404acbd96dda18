#include "transport/sender.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"

namespace xmp::transport {

TcpSender::TcpSender(sim::Scheduler& sched, net::Host& local, net::NodeId remote,
                     net::FlowId flow, std::uint16_t subflow, std::uint16_t path_tag,
                     SegmentSource& source, std::unique_ptr<CongestionControl> cc,
                     const SenderConfig& cfg)
    : sched_{sched},
      local_{local},
      remote_{remote},
      flow_{flow},
      subflow_{subflow},
      path_tag_{path_tag},
      source_{source},
      cc_{std::move(cc)},
      cfg_{cfg},
      cwnd_{cfg.initial_cwnd} {
  assert(cc_ != nullptr);
}

TcpSender::~TcpSender() {
  cancel_rto();
  if (started_) local_.unregister_endpoint(flow_, subflow_, net::PacketType::Ack);
}

void TcpSender::start() {
  if (started_) return;
  started_ = true;
  local_.register_endpoint(flow_, subflow_, net::PacketType::Ack, *this);
  cc_->on_start(*this);
  pump();
}

void TcpSender::set_cwnd(double w) {
  cwnd_ = std::max(w, cfg_.min_cwnd);
  if (auto* tr = obs::tracer(); tr != nullptr) [[unlikely]] {
    tr->cwnd(sched_.now(), flow_, static_cast<std::uint8_t>(subflow_), cwnd_);
  }
}

double TcpSender::instant_rate() const {
  if (srtt_ <= sim::Time::zero()) return 0.0;
  return cwnd_ / srtt_.sec();
}

std::int64_t TcpSender::effective_window() const {
  // Fast-recovery window inflation keeps the ack clock ticking (RFC 5681);
  // before recovery, Limited Transmit (RFC 3042) lets the first two
  // duplicate acks clock out new segments so small windows can still
  // gather the three dupacks needed for fast retransmit.
  const auto base = static_cast<std::int64_t>(cwnd_);
  if (in_recovery_) return base + dupacks_;
  return base + std::min<std::int64_t>(dupacks_, 2);
}

void TcpSender::halt() {
  halted_ = true;
  cancel_rto();
}

void TcpSender::rehome(std::uint16_t new_tag) {
  if (halted_) return;
  path_tag_ = new_tag;
  // The old estimator described the dead path; keep nothing. A zero srtt
  // also drops this subflow out of the coupling aggregates until the new
  // path produces a genuine sample.
  srtt_ = sim::Time::zero();
  rttvar_ = sim::Time::zero();
  rto_backoff_ = 0;
  dupacks_ = 0;
  in_recovery_ = false;
  if (!started_) return;
  if (inflight() > 0) {
    // Everything outstanding was addressed to the dead path; go-back-N it
    // onto the new one, head first.
    transmit_segment(snd_una_, /*retransmit=*/true);
    gbn_next_ = snd_una_ + 1;
    gbn_high_ = snd_nxt_;
    // The lazy RTO timer only ever pushes deadlines forward; resetting the
    // backoff shortens the deadline, so force a genuine re-arm.
    cancel_rto();
    arm_rto();
  } else {
    cancel_rto();
  }
  pump();
}

void TcpSender::pump() {
  if (!started_ || halted_) return;
  // Phase 1: go-back-N retransmissions after a timeout. The "pipe" during
  // this phase is what we have re-sent beyond the cumulative ack.
  while (gbn_next_ < gbn_high_ && gbn_next_ - snd_una_ < effective_window()) {
    transmit_segment(gbn_next_, /*retransmit=*/true);
    ++gbn_next_;
  }
  // Phase 2: new data.
  while (gbn_next_ >= gbn_high_ && inflight() < effective_window()) {
    if (source_.request_segments(1) == 0) break;
    transmit_segment(snd_nxt_, /*retransmit=*/false);
    ++snd_nxt_;
  }
  if (inflight() > 0 && rto_timer_ == sim::kInvalidEventId) arm_rto();
}

void TcpSender::transmit_segment(std::int64_t seq, bool retransmit) {
  net::Packet p;
  p.flow = flow_;
  p.subflow = subflow_;
  p.path_tag = path_tag_;
  p.type = net::PacketType::Data;
  p.ecn = cfg_.ecn_capable ? net::Ecn::Ect : net::Ecn::NotEct;
  p.src = local_.id();
  p.dst = remote_;
  p.size_bytes = net::kDataPacketBytes;
  p.seq = seq;
  p.retransmit = retransmit;
  if (cwr_pending_ && !retransmit) {
    p.cwr = true;
    cwr_pending_ = false;
  }
  // Karn's rule: never take RTT samples from retransmissions.
  p.ts = retransmit ? sim::Time::zero() : sched_.now();
  ++segments_sent_;
  if (retransmit) {
    ++retransmissions_;
    if (auto* m = obs::metrics(); m != nullptr) [[unlikely]] m->retransmissions.inc();
  }
  local_.send(std::move(p));
}

void TcpSender::handle(net::Packet p) {
  assert(p.type == net::PacketType::Ack);
  if (halted_) return;  // dead subflow: late acks are noise
  if (p.ack > snd_una_) {
    on_new_ack(p);
  } else if (inflight() > 0) {
    on_dup_ack(p);
  }
  pump();
}

void TcpSender::on_new_ack(const net::Packet& p) {
  AckEvent ev;
  ev.newly_acked = p.ack - snd_una_;
  ev.ece = p.ece;
  ev.ce_count = p.ce_echo;
  if (p.ts > sim::Time::zero()) {
    ev.rtt_valid = true;
    ev.rtt = sched_.now() - p.ts;
    update_rtt(ev.rtt);
  }

  snd_una_ = p.ack;
  dupacks_ = 0;
  rto_backoff_ = 0;
  // Segments below the cumulative ack need no go-back-N retransmission.
  if (gbn_next_ < snd_una_) gbn_next_ = snd_una_;

  if (in_recovery_) {
    if (snd_una_ >= recover_) {
      in_recovery_ = false;  // full ack: recovery complete
    } else {
      // NewReno partial ack: the next hole is lost too — retransmit it and
      // stay in recovery.
      transmit_segment(snd_una_, /*retransmit=*/true);
    }
  }

  // Round bookkeeping (paper Fig. 2): a round ends when the cumulative ack
  // passes beg_seq; beg_seq is then re-armed at the current snd_nxt.
  if (snd_una_ > beg_seq_) {
    cc_->on_round_end(*this);
    beg_seq_ = snd_nxt_;
  }

  cc_->on_ack(*this, ev);
  if (ev.ece || ev.ce_count > 0) {
    ++ce_echoes_;
    cc_->on_congestion_signal(*this, ev);
  }

  source_.on_delivered(ev.newly_acked);
  if (observer_ != nullptr) observer_->on_sender_delivered(*this, ev.newly_acked);

  if (inflight() > 0) {
    arm_rto();  // restart on forward progress
  } else {
    cancel_rto();
  }
}

void TcpSender::on_dup_ack(const net::Packet& p) {
  ++dupacks_;
  // Congestion feedback riding on duplicate acks still counts (the marked
  // packet may be the out-of-order one that triggered the dupack).
  if (p.ece || p.ce_echo > 0) {
    AckEvent ev;
    ev.dupack = true;
    ev.ece = p.ece;
    ev.ce_count = p.ce_echo;
    ++ce_echoes_;
    cc_->on_congestion_signal(*this, ev);
  }
  if (!in_recovery_ && dupacks_ >= 3) enter_fast_recovery();
}

void TcpSender::enter_fast_recovery() {
  in_recovery_ = true;
  recover_ = snd_nxt_;
  ++fast_retransmits_;
  cc_->on_loss(*this, /*timeout=*/false);
  transmit_segment(snd_una_, /*retransmit=*/true);
  arm_rto();
}

void TcpSender::on_rto() {
  rto_timer_ = sim::kInvalidEventId;
  if (inflight() == 0) return;
  // Lazy timer: forward progress only pushed `rto_deadline_` instead of
  // rescheduling the event. If the real deadline is still ahead, re-arm.
  if (rto_deadline_ > sched_.now()) {
    rto_timer_ = sched_.schedule_at(rto_deadline_, [this] { on_rto(); });
    return;
  }
  ++timeouts_;
  ++rto_backoff_;
  if (auto* tr = obs::tracer(); tr != nullptr) [[unlikely]] {
    tr->rto(sched_.now(), flow_, static_cast<std::uint8_t>(subflow_), rto_backoff_);
  }
  if (auto* m = obs::metrics(); m != nullptr) [[unlikely]] m->timeouts.inc();
  dupacks_ = 0;
  in_recovery_ = false;
  cc_->on_loss(*this, /*timeout=*/true);
  // Go-back-N: presume the whole outstanding window lost; retransmit the
  // head now, the rest as the (collapsed) window re-opens via pump().
  transmit_segment(snd_una_, /*retransmit=*/true);
  gbn_next_ = snd_una_ + 1;
  gbn_high_ = snd_nxt_;
  arm_rto();
  if (observer_ != nullptr) observer_->on_sender_timeout(*this);
  pump();
}

void TcpSender::update_rtt(sim::Time sample) {
  if (srtt_ == sim::Time::zero()) {
    srtt_ = sample;
    rttvar_ = sample / 2;
  } else {
    const sim::Time err = sample >= srtt_ ? sample - srtt_ : srtt_ - sample;
    rttvar_ = (rttvar_ * 3 + err) / 4;
    srtt_ = (srtt_ * 7 + sample) / 8;
  }
  if (auto* tr = obs::tracer(); tr != nullptr) [[unlikely]] {
    tr->srtt(sched_.now(), flow_, static_cast<std::uint8_t>(subflow_), srtt_.us());
  }
}

sim::Time TcpSender::current_rto() const {
  sim::Time rto = cfg_.initial_rto;
  if (srtt_ > sim::Time::zero()) rto = srtt_ + rttvar_ * 4;
  if (rto < cfg_.rto_min) rto = cfg_.rto_min;
  // Exponential backoff on consecutive timeouts.
  for (int i = 0; i < rto_backoff_ && rto < cfg_.rto_max; ++i) rto = rto * 2;
  if (rto > cfg_.rto_max) rto = cfg_.rto_max;
  return rto;
}

void TcpSender::arm_rto() {
  rto_deadline_ = sched_.now() + current_rto();
  if (rto_timer_ == sim::kInvalidEventId) {
    rto_timer_ = sched_.schedule_at(rto_deadline_, [this] { on_rto(); });
  }
  // Otherwise the pending event fires at (or before) the old deadline and
  // re-arms itself against rto_deadline_ — no per-ack cancel/reschedule.
}

void TcpSender::cancel_rto() {
  if (rto_timer_ != sim::kInvalidEventId) {
    sched_.cancel(rto_timer_);
    rto_timer_ = sim::kInvalidEventId;
  }
}

void TcpSender::checkpoint(core::ckpt::Io& io) {
  io.u16(path_tag_);
  io.f64(cwnd_);
  io.f64(ssthresh_);
  io.i64(snd_una_);
  io.i64(snd_nxt_);
  io.i64(beg_seq_);
  io.i64(dupacks_);
  io.b(in_recovery_);
  io.i64(recover_);
  io.i64(gbn_next_);
  io.i64(gbn_high_);
  io.time(srtt_);
  io.time(rttvar_);
  io.i64(rto_backoff_);
  io.time(rto_deadline_);
  io.b(started_);
  io.b(halted_);
  io.b(cwr_pending_);
  io.u64(segments_sent_);
  io.u64(retransmissions_);
  io.u64(timeouts_);
  io.u64(fast_retransmits_);
  io.u64(ce_echoes_);
  // The construction-time registration does not exist for senders (start()
  // registers), so mirror the started side effect without pumping.
  if (io.loading() && started_) {
    local_.register_endpoint(flow_, subflow_, net::PacketType::Ack, *this);
  }
  io.opt_event(sched_, rto_timer_, [this] { on_rto(); });
  cc_->checkpoint(io);
}

}  // namespace xmp::transport
