#include "transport/receiver.hpp"

#include <vector>

namespace xmp::transport {

TcpReceiver::TcpReceiver(sim::Scheduler& sched, net::Host& local, net::NodeId remote,
                         net::FlowId flow, std::uint16_t subflow, std::uint16_t path_tag,
                         const ReceiverConfig& cfg)
    : sched_{sched},
      local_{local},
      remote_{remote},
      flow_{flow},
      subflow_{subflow},
      path_tag_{path_tag},
      cfg_{cfg},
      ecn_{cfg.codec} {
  local_.register_endpoint(flow_, subflow_, net::PacketType::Data, *this);
}

TcpReceiver::~TcpReceiver() {
  sched_.cancel(delack_timer_);
  local_.unregister_endpoint(flow_, subflow_, net::PacketType::Data);
}

void TcpReceiver::handle(net::Packet p) {
  path_tag_ = p.path_tag;
  // ECN bookkeeping first; DCTCP may require flushing the delayed ack with
  // the previous CE state before this packet is absorbed.
  if (ecn_.on_data(p)) {
    if (pending_acks_ > 0) {
      flush_pending(pending_ts_);
    } else {
      ecn_.drop_pending_state_change();
    }
  }

  if (p.seq == rcv_nxt_) {
    ++rcv_nxt_;
    // Pull any buffered continuation.
    auto it = out_of_order_.begin();
    bool filled_hole = false;
    while (it != out_of_order_.end() && *it == rcv_nxt_) {
      ++rcv_nxt_;
      it = out_of_order_.erase(it);
      filled_hole = true;
    }
    ++pending_acks_;
    if (pending_ts_ == sim::Time::zero()) pending_ts_ = p.ts;
    if (filled_hole || pending_acks_ >= cfg_.delack_segments) {
      flush_pending(pending_ts_);
    } else {
      arm_delack_timer();
    }
  } else if (p.seq > rcv_nxt_) {
    // Out of order: buffer and emit an immediate duplicate ack.
    out_of_order_.insert(p.seq);
    flush_pending(sim::Time::zero());
  } else {
    // Old duplicate (e.g. spurious retransmission): ack immediately.
    ++duplicates_;
    flush_pending(sim::Time::zero());
  }
}

void TcpReceiver::flush_pending(sim::Time ts_echo) {
  pending_acks_ = 0;
  pending_ts_ = sim::Time::zero();
  if (delack_timer_ != sim::kInvalidEventId) {
    sched_.cancel(delack_timer_);
    delack_timer_ = sim::kInvalidEventId;
  }
  send_ack(ts_echo);
}

void TcpReceiver::send_ack(sim::Time ts_echo) {
  net::Packet ack;
  ack.flow = flow_;
  ack.subflow = subflow_;
  ack.path_tag = path_tag_;
  ack.type = net::PacketType::Ack;
  ack.ecn = net::Ecn::NotEct;  // acks are never marked
  ack.src = local_.id();
  ack.dst = remote_;
  ack.size_bytes = net::kAckPacketBytes;
  ack.ack = rcv_nxt_;
  ack.ts = ts_echo;
  ecn_.fill_ack(ack);
  ++acks_sent_;
  local_.send(std::move(ack));
}

void TcpReceiver::arm_delack_timer() {
  if (delack_timer_ != sim::kInvalidEventId) return;
  delack_timer_ = sched_.schedule_in(cfg_.delack_timeout, [this] {
    delack_timer_ = sim::kInvalidEventId;
    if (pending_acks_ > 0) flush_pending(pending_ts_);
  });
}

void TcpReceiver::checkpoint(core::ckpt::Io& io) {
  io.u16(path_tag_);
  ecn_.checkpoint(io);
  io.i64(rcv_nxt_);
  std::vector<std::int64_t> ooo(out_of_order_.begin(), out_of_order_.end());
  io.seq(ooo, [&](std::int64_t& seq) { io.i64(seq); });
  if (io.loading()) out_of_order_.insert(ooo.begin(), ooo.end());
  io.i64(pending_acks_);
  io.time(pending_ts_);
  io.u64(acks_sent_);
  io.u64(duplicates_);
  io.opt_event(sched_, delack_timer_, [this] {
    delack_timer_ = sim::kInvalidEventId;
    if (pending_acks_ > 0) flush_pending(pending_ts_);
  });
}

}  // namespace xmp::transport
