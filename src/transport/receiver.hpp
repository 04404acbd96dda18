#pragma once

#include <cstdint>
#include <set>

#include "net/node.hpp"
#include "net/packet.hpp"
#include "sim/scheduler.hpp"
#include "transport/ecn_codec.hpp"

namespace xmp::transport {

struct ReceiverConfig {
  EcnCodec codec = EcnCodec::None;
  /// Cumulative-ack coalescing factor ("Delayed ACKs": one ack per this
  /// many in-order segments).
  int delack_segments = 2;
  /// Flush a pending delayed ack after this much quiet time.
  sim::Time delack_timeout = sim::Time::milliseconds(1);
};

/// Receive side of one (sub)flow: in-order tracking with an out-of-order
/// buffer, delayed acks, duplicate acks on reordering, and per-scheme ECN
/// echo. Unlimited reassembly buffer (as configured in the paper).
class TcpReceiver final : public net::Host::Endpoint {
 public:
  TcpReceiver(sim::Scheduler& sched, net::Host& local, net::NodeId remote, net::FlowId flow,
              std::uint16_t subflow, std::uint16_t path_tag, const ReceiverConfig& cfg);
  ~TcpReceiver() override;

  TcpReceiver(const TcpReceiver&) = delete;
  TcpReceiver& operator=(const TcpReceiver&) = delete;

  void handle(net::Packet p) override;

  /// Re-tag outgoing acks (mptcp::PathManager re-homed the subflow; acks
  /// must follow the data onto the surviving path).
  void set_path_tag(std::uint16_t tag) { path_tag_ = tag; }
  [[nodiscard]] std::uint16_t path_tag() const { return path_tag_; }
  [[nodiscard]] net::FlowId flow() const { return flow_; }
  [[nodiscard]] std::uint16_t subflow() const { return subflow_; }

  /// Next expected in-order segment.
  [[nodiscard]] std::int64_t rcv_nxt() const { return rcv_nxt_; }
  /// Segments accepted in order (goodput seen by the application).
  [[nodiscard]] std::int64_t delivered_segments() const { return rcv_nxt_; }
  [[nodiscard]] std::uint64_t acks_sent() const { return acks_sent_; }
  [[nodiscard]] std::uint64_t duplicates_seen() const { return duplicates_; }

  /// Checkpoint the reassembly/ack state including the ECN echo machine and
  /// the pending delayed-ack timer's key. The data endpoint registration is
  /// construction-time (the restoring run's constructor already did it).
  void save_state(core::ckpt::Saver& s) const;
  void restore_state(core::ckpt::Loader& l);

 private:
  void send_ack(sim::Time ts_echo);
  void flush_pending(sim::Time ts_echo);
  void arm_delack_timer();

  sim::Scheduler& sched_;
  net::Host& local_;
  net::NodeId remote_;
  net::FlowId flow_;
  std::uint16_t subflow_;
  std::uint16_t path_tag_;
  ReceiverConfig cfg_;
  EcnEchoState ecn_;

  std::int64_t rcv_nxt_ = 0;
  std::set<std::int64_t> out_of_order_;
  int pending_acks_ = 0;                 ///< in-order segments not yet acked
  sim::Time pending_ts_ = sim::Time::zero();  ///< earliest unechoed timestamp
  sim::EventId delack_timer_ = sim::kInvalidEventId;
  std::uint64_t acks_sent_ = 0;
  std::uint64_t duplicates_ = 0;
};

}  // namespace xmp::transport
