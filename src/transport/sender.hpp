#pragma once

#include <cstdint>
#include <memory>

#include "net/node.hpp"
#include "net/packet.hpp"
#include "sim/scheduler.hpp"
#include "transport/congestion_control.hpp"
#include "transport/segment_source.hpp"

namespace xmp::transport {

struct SenderConfig {
  double initial_cwnd = 10.0;     ///< segments (Linux IW10 era, 2013)
  double min_cwnd = 1.0;          ///< 2.0 for XMP subflows (paper footnote 5)
  bool ecn_capable = false;       ///< data packets carry ECT
  sim::Time rto_min = sim::Time::milliseconds(200);  ///< the paper's RTOmin
  sim::Time rto_max = sim::Time::seconds(60.0);
  sim::Time initial_rto = sim::Time::milliseconds(200);
};

/// Observer hook for per-subflow telemetry and connection-level recovery.
class SenderObserver {
 public:
  virtual ~SenderObserver() = default;
  virtual void on_sender_delivered(const TcpSender& s, std::int64_t segments) = 0;
  /// Fired when this sender's retransmission timer expires (after the
  /// congestion response). MPTCP uses it for opportunistic reinjection.
  virtual void on_sender_timeout(const TcpSender& /*s*/) {}
};

/// Send side of one (sub)flow.
///
/// Implements the mechanical parts shared by every scheme — sequence space
/// (counted in MSS segments), cumulative/duplicate ack processing, RTT
/// estimation (RFC 6298 with the paper's RTOmin = 200 ms), retransmission
/// timer with exponential backoff, NewReno-style fast retransmit/recovery
/// with window inflation, and the paper's per-round bookkeeping (Fig. 2:
/// beg_seq / snd_nxt / snd_una) — and delegates all window sizing decisions
/// to a CongestionControl policy.
class TcpSender final : public net::Host::Endpoint {
 public:
  TcpSender(sim::Scheduler& sched, net::Host& local, net::NodeId remote, net::FlowId flow,
            std::uint16_t subflow, std::uint16_t path_tag, SegmentSource& source,
            std::unique_ptr<CongestionControl> cc, const SenderConfig& cfg);
  ~TcpSender() override;

  TcpSender(const TcpSender&) = delete;
  TcpSender& operator=(const TcpSender&) = delete;

  /// Begin transmitting (registers the ack endpoint and pumps the window).
  void start();

  /// Ack arrival (Host::Endpoint).
  void handle(net::Packet p) override;

  /// Re-evaluate the window and transmit what fits. Called internally after
  /// every ack; exposed for MPTCP so a sibling subflow's delivery can wake
  /// this one when connection-level data becomes available.
  void pump();

  /// Permanently stop this sender: cancel the retransmission timer and
  /// ignore any further acks and pump() calls. Used when MPTCP declares the
  /// subflow dead — the sender object stays alive (stats remain readable)
  /// but generates no more events. Irreversible.
  void halt();
  [[nodiscard]] bool halted() const { return halted_; }

  /// Move this subflow onto a new path (mptcp::PathManager): future packets
  /// carry `new_tag`, the RTT estimator and backoff restart from scratch
  /// (Karn-style — the new path's RTT is unknown), and the outstanding
  /// window is retransmitted go-back-N on the new path immediately.
  void rehome(std::uint16_t new_tag);
  [[nodiscard]] std::uint16_t path_tag() const { return path_tag_; }

  // --- congestion-control facing state ---
  [[nodiscard]] double cwnd() const { return cwnd_; }
  void set_cwnd(double w);
  [[nodiscard]] double ssthresh() const { return ssthresh_; }
  void set_ssthresh(double s) { ssthresh_ = s; }
  /// Linux semantics: slow start iff cwnd < ssthresh (equality is CA).
  [[nodiscard]] bool in_slow_start() const { return cwnd_ < ssthresh_; }
  [[nodiscard]] sim::Time srtt() const { return srtt_; }
  /// Current virtual time (convenience for CC policies).
  [[nodiscard]] sim::Time now() const { return sched_.now(); }
  [[nodiscard]] bool has_rtt_sample() const { return srtt_ > sim::Time::zero(); }
  /// cwnd / srtt in segments per second; 0 before the first RTT sample.
  [[nodiscard]] double instant_rate() const;
  [[nodiscard]] const SenderConfig& config() const { return cfg_; }
  /// Stamp CWR on the next first-transmission data packet (RFC 3168: tells
  /// a Classic-codec receiver to stop setting ECE). Called by the CC policy
  /// when it reduces the window in response to an ECN echo.
  void signal_cwr() { cwr_pending_ = true; }
  [[nodiscard]] CongestionControl& cc() { return *cc_; }
  [[nodiscard]] const CongestionControl& cc() const { return *cc_; }

  // --- sequence state (paper Fig. 2) ---
  [[nodiscard]] std::int64_t snd_una() const { return snd_una_; }
  [[nodiscard]] std::int64_t snd_nxt() const { return snd_nxt_; }
  [[nodiscard]] std::int64_t inflight() const { return snd_nxt_ - snd_una_; }

  // --- stats ---
  [[nodiscard]] std::int64_t delivered_segments() const { return snd_una_; }
  [[nodiscard]] std::uint64_t segments_sent() const { return segments_sent_; }
  [[nodiscard]] std::uint64_t retransmissions() const { return retransmissions_; }
  [[nodiscard]] std::uint64_t timeouts() const { return timeouts_; }
  /// Consecutive timeouts without forward progress (backoff exponent).
  [[nodiscard]] int rto_backoff() const { return rto_backoff_; }
  [[nodiscard]] std::uint64_t fast_retransmits() const { return fast_retransmits_; }
  [[nodiscard]] std::uint64_t ce_echoes() const { return ce_echoes_; }
  [[nodiscard]] bool idle() const { return snd_una_ == snd_nxt_; }
  [[nodiscard]] net::FlowId flow() const { return flow_; }
  [[nodiscard]] std::uint16_t subflow() const { return subflow_; }

  void set_observer(SenderObserver* obs) { observer_ = obs; }

  /// Checkpoint the full sender state, including the CC policy's and the
  /// pending RTO timer's (time, sequence) key. Loading expects a
  /// freshly constructed sender built from the same config: it registers
  /// the ack endpoint (when the saved sender had started) and re-arms the
  /// timer under its original key.
  void checkpoint(core::ckpt::Io& io);

 private:
  void transmit_segment(std::int64_t seq, bool retransmit);
  void on_new_ack(const net::Packet& p);
  void on_dup_ack(const net::Packet& p);
  void enter_fast_recovery();
  void on_rto();
  void update_rtt(sim::Time sample);
  void arm_rto();
  void cancel_rto();
  [[nodiscard]] sim::Time current_rto() const;
  [[nodiscard]] std::int64_t effective_window() const;

  sim::Scheduler& sched_;
  net::Host& local_;
  net::NodeId remote_;
  net::FlowId flow_;
  std::uint16_t subflow_;
  std::uint16_t path_tag_;
  SegmentSource& source_;
  std::unique_ptr<CongestionControl> cc_;
  SenderConfig cfg_;
  SenderObserver* observer_ = nullptr;

  // window
  double cwnd_;
  double ssthresh_ = 1e12;

  // sequence space (segments)
  std::int64_t snd_una_ = 0;
  std::int64_t snd_nxt_ = 0;
  std::int64_t beg_seq_ = 0;  ///< round boundary marker (paper Fig. 2)

  // fast retransmit / recovery
  int dupacks_ = 0;
  bool in_recovery_ = false;
  std::int64_t recover_ = 0;

  // Go-back-N after a timeout (no SACK): everything in [gbn_next_,
  // gbn_high_) is presumed lost and is retransmitted as the window opens,
  // without consuming new source grants.
  std::int64_t gbn_next_ = 0;
  std::int64_t gbn_high_ = 0;

  // RTT / RTO (RFC 6298)
  sim::Time srtt_ = sim::Time::zero();
  sim::Time rttvar_ = sim::Time::zero();
  int rto_backoff_ = 0;  ///< consecutive timeouts (exponential backoff shift)
  sim::EventId rto_timer_ = sim::kInvalidEventId;
  sim::Time rto_deadline_ = sim::Time::zero();  ///< lazy-timer true deadline

  bool started_ = false;
  bool halted_ = false;
  bool cwr_pending_ = false;

  // stats
  std::uint64_t segments_sent_ = 0;
  std::uint64_t retransmissions_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t fast_retransmits_ = 0;
  std::uint64_t ce_echoes_ = 0;
};

}  // namespace xmp::transport
