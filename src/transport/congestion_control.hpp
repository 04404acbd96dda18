#pragma once

#include <cstdint>
#include <memory>

#include "core/checkpoint.hpp"
#include "sim/time.hpp"

namespace xmp::transport {

class TcpSender;

/// Everything a congestion controller learns from one acknowledgement.
struct AckEvent {
  std::int64_t newly_acked = 0;  ///< segments cumulatively acked by this packet
  bool dupack = false;
  bool ece = false;             ///< classic / DCTCP echo flag
  std::uint8_t ce_count = 0;    ///< XMP 2-bit codec: CEs echoed by this ack
  bool rtt_valid = false;
  sim::Time rtt = sim::Time::zero();
};

/// Pluggable congestion-control policy driven by TcpSender.
///
/// The sender owns cwnd/ssthresh and exposes them through accessors; the
/// policy mutates them from these hooks. Hook order for one ack mirrors the
/// paper's Algorithm 1:
///   1. on_round_end()           — iff the ack closes a round (ack > beg_seq)
///   2. on_ack()                 — every new (non-duplicate) ack
///   3. on_congestion_signal()   — iff the ack carries ECE / CE counts
/// Losses are reported separately via on_loss().
class CongestionControl {
 public:
  virtual ~CongestionControl() = default;

  virtual void on_start(TcpSender& /*s*/) {}
  virtual void on_round_end(TcpSender& /*s*/) {}
  virtual void on_ack(TcpSender& s, const AckEvent& ev) = 0;
  virtual void on_congestion_signal(TcpSender& s, const AckEvent& ev) = 0;
  /// `timeout` true for RTO expiry, false for fast retransmit.
  virtual void on_loss(TcpSender& s, bool timeout) = 0;

  /// Checkpoint hooks: policies with state beyond cwnd/ssthresh (which the
  /// sender owns) serialize it here. Overrides must call their base class.
  virtual void checkpoint(core::ckpt::Io& /*io*/) {}

  [[nodiscard]] virtual const char* name() const = 0;
};

}  // namespace xmp::transport
