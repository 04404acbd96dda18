#pragma once

#include "transport/congestion_control.hpp"

namespace xmp::transport {

/// TCP-Reno congestion control (2013-era Linux behaviour: +1 per ack in
/// slow start, +1/cwnd per acked segment in congestion avoidance, halving
/// on loss). This is both the paper's "TCP" for small flows and the base
/// class for LIA's per-subflow behaviour.
class RenoCc : public CongestionControl {
 public:
  void on_ack(TcpSender& s, const AckEvent& ev) override;
  void on_congestion_signal(TcpSender& s, const AckEvent& ev) override;
  void on_loss(TcpSender& s, bool timeout) override;
  [[nodiscard]] const char* name() const override { return "reno"; }

  void checkpoint(core::ckpt::Io& io) override { io.i64(cwr_seq_); }

 protected:
  /// Congestion-avoidance increase for `newly_acked` segments; LIA
  /// overrides this with the coupled increase.
  virtual void increase_ca(TcpSender& s, std::int64_t newly_acked);

 private:
  // Reno-ECN fallback: react to ECE at most once per RTT.
  std::int64_t cwr_seq_ = -1;
};

}  // namespace xmp::transport
