#pragma once

#include "transport/congestion_control.hpp"

namespace xmp::transport {

/// DCTCP (Alizadeh et al., SIGCOMM 2010) — the paper's single-path baseline.
///
/// The sender maintains an EWMA `alpha` of the fraction of acked segments
/// that carried an ECN echo, updated once per window (~ one round), and on
/// congestion reduces cwnd proportionally: cwnd <- cwnd * (1 - alpha/2),
/// at most once per window. Increase behaviour is Reno's.
class DctcpCc : public CongestionControl {
 public:
  struct Params {
    double g = 1.0 / 16.0;  ///< EWMA gain (the DCTCP paper's recommendation)
    /// Starting congestion estimate. 1.0 (the reference default) is
    /// maximally conservative: the first echo halves. Long-lived flows
    /// converge regardless; short flows may want warm-started values.
    double initial_alpha = 1.0;
  };

  DctcpCc() = default;
  explicit DctcpCc(const Params& p) : params_{p}, alpha_{p.initial_alpha} {}

  void on_ack(TcpSender& s, const AckEvent& ev) override;
  void on_congestion_signal(TcpSender& s, const AckEvent& ev) override;
  void on_loss(TcpSender& s, bool timeout) override;
  [[nodiscard]] const char* name() const override { return "dctcp"; }

  [[nodiscard]] double alpha() const { return alpha_; }

  void checkpoint(core::ckpt::Io& io) override {
    io.f64(alpha_);
    io.i64(window_end_);
    io.i64(acked_in_window_);
    io.i64(marked_in_window_);
    io.i64(cwr_seq_);
  }

 private:
  Params params_;
  double alpha_ = 1.0;  ///< start conservative, as in the reference code
  // DCTCP tracks its own observation window (~ one RTT of data): counters
  // accumulate until the cumulative ack passes window_end_, *including*
  // the ack that closes the window.
  std::int64_t window_end_ = 0;
  std::int64_t acked_in_window_ = 0;
  std::int64_t marked_in_window_ = 0;
  std::int64_t cwr_seq_ = -1;  ///< reduce at most once per window
};

}  // namespace xmp::transport
