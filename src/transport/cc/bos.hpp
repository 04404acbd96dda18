#pragma once

#include "transport/congestion_control.hpp"

namespace xmp::transport {

/// BOS — Buffer Occupancy Suppression (paper §2.1, Algorithm 1).
///
/// Congestion avoidance changes cwnd once per *round* (one RTT, delimited
/// with beg_seq/snd_una as in the paper's Fig. 2):
///   - no congestion: cwnd grows by the gain δ (fractional growth is
///     accumulated in `adder`, exactly as in Algorithm 1);
///   - on an ECN echo: cwnd is cut by 1/β, at most once per round, tracked
///     by the NORMAL/REDUCED state machine keyed on cwr_seq.
/// Slow start grows by 1 per ack and ends at the first congestion echo.
///
/// With a fixed δ = 1 this is the standalone single-path algorithm; the
/// XMP subflow controller derives from this class and supplies the TraSh
/// gain (Eq. 9) by overriding `gain()`.
class BosCc : public CongestionControl {
 public:
  struct Params {
    int beta = 4;        ///< window reduction factor 1/β (paper: β ∈ [3,5])
    double delta = 1.0;  ///< per-round increase gain for standalone BOS
  };

  BosCc() = default;
  explicit BosCc(const Params& p) : params_{p} {}

  void on_round_end(TcpSender& s) override;
  void on_ack(TcpSender& s, const AckEvent& ev) override;
  void on_congestion_signal(TcpSender& s, const AckEvent& ev) override;
  void on_loss(TcpSender& s, bool timeout) override;
  [[nodiscard]] const char* name() const override { return "bos"; }

  [[nodiscard]] int beta() const { return params_.beta; }
  [[nodiscard]] bool reduced_state() const { return state_ == State::Reduced; }
  [[nodiscard]] double current_gain() const { return delta_; }

  void checkpoint(core::ckpt::Io& io) override {
    io.u8(state_);
    io.i64(cwr_seq_);
    io.f64(adder_);
    io.f64(delta_);
  }

 protected:
  /// The per-round increase gain δ, re-evaluated at every round end.
  [[nodiscard]] virtual double gain(TcpSender& /*s*/) { return params_.delta; }

  Params params_;

 private:
  enum class State { Normal, Reduced };

  State state_ = State::Normal;
  std::int64_t cwr_seq_ = 0;
  double adder_ = 0.0;
  double delta_ = 1.0;
};

}  // namespace xmp::transport
