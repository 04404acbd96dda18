#include "transport/cc/bos.hpp"

#include <algorithm>
#include <cmath>

#include "obs/hooks.hpp"
#include "obs/timeline.hpp"
#include "transport/sender.hpp"

namespace xmp::transport {

void BosCc::on_round_end(TcpSender& s) {
  // Algorithm 1, per-round operations: refresh the gain from current rates,
  // then apply the congestion-avoidance increase with the fractional-part
  // accumulator.
  delta_ = gain(s);
  if (auto* tr = obs::tracer(); tr != nullptr) [[unlikely]] {
    // Covers XmpCc too: TraSh only overrides gain(), so every δ refresh for
    // every BOS-family sender lands here.
    tr->gain(s.now(), s.flow(), static_cast<std::uint8_t>(s.subflow()), delta_);
  }
  if (state_ == State::Normal && !s.in_slow_start()) {
    adder_ += delta_;
    const double whole = std::floor(adder_);
    if (whole > 0) {
      s.set_cwnd(s.cwnd() + whole);
      adder_ -= whole;
    }
  }
}

void BosCc::on_ack(TcpSender& s, const AckEvent& ev) {
  if (ev.dupack) return;
  // Per-ack operations: slow start, then the REDUCED -> NORMAL transition
  // once every CE issued before the reduction has been echoed back.
  if (state_ == State::Normal && s.in_slow_start()) {
    s.set_cwnd(s.cwnd() + 1.0);
  }
  if (state_ != State::Normal && s.snd_una() >= cwr_seq_) {
    state_ = State::Normal;
  }
}

void BosCc::on_congestion_signal(TcpSender& s, const AckEvent& /*ev*/) {
  if (state_ != State::Normal) return;  // at most one reduction per round
  state_ = State::Reduced;
  cwr_seq_ = s.snd_nxt();
  if (s.cwnd() > s.ssthresh()) {
    const double tmp = std::floor(s.cwnd() / params_.beta);
    s.set_cwnd(std::max(s.cwnd() - std::max(tmp, 1.0), 2.0));
  }
  // Avoid re-entering slow start (Algorithm 1).
  s.set_ssthresh(s.cwnd() - 1.0);
}

void BosCc::on_loss(TcpSender& s, bool timeout) {
  // Packet loss is rare under BOS (ECN reacts first); respond like Reno but
  // respect the 2-segment floor the paper imposes on subflows.
  s.set_ssthresh(std::max(s.cwnd() / 2.0, 2.0));
  if (timeout) {
    s.set_cwnd(s.config().min_cwnd);
    state_ = State::Normal;
    adder_ = 0.0;
  } else {
    s.set_cwnd(s.ssthresh());
    state_ = State::Reduced;  // suppress an ECN-triggered double reduction
    cwr_seq_ = s.snd_nxt();
  }
}

}  // namespace xmp::transport
