#include "transport/cc/dctcp.hpp"

#include <algorithm>

#include "transport/sender.hpp"

namespace xmp::transport {

void DctcpCc::on_ack(TcpSender& s, const AckEvent& ev) {
  if (ev.dupack) return;
  acked_in_window_ += ev.newly_acked;
  if (ev.ece) marked_in_window_ += ev.newly_acked;

  // Window boundary: the cumulative ack passed window_end_. The closing
  // ack's own segments belong to the finished window.
  if (s.snd_una() > window_end_) {
    if (acked_in_window_ > 0) {
      const double frac =
          static_cast<double>(marked_in_window_) / static_cast<double>(acked_in_window_);
      alpha_ = (1.0 - params_.g) * alpha_ + params_.g * frac;
    }
    acked_in_window_ = 0;
    marked_in_window_ = 0;
    window_end_ = s.snd_nxt();
  }

  if (s.in_slow_start()) {
    s.set_cwnd(s.cwnd() + 1.0);
  } else {
    s.set_cwnd(s.cwnd() + static_cast<double>(ev.newly_acked) / s.cwnd());
  }
}

void DctcpCc::on_congestion_signal(TcpSender& s, const AckEvent& /*ev*/) {
  if (s.snd_una() <= cwr_seq_) return;  // already reduced in this window
  cwr_seq_ = s.snd_nxt();
  const double reduced = s.cwnd() * (1.0 - alpha_ / 2.0);
  s.set_cwnd(std::max(reduced, 2.0));
  // Leave slow start for good once congestion has been signalled.
  if (s.ssthresh() > s.cwnd()) s.set_ssthresh(s.cwnd() - 1.0);
}

void DctcpCc::on_loss(TcpSender& s, bool timeout) {
  s.set_ssthresh(std::max(s.cwnd() / 2.0, 2.0));
  s.set_cwnd(timeout ? s.config().min_cwnd : s.ssthresh());
}

}  // namespace xmp::transport
