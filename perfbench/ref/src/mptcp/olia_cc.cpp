#include "mptcp/olia_cc.hpp"

#include <algorithm>

#include "transport/sender.hpp"

namespace xmp::mptcp {

void OliaCc::on_ack(transport::TcpSender& s, const transport::AckEvent& ev) {
  if (!ev.dupack) since_last_loss_ += static_cast<double>(ev.newly_acked);
  RenoCc::on_ack(s, ev);
}

void OliaCc::on_loss(transport::TcpSender& s, bool timeout) {
  between_last_two_ = since_last_loss_;
  since_last_loss_ = 0;
  RenoCc::on_loss(s, timeout);
}

double OliaCc::quality() const {
  const double l = std::max(since_last_loss_, between_last_two_);
  return l * l;
}

void OliaCc::increase_ca(transport::TcpSender& s, std::int64_t newly_acked) {
  const double total_rate = ctx_.total_rate();  // Σ cwnd_p / rtt_p
  if (total_rate <= 0.0 || !s.has_rtt_sample()) {
    RenoCc::increase_ca(s, newly_acked);
    return;
  }
  const double rtt = s.srtt().sec();
  const double coupled = (s.cwnd() / (rtt * rtt)) / (total_rate * total_rate);
  const double alpha = ctx_.olia_alpha(s);
  const double per_segment = coupled + alpha / s.cwnd();
  const double next = s.cwnd() + per_segment * static_cast<double>(newly_acked);
  s.set_cwnd(std::max(next, s.config().min_cwnd));
}

}  // namespace xmp::mptcp
