#include "transport/cc/reno.hpp"

#include <algorithm>

#include "transport/sender.hpp"

namespace xmp::transport {

void RenoCc::on_ack(TcpSender& s, const AckEvent& ev) {
  if (ev.dupack) return;
  if (s.in_slow_start()) {
    s.set_cwnd(s.cwnd() + 1.0);  // per ack, as in pre-ABC Linux
  } else {
    increase_ca(s, ev.newly_acked);
  }
}

void RenoCc::increase_ca(TcpSender& s, std::int64_t newly_acked) {
  s.set_cwnd(s.cwnd() + static_cast<double>(newly_acked) / s.cwnd());
}

void RenoCc::on_congestion_signal(TcpSender& s, const AckEvent& /*ev*/) {
  // Classic ECN response (RFC 3168): halve at most once per window. Plain
  // TCP flows in the paper are not ECN-capable, so this path only runs when
  // a Reno sender is explicitly configured with ecn_capable = true.
  if (s.snd_una() <= cwr_seq_) return;
  cwr_seq_ = s.snd_nxt();
  s.set_ssthresh(std::max(s.cwnd() / 2.0, 2.0));
  s.set_cwnd(s.ssthresh());
  s.signal_cwr();
}

void RenoCc::on_loss(TcpSender& s, bool timeout) {
  if (timeout) {
    s.set_ssthresh(std::max(s.cwnd() / 2.0, 2.0));
    s.set_cwnd(s.config().min_cwnd);
  } else {
    s.set_ssthresh(std::max(s.cwnd() / 2.0, 2.0));
    s.set_cwnd(s.ssthresh());
  }
}

}  // namespace xmp::transport
