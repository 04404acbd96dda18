#include "transport/cc/d2tcp.hpp"

#include <algorithm>
#include <cmath>

#include "transport/sender.hpp"

namespace xmp::transport {

double D2tcpCc::imminence(const TcpSender& s, sim::Time now) const {
  if (dp_.deadline <= sim::Time::zero() || dp_.total_segments <= 0) return 1.0;
  const std::int64_t remaining_segments = dp_.total_segments - s.delivered_segments();
  if (remaining_segments <= 0) return 0.5;  // effectively done: be gentle
  const double rate = s.instant_rate();     // segments per second
  if (rate <= 0.0) return 1.0;
  const double tc = static_cast<double>(remaining_segments) / rate;
  const double d_remaining = (dp_.deadline - now).sec();
  if (d_remaining <= 0.0) return 2.0;  // past deadline: maximally aggressive
  return std::clamp(tc / d_remaining, 0.5, 2.0);
}

void D2tcpCc::on_congestion_signal(TcpSender& s, const AckEvent& /*ev*/) {
  if (s.snd_una() <= cwr_seq_) return;  // once per window, as in DCTCP
  cwr_seq_ = s.snd_nxt();
  const double d = imminence(s, s.now());
  const double penalty = std::pow(alpha(), d);  // p = alpha^d
  s.set_cwnd(std::max(s.cwnd() * (1.0 - penalty / 2.0), 2.0));
  if (s.ssthresh() > s.cwnd()) s.set_ssthresh(s.cwnd() - 1.0);
}

}  // namespace xmp::transport
