#include "mptcp/xmp_cc.hpp"

#include "transport/sender.hpp"

namespace xmp::mptcp {

double XmpCc::gain(transport::TcpSender& s) {
  const double total_rate = ctx_.total_rate();
  const sim::Time min_rtt = ctx_.min_srtt();
  if (total_rate <= 0.0 || min_rtt <= sim::Time::zero()) {
    return 1.0;  // no measurements yet: behave like standalone BOS (δ = 1)
  }
  // Algorithm 1: delta[r] <- snd_cwnd[r] / (total_rate * min_rtt).
  return s.cwnd() / (total_rate * min_rtt.sec());
}

}  // namespace xmp::mptcp
