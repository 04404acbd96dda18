#include "mptcp/lia_cc.hpp"

#include <algorithm>

#include "transport/sender.hpp"

namespace xmp::mptcp {

void LiaCc::increase_ca(transport::TcpSender& s, std::int64_t newly_acked) {
  const double total = ctx_.total_cwnd();
  if (total <= 0.0) {
    RenoCc::increase_ca(s, newly_acked);
    return;
  }
  const double alpha = ctx_.lia_alpha();
  const double per_segment = std::min(alpha / total, 1.0 / s.cwnd());
  s.set_cwnd(s.cwnd() + per_segment * static_cast<double>(newly_acked));
}

}  // namespace xmp::mptcp
