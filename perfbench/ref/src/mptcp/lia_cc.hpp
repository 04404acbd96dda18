#pragma once

#include "mptcp/coupling.hpp"
#include "transport/cc/reno.hpp"

namespace xmp::mptcp {

/// LIA — MPTCP Linked Increases (Wischik et al. NSDI'11, RFC 6356), the
/// paper's multipath baseline.
///
/// Congestion avoidance on subflow r increases cwnd_r per acked segment by
///   min( alpha / cwnd_total , 1 / cwnd_r )
/// with alpha coupling the subflows; decrease is standard Reno halving.
/// LIA is loss-driven (not ECN-capable), so in the paper's setting it
/// fills drop-tail buffers and frequently pays the 200 ms RTOmin.
class LiaCc final : public transport::RenoCc {
 public:
  explicit LiaCc(const CouplingContext& ctx) : ctx_{ctx} {}

  [[nodiscard]] const char* name() const override { return "lia"; }

 protected:
  void increase_ca(transport::TcpSender& s, std::int64_t newly_acked) override;

 private:
  const CouplingContext& ctx_;
};

}  // namespace xmp::mptcp
