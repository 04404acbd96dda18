#pragma once

#include "mptcp/coupling.hpp"
#include "transport/cc/bos.hpp"

namespace xmp::mptcp {

/// XMP subflow controller: BOS mechanics with the TraSh gain (paper §2.2).
///
/// Once per round the increase gain is re-derived from Eq. 9:
///   δ_r = cwnd_r / (total_rate · min_rtt)
/// which realizes the Congestion Equality Principle — subflows on paths
/// more congested than the flow-wide expectation get a smaller δ (shedding
/// traffic), less congested ones get a larger δ (absorbing it), while the
/// flow as a whole stays as aggressive as one BOS flow on its best path.
class XmpCc final : public transport::BosCc {
 public:
  XmpCc(const CouplingContext& ctx, const Params& params)
      : BosCc{params}, ctx_{ctx} {}

  [[nodiscard]] const char* name() const override { return "xmp"; }

 protected:
  double gain(transport::TcpSender& s) override;

 private:
  const CouplingContext& ctx_;
};

}  // namespace xmp::mptcp
