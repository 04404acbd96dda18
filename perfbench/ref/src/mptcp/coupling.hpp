#pragma once

#include "sim/time.hpp"

namespace xmp::transport {
class TcpSender;
}

namespace xmp::mptcp {

/// View of an MPTCP connection's aggregate state that a per-subflow
/// congestion controller needs for coupling (paper §2.2). Implemented by
/// MptcpConnection; the aggregates are over subflows that have at least
/// one RTT sample.
class CouplingContext {
 public:
  virtual ~CouplingContext() = default;

  /// Σ_r cwnd_r / srtt_r in segments per second ("total_rate" in Alg. 1).
  [[nodiscard]] virtual double total_rate() const = 0;

  /// min_r srtt_r ("min_rtt" in Alg. 1); Time::zero() if no samples yet.
  [[nodiscard]] virtual sim::Time min_srtt() const = 0;

  /// Σ_r cwnd_r, in segments (LIA).
  [[nodiscard]] virtual double total_cwnd() const = 0;

  /// RFC 6356 aggressiveness factor:
  ///   alpha = cwnd_total * max_r(cwnd_r / rtt_r^2) / (Σ_r cwnd_r / rtt_r)^2
  [[nodiscard]] virtual double lia_alpha() const = 0;

  /// Number of established subflows (OLIA).
  [[nodiscard]] virtual int subflow_count() const = 0;

  /// OLIA's per-path aggressiveness term α_r for the subflow driven by
  /// `self` (Khalili et al., CoNEXT 2012): positive on "collected" paths
  /// (best quality but small window), negative on maximum-window paths
  /// when collected paths exist, zero otherwise.
  [[nodiscard]] virtual double olia_alpha(const transport::TcpSender& self) const = 0;
};

}  // namespace xmp::mptcp
