#pragma once

#include <cstdint>
#include <vector>

namespace xmp::model {

/// Numerical companions to the paper's §2 analysis.
///
/// BOS's window dynamics (Eq. 2) give the equilibrium marking probability
/// (Eq. 3)  p̃ = 1 / (1 + w̃/(δβ)), i.e. w̃ = δβ(1-p̃)/p̃. On a saturated
/// bottleneck shared by flows i with gains δ_i, factors β_i and RTTs T_i,
/// rate conservation Σ w̃_i/T_i = C has the closed form
///   p = S / (C + S),   S = Σ_i δ_i β_i / T_i,
/// and per-flow rates x_i = δ_i β_i (1-p)/(p T_i).
///
/// For multipath flows the TraSh update (Eq. 9) δ_r = T_r x_r / (T_s y_s)
/// couples the per-path gains; `MultipathEquilibrium` solves the joint
/// fixed point by alternating the per-link closed form with the TraSh
/// update — the same two-level iteration the paper describes in §2.2.

/// One BOS flow (or XMP subflow) as the fluid model sees it.
struct FluidFlow {
  double delta = 1.0;  ///< per-round increase gain δ
  double beta = 4.0;   ///< reduction factor β
  double rtt_s = 0.0;  ///< round duration T (seconds)
};

/// Closed-form single-bottleneck equilibrium.
struct SingleBottleneckResult {
  double p = 0.0;                  ///< marking probability per round
  std::vector<double> rates;       ///< segments per second, per flow
  std::vector<double> windows;     ///< segments, per flow
  /// False when the inputs are outside the model's domain (non-positive or
  /// non-finite capacity, a flow with non-positive RTT); the closed form has
  /// no equilibrium there and `p`/`rates`/`windows` stay empty. An empty
  /// flow set is *valid* and yields the trivial p = 0 result.
  bool ok = false;
};

/// `capacity_sps` is the link capacity in segments per second.
[[nodiscard]] SingleBottleneckResult solve_single_bottleneck(
    const std::vector<FluidFlow>& flows, double capacity_sps);

/// Multipath input: a set of links and flows whose subflows each traverse
/// exactly one link (the PinnedPaths abstraction).
struct FluidSubflow {
  int link = 0;        ///< index into link capacities
  double rtt_s = 0.0;  ///< subflow round-trip time
};

struct FluidMptcpFlow {
  std::vector<FluidSubflow> subflows;
  double beta = 4.0;
};

struct MultipathResult {
  std::vector<double> link_p;                    ///< marking prob per link
  std::vector<std::vector<double>> rates;        ///< per flow, per subflow (sps)
  std::vector<std::vector<double>> deltas;       ///< converged TraSh gains
  int iterations = 0;
  bool converged = false;
  /// False when the inputs are outside the model's domain (a subflow naming
  /// a link that does not exist, a non-positive RTT or link capacity): the
  /// iteration never runs and `converged` stays false. Distinct from a
  /// valid-but-non-converging instance, which reports valid = true,
  /// converged = false after `max_iterations` bounded rounds.
  bool valid = false;
};

/// Solve the coupled TraSh fixed point.
///
/// When a path is strictly more congested than the flow-wide expectation at
/// any rate, the ideal gain sits on the boundary δ = 0 and the iteration
/// approaches it only harmonically; the paper's remedy (footnote 5) is a
/// floor — "give up the path", in practice a 2-packet cwnd. `delta_floor`
/// models that floor and makes the boundary fixed point reachable.
[[nodiscard]] MultipathResult solve_multipath(const std::vector<double>& link_capacity_sps,
                                              const std::vector<FluidMptcpFlow>& flows,
                                              int max_iterations = 20'000,
                                              double tolerance = 1e-9,
                                              double delta_floor = 1e-3);

/// Eq. 1 helper: the smallest marking threshold K (packets) that keeps a
/// single BOS flow at full utilization for a given bandwidth-delay product.
[[nodiscard]] constexpr double min_marking_threshold(double bdp_packets, double beta) {
  return bdp_packets / (beta - 1.0);
}

}  // namespace xmp::model
