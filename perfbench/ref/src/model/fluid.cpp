#include "model/fluid.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace xmp::model {

SingleBottleneckResult solve_single_bottleneck(const std::vector<FluidFlow>& flows,
                                               double capacity_sps) {
  SingleBottleneckResult res;
  // Out-of-domain inputs are a graceful refusal, not an assert: the solver
  // is reachable from CLI/config paths that validate late (or not at all).
  if (!(capacity_sps > 0.0) || !std::isfinite(capacity_sps)) return res;
  double s = 0.0;
  for (const auto& f : flows) {
    if (!(f.rtt_s > 0.0) || !std::isfinite(f.rtt_s)) return res;
    s += f.delta * f.beta / f.rtt_s;
  }
  res.ok = true;
  if (s <= 0.0) return res;
  res.p = s / (capacity_sps + s);
  res.rates.reserve(flows.size());
  res.windows.reserve(flows.size());
  for (const auto& f : flows) {
    const double w = f.delta * f.beta * (1.0 - res.p) / res.p;
    res.windows.push_back(w);
    res.rates.push_back(w / f.rtt_s);
  }
  return res;
}

MultipathResult solve_multipath(const std::vector<double>& link_capacity_sps,
                                const std::vector<FluidMptcpFlow>& flows, int max_iterations,
                                double tolerance, double delta_floor) {
  MultipathResult res;
  const std::size_t n_links = link_capacity_sps.size();
  res.link_p.assign(n_links, 0.0);
  for (const double c : link_capacity_sps) {
    if (!(c > 0.0) || !std::isfinite(c)) return res;  // valid stays false
  }
  res.deltas.resize(flows.size());
  res.rates.resize(flows.size());
  for (std::size_t fi = 0; fi < flows.size(); ++fi) {
    res.deltas[fi].assign(flows[fi].subflows.size(), 1.0);  // TraSh init (step 1)
    res.rates[fi].assign(flows[fi].subflows.size(), 0.0);
    for (const auto& sf : flows[fi].subflows) {
      if (sf.link < 0 || static_cast<std::size_t>(sf.link) >= n_links) return res;
      if (!(sf.rtt_s > 0.0) || !std::isfinite(sf.rtt_s)) return res;
    }
  }
  res.valid = true;
  if (flows.empty()) {
    res.converged = true;  // nothing to couple: the empty fixed point
    return res;
  }

  constexpr double kRelax = 0.5;  // damping on the TraSh update
  for (int it = 0; it < max_iterations; ++it) {
    // Per-link closed form, assuming every used link saturates (BOS flows
    // grow until marked, so a link carrying any subflow is driven to its
    // capacity in equilibrium).
    std::vector<double> s(n_links, 0.0);
    for (std::size_t fi = 0; fi < flows.size(); ++fi) {
      for (std::size_t ri = 0; ri < flows[fi].subflows.size(); ++ri) {
        const auto& sf = flows[fi].subflows[ri];
        s[static_cast<std::size_t>(sf.link)] +=
            res.deltas[fi][ri] * flows[fi].beta / sf.rtt_s;
      }
    }
    for (std::size_t l = 0; l < n_links; ++l) {
      res.link_p[l] = s[l] > 0.0 ? s[l] / (link_capacity_sps[l] + s[l]) : 0.0;
    }

    // Subflow rates at these marking probabilities (Eq. 3 rearranged,
    // a.k.a. "Rate Convergence", TraSh step 2).
    for (std::size_t fi = 0; fi < flows.size(); ++fi) {
      for (std::size_t ri = 0; ri < flows[fi].subflows.size(); ++ri) {
        const auto& sf = flows[fi].subflows[ri];
        const double p = res.link_p[static_cast<std::size_t>(sf.link)];
        res.rates[fi][ri] =
            p > 0.0 ? res.deltas[fi][ri] * flows[fi].beta * (1.0 - p) / (p * sf.rtt_s) : 0.0;
      }
    }

    // TraSh "Parameter Adjustment" (step 3, Eq. 9), with damping.
    double max_change = 0.0;
    for (std::size_t fi = 0; fi < flows.size(); ++fi) {
      double y = 0.0;
      double t_min = 1e30;
      for (std::size_t ri = 0; ri < flows[fi].subflows.size(); ++ri) {
        y += res.rates[fi][ri];
        t_min = std::min(t_min, flows[fi].subflows[ri].rtt_s);
      }
      if (y <= 0.0) continue;
      for (std::size_t ri = 0; ri < flows[fi].subflows.size(); ++ri) {
        const double target =
            flows[fi].subflows[ri].rtt_s * res.rates[fi][ri] / (t_min * y);
        const double next =
            std::max((1.0 - kRelax) * res.deltas[fi][ri] + kRelax * target, delta_floor);
        max_change = std::max(max_change, std::fabs(next - res.deltas[fi][ri]));
        res.deltas[fi][ri] = next;
      }
    }

    res.iterations = it + 1;
    if (max_change < tolerance) {
      res.converged = true;
      break;
    }
  }
  return res;
}

}  // namespace xmp::model
