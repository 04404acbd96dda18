#include "workload/empirical.hpp"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "core/checkpoint.hpp"

namespace xmp::workload {

namespace {

/// Strict double parse of one whitespace-trimmed token: rejects trailing
/// garbage, NaN and infinities (hostile CDF lines must not round-trip into
/// the sampler as "valid").
bool parse_finite(const std::string& tok, double& out) {
  if (tok.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  if (end != tok.c_str() + tok.size() || errno == ERANGE) return false;
  if (!std::isfinite(v)) return false;
  out = v;
  return true;
}

std::uint64_t mix64(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

}  // namespace

bool EmpiricalCdf::parse_file(const std::string& path, EmpiricalCdf& out, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error) *error = path + ": cannot open CDF file";
    return false;
  }
  return parse(in, path, out, error);
}

bool EmpiricalCdf::parse(std::istream& in, const std::string& name, EmpiricalCdf& out,
                         std::string* error) {
  auto fail = [&](int line, const std::string& msg) {
    if (error) *error = name + ":" + std::to_string(line) + ": " + msg;
    return false;
  };
  out.points_.clear();
  out.name_ = name;
  std::string raw;
  int lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    std::istringstream ls(raw);
    std::string a, b, extra;
    if (!(ls >> a)) continue;  // blank / comment-only line
    if (!(ls >> b)) return fail(lineno, "truncated line (expected '<size_bytes> <cum_prob>')");
    if (ls >> extra) return fail(lineno, "trailing token '" + extra + "'");
    Point p;
    if (!parse_finite(a, p.bytes)) return fail(lineno, "bad size '" + a + "'");
    if (!parse_finite(b, p.cum)) return fail(lineno, "bad probability '" + b + "'");
    if (p.bytes <= 0.0) return fail(lineno, "non-positive size " + a);
    if (p.cum < 0.0 || p.cum > 1.0) return fail(lineno, "probability " + b + " outside [0,1]");
    if (!out.points_.empty()) {
      if (p.bytes < out.points_.back().bytes) return fail(lineno, "sizes must be non-decreasing");
      if (p.cum < out.points_.back().cum)
        return fail(lineno, "cumulative probability must be non-decreasing");
    }
    out.points_.push_back(p);
  }
  if (out.points_.size() < 2) return fail(lineno, "need at least two CDF points");
  if (out.points_.back().cum != 1.0)
    return fail(lineno, "last cumulative probability must be 1");
  if (out.points_.back().cum == out.points_.front().cum)
    return fail(lineno, "distribution has zero probability mass");
  return true;
}

std::int64_t EmpiricalCdf::sample(sim::Rng& rng) const {
  assert(!points_.empty());
  const double u = rng.uniform01();
  // First point with cum > u; u < 1 and the last point has cum == 1, so
  // `it` is never begin-with-cum>u only when the leading mass covers u.
  auto it = std::upper_bound(points_.begin(), points_.end(), u,
                             [](double v, const Point& p) { return v < p.cum; });
  if (it == points_.begin()) return std::max<std::int64_t>(1, std::llround(it->bytes));
  if (it == points_.end()) it = points_.end() - 1;  // u landed on trailing flat mass
  const Point& lo = *(it - 1);
  const Point& hi = *it;
  double bytes = hi.bytes;
  if (hi.cum > lo.cum) {
    const double f = (u - lo.cum) / (hi.cum - lo.cum);
    bytes = lo.bytes + f * (hi.bytes - lo.bytes);
  }
  return std::max<std::int64_t>(1, std::llround(bytes));
}

double EmpiricalCdf::mean_bytes() const {
  assert(points_.size() >= 2);
  // Size is linear in cumulative probability on each segment, so the mean
  // is the exact trapezoid sum: sum dF * (b_lo + b_hi) / 2. A point mass at
  // the first point (cum_0 > 0) contributes cum_0 * bytes_0.
  double mean = points_.front().cum * points_.front().bytes;
  for (std::size_t i = 1; i < points_.size(); ++i) {
    const double df = points_[i].cum - points_[i - 1].cum;
    mean += df * 0.5 * (points_[i].bytes + points_[i - 1].bytes);
  }
  return mean;
}

void EmpiricalCdf::mix_fingerprint(std::uint64_t& h) const {
  h = mix64(h, points_.size());
  for (const Point& p : points_) {
    std::uint64_t b = 0, c = 0;
    static_assert(sizeof b == sizeof p.bytes);
    std::memcpy(&b, &p.bytes, sizeof b);
    std::memcpy(&c, &p.cum, sizeof c);
    h = mix64(h, b);
    h = mix64(h, c);
  }
}

EmpiricalTraffic::EmpiricalTraffic(sim::Scheduler& sched, topo::HostPool& topo,
                                   FlowManager& flows, sim::Rng rng, const Config& cfg)
    : sched_{sched}, topo_{topo}, flows_{flows}, rng_{rng}, cfg_{cfg} {
  assert(cfg_.nodes >= 2 && cfg_.nodes <= topo.n_hosts());
#ifndef NDEBUG
  if (cfg_.span == WorkloadSpan::InterRack) {
    // pick_destination() rejection-samples; the constraint must be
    // satisfiable for *every* source (the CLI validates this with a
    // diagnostic before we get here).
    bool multi_rack = false;
    for (int h = 1; h < cfg_.nodes && !multi_rack; ++h) {
      multi_rack = topo.rack_of(h) != topo.rack_of(0);
    }
    assert(multi_rack && "inter-rack span needs nodes in >= 2 racks");
  }
#endif
  if (cfg_.cdf != nullptr && cfg_.load > 0.0) {
    // Offered load L per sender at line rate R with mean flow size S bytes
    // means L*R/(8*S) flows/sec per sender; the aggregate Poisson process
    // runs at nodes times that and assigns sources uniformly, which is
    // statistically identical to independent per-sender processes but
    // needs a single timer.
    const double per_sender = cfg_.load * static_cast<double>(cfg_.line_rate_bps) /
                              (8.0 * cfg_.cdf->mean_bytes());
    rate_ = per_sender * cfg_.nodes;
  }
}

void EmpiricalTraffic::start() {
  if (rate_ > 0.0) {
    arrival_timer_ =
        sched_.schedule_in(sim::Time::seconds(rng_.exponential(1.0 / rate_)), [this] {
          on_arrival();
        });
  }
  if (cfg_.trace != nullptr && !cfg_.trace->empty()) {
    trace_timer_ = sched_.schedule_at(in_units((*cfg_.trace)[0].start, cfg_.unit),
                                      [this] { on_trace_due(); });
  }
}

void EmpiricalTraffic::stop() {
  stopped_ = true;
  if (arrival_timer_ != sim::kInvalidEventId) {
    sched_.cancel(arrival_timer_);
    arrival_timer_ = sim::kInvalidEventId;
  }
  if (trace_timer_ != sim::kInvalidEventId) {
    sched_.cancel(trace_timer_);
    trace_timer_ = sim::kInvalidEventId;
  }
}

void EmpiricalTraffic::on_arrival() {
  arrival_timer_ = sim::kInvalidEventId;
  if (stopped_) return;
  // Draw order is part of the determinism contract (tests pin it):
  // src, dst (with rejection), size, next inter-arrival gap.
  const int src = static_cast<int>(rng_.uniform_u64(static_cast<std::uint64_t>(cfg_.nodes)));
  const int dst = pick_destination(src);
  const std::int64_t bytes = cfg_.cdf->sample(rng_);
  ++poisson_issued_;
  issue(src, dst, bytes);
  arrival_timer_ =
      sched_.schedule_in(sim::Time::seconds(rng_.exponential(1.0 / rate_)), [this] {
        on_arrival();
      });
}

void EmpiricalTraffic::on_trace_due() {
  trace_timer_ = sim::kInvalidEventId;
  if (stopped_) return;
  const auto& tr = *cfg_.trace;
  const sim::Time now = sched_.now();
  while (trace_next_ < tr.size() && in_units(tr[trace_next_].start, cfg_.unit) <= now) {
    const ExplicitFlow& f = tr[trace_next_++];
    ++trace_issued_;
    issue(f.src, f.dst, f.bytes);
  }
  if (trace_next_ < tr.size()) {
    trace_timer_ =
        sched_.schedule_at(in_units(tr[trace_next_].start, cfg_.unit), [this] { on_trace_due(); });
  }
}

void EmpiricalTraffic::issue(int src, int dst, std::int64_t bytes) {
  net::Host& s = topo_.host(src);
  net::Host& d = topo_.host(dst);
  // Open loop: no completion callback, so nothing to re-bind on restore.
  if (bytes < cfg_.mice_threshold) {
    flows_.start_small_flow(s, d, src, dst, bytes);
  } else {
    flows_.start_large_flow(s, d, src, dst, bytes);
  }
}

int EmpiricalTraffic::pick_destination(int src) {
  // Rejection sampling; the experiment wiring guarantees the constraint is
  // satisfiable (>= 2 racks for InterRack), so this terminates and draws a
  // deterministic number of uniforms for a given stream position.
  for (;;) {
    const int dst = static_cast<int>(rng_.uniform_u64(static_cast<std::uint64_t>(cfg_.nodes)));
    if (dst == src) continue;
    if (cfg_.span == WorkloadSpan::InterRack && topo_.rack_of(dst) == topo_.rack_of(src)) {
      continue;
    }
    return dst;
  }
}

void EmpiricalTraffic::checkpoint(core::ckpt::Io& io) {
  io.rng(rng_);
  io.b(stopped_);
  io.u64(poisson_issued_);
  io.u64(trace_issued_);
  io.u64(trace_next_);
  io.opt_event(sched_, arrival_timer_, [this] { on_arrival(); });
  io.opt_event(sched_, trace_timer_, [this] { on_trace_due(); });
}

}  // namespace xmp::workload
