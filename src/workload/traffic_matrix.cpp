#include "workload/traffic_matrix.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>

namespace xmp::workload {

namespace {

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

bool parse_i64(const std::string& tok, std::int64_t& out) {
  if (tok.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(tok.c_str(), &end, 10);
  if (end != tok.c_str() + tok.size() || errno == ERANGE) return false;
  out = v;
  return true;
}

std::uint64_t mix64(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

std::string stem_of(const std::string& path) {
  const auto slash = path.find_last_of('/');
  std::string base = slash == std::string::npos ? path : path.substr(slash + 1);
  const auto dot = base.find_last_of('.');
  if (dot != std::string::npos && dot > 0) base.erase(dot);
  return base;
}

std::string dir_of(const std::string& path) {
  const auto slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string{} : path.substr(0, slash);
}

/// A number ending in one of `units` (suffix, scale), scaled and rounded;
/// false unless it lies in [1, 1e13] base units.
bool parse_scaled(const std::string& tok,
                  std::initializer_list<std::pair<std::string, double>> units,
                  std::int64_t& out) {
  for (const auto& [suffix, scale] : units) {
    const std::size_t n = tok.size() - std::min(tok.size(), suffix.size());
    double v = 0.0;
    if (tok.compare(n, std::string::npos, suffix) == 0 && parse_finite(tok.substr(0, n), v) &&
        v * scale >= 1.0 && v * scale <= 1e13) {
      out = std::llround(v * scale);
      return true;
    }
  }
  return false;
}

/// Bits per second: 300M, 1.2G.
bool parse_rate(const std::string& tok, std::int64_t& out) {
  return parse_scaled(tok, {{"K", 1e3}, {"M", 1e6}, {"G", 1e9}}, out);
}

/// A one-way delay: 500us, 2ms.
bool parse_delay(const std::string& tok, sim::Time& out) {
  std::int64_t ns = 0;
  const bool ok = parse_scaled(tok, {{"us", 1e3}, {"ms", 1e6}}, ns);
  out = sim::Time::nanoseconds(ns);
  return ok;
}

/// The latest time a flow line may name, in seconds: the `--duration`
/// limit. It keeps every time far inside sim::Time's int64 nanoseconds.
constexpr double kMaxTimeS = 3600.0;

/// Comma-separated finite numbers, none negative.
bool parse_list(const std::string& tok, std::vector<double>& out) {
  std::istringstream in{tok};
  for (std::string item; std::getline(in, item, ',');) {
    double v = 0.0;
    if (!parse_finite(item, v) || v < 0.0) return false;
    out.push_back(v);
  }
  return !out.empty() && tok.back() != ',';
}

/// The rest of a pinned testbed's `flow BYTES START [options]` line, which
/// runs on host pair i (file order). False with the message in `err`.
bool parse_pinned_flow(std::istream& ls, WorkloadSpec& out, std::string& err) {
  auto bad = [&err](std::string msg) {
    err = std::move(msg);
    return false;
  };
  ExplicitFlow f;
  f.src = 2 * static_cast<int>(out.flows.size());
  f.dst = f.src + 1;
  std::string c, d;
  if (!(ls >> c >> d)) return bad("truncated flow line (expected 'flow BYTES START [options]')");
  if (!parse_i64(c, f.bytes) || f.bytes <= 0) return bad("bad flow size '" + c + "'");
  if (!parse_finite(d, f.start) || f.start < 0.0) return bad("bad flow start '" + d + "'");
  const auto too_late = [&out](double x) { return x * out.unit.sec() > kMaxTimeS; };
  static const char* const kSchemes[] = {"tcp", "dctcp", "xmp", "lia", "olia", "bos"};  // Kind order
  std::set<std::string> keys;
  for (std::string opt; ls >> opt;) {
    const auto eq = std::min(opt.find('='), opt.size());
    const std::string key = opt.substr(0, eq);
    const std::string val = opt.substr(std::min(eq + 1, opt.size()));
    std::vector<double> list;
    if (!keys.insert(key).second) return bad("duplicate flow option '" + key + "'");
    if (key == "scheme") {
      const auto* k = std::find(std::begin(kSchemes), std::end(kSchemes), val);
      if (k == std::end(kSchemes)) {
        return bad("unknown scheme '" + val + "' (expected tcp|dctcp|bos|xmp|lia|olia)");
      }
      f.scheme = static_cast<SchemeSpec::Kind>(k - std::begin(kSchemes));
    } else if (key == "subflows" || key == "paths" || key == "offsets") {
      const auto whole = [](double x) { return x == std::floor(x) && x < 1e6; };
      if (!parse_list(val, list) ||
          (key != "offsets" && !std::all_of(list.begin(), list.end(), whole)) ||
          (key == "subflows" && list.size() > 1)) {
        return bad("bad " + key + " '" + val + "'");
      }
      if (key == "offsets" && std::any_of(list.begin(), list.end(), too_late)) {
        return bad("offsets '" + val + "' past 3600 s");
      }
      if (key == "paths") f.paths.assign(list.begin(), list.end());
      if (key == "offsets") f.offsets = list;
      if (key == "subflows") f.subflows = static_cast<int>(list[0]);
    } else if (key == "stop") {
      if (!parse_finite(val, f.stop)) return bad("bad stop '" + val + "'");
      if (f.stop <= f.start) return bad("stop " + val + " not after start " + d);
      if (too_late(f.stop)) return bad("stop " + val + " past 3600 s");
    } else {
      return bad("unknown flow option '" + opt +
                 "' (expected scheme=, paths=, subflows=, offsets=, stop=)");
    }
  }
  if (too_late(f.start)) return bad("flow start " + d + " past 3600 s");
  const auto declared = static_cast<int>(out.testbed.bottlenecks.size());
  for (const int p : f.paths) {
    if (p >= declared) {
      return bad("path " + std::to_string(p) + " past the last bottleneck (" +
                 std::to_string(declared) + " declared above)");
    }
  }
  if (keys.count("subflows") == 0) f.subflows = static_cast<int>(f.paths.size());
  if (f.subflows < 1 || f.subflows > 64) return bad("subflows outside 1..64");
  if (f.scheme && !SchemeSpec{*f.scheme}.multipath() &&
      (f.subflows != 1 || f.paths.size() != 1 || !f.offsets.empty())) {
    return bad("scheme=" + SchemeSpec{*f.scheme}.name() + " takes one path and no offsets");
  }
  if (!f.offsets.empty() && static_cast<int>(f.offsets.size()) != f.subflows) {
    return bad(std::to_string(f.offsets.size()) + " offsets for " + std::to_string(f.subflows) +
               " subflows");
  }
  out.flows.push_back(std::move(f));
  return true;
}

}  // namespace

bool WorkloadSpec::parse_file(const std::string& path, WorkloadSpec& out, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error) *error = path + ": cannot open workload file";
    return false;
  }
  out.path = path;
  return parse(in, path, dir_of(path), out, error);
}

bool WorkloadSpec::parse(std::istream& in, const std::string& name, const std::string& dir,
                         WorkloadSpec& out, std::string* error) {
  auto fail = [&](int line, const std::string& msg) {
    if (error) *error = name + ":" + std::to_string(line) + ": " + msg;
    return false;
  };
  out.name = stem_of(name);
  out.nodes = 0;
  out.span = WorkloadSpan::Any;
  out.cdf = {};
  out.has_cdf = false;
  out.default_load = 0.0;
  out.mice_threshold = 100'000;
  out.flows.clear();
  out.unit = sim::Time::seconds(1.0);
  out.pinned = false;
  out.testbed = {};
  out.sample = sim::Time::zero();

  bool saw_nodes = false;
  std::set<std::string> seen;  // every directive so far
  std::string f_err;
  std::string raw;
  int lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    std::istringstream ls(raw);
    std::string kw;
    if (!(ls >> kw)) continue;

    auto want_end = [&]() -> bool {
      std::string extra;
      if (ls >> extra) return fail(lineno, "trailing token '" + extra + "'");
      return true;
    };

    // Directives of one topology only, and the ones a file gives once.
    static const std::set<std::string> kFatTreeOnly = {"nodes", "cdf", "load", "span",
                                                       "mice-threshold"};
    static const std::set<std::string> kPinnedOnly = {"unit", "bottleneck", "hops", "sample"};
    if (kFatTreeOnly.count(kw) > 0 && out.pinned) {
      return fail(lineno, "'" + kw + "' has no effect in a pinned topology");
    }
    if (kPinnedOnly.count(kw) > 0 && !out.pinned) {
      return fail(lineno, "'" + kw + "' needs 'topology pinned' first");
    }
    if (!seen.insert(kw).second && (kw == "topology" || kw == "unit" || kw == "hops" ||
                                    kw == "sample")) {
      return fail(lineno, "duplicate '" + kw + "' directive");
    }
    if (kw == "topology") {
      std::string tok;
      if (seen.size() > 1) return fail(lineno, "'topology' must be the first directive");
      if (!(ls >> tok) || tok != "pinned") return fail(lineno, "expected 'topology pinned'");
      out.pinned = true;
      out.mice_threshold = 0;  // every testbed flow follows its scheme
      if (!want_end()) return false;
    } else if (kw == "unit" || kw == "sample") {
      // The flow lines' time bound reads the unit; a series holds a row
      // per millisecond at most, as the benches' time flags allow.
      const bool unit = kw == "unit";
      std::string tok;
      double v = 0.0;
      if (unit && !out.flows.empty()) return fail(lineno, "'unit' after a 'flow' line");
      if (!(ls >> tok) || !parse_finite(tok, v) || v < (unit ? 1e-6 : 1e-3) || v > kMaxTimeS) {
        return fail(lineno, std::string{"expected '"} + kw + " SECONDS' in [" +
                                (unit ? "1e-6" : "1e-3") + ", 3600]");
      }
      (kw == "unit" ? out.unit : out.sample) = sim::Time::seconds(v);
      if (!want_end()) return false;
    } else if (kw == "bottleneck") {
      std::string r, d;
      topo::PinnedPaths::BottleneckSpec b{};
      if (!(ls >> r >> d)) return fail(lineno, "expected 'bottleneck RATE DELAY'");
      if (!parse_rate(r, b.rate_bps)) return fail(lineno, "bad bottleneck rate '" + r + "'");
      if (!parse_delay(d, b.delay)) return fail(lineno, "bad bottleneck delay '" + d + "'");
      out.testbed.bottlenecks.push_back(b);
      if (!want_end()) return false;
    } else if (kw == "hops") {
      std::string r, a, i;
      topo::PinnedPaths::Config& tb = out.testbed;
      if (!(ls >> r >> a >> i)) return fail(lineno, "expected 'hops RATE ACCESS INNER'");
      if (!parse_rate(r, tb.access_rate_bps)) return fail(lineno, "bad hop rate '" + r + "'");
      if (!parse_delay(a, tb.access_delay)) return fail(lineno, "bad access delay '" + a + "'");
      if (!parse_delay(i, tb.inner_delay)) return fail(lineno, "bad inner delay '" + i + "'");
      tb.inner_rate_bps = tb.access_rate_bps;
      if (!want_end()) return false;
    } else if (kw == "nodes") {
      if (saw_nodes) return fail(lineno, "duplicate 'nodes' directive");
      std::string tok;
      std::int64_t n = 0;
      if (!(ls >> tok) || !parse_i64(tok, n))
        return fail(lineno, "expected 'nodes N' with integer N");
      if (n < 2) return fail(lineno, "need at least 2 nodes (got " + tok + ")");
      if (n > 1'000'000) return fail(lineno, "implausible node count " + tok);
      out.nodes = static_cast<int>(n);
      saw_nodes = true;
      if (!want_end()) return false;
    } else if (kw == "cdf") {
      if (out.has_cdf) return fail(lineno, "duplicate 'cdf' directive");
      std::string rel;
      if (!(ls >> rel)) return fail(lineno, "expected 'cdf PATH'");
      if (!want_end()) return false;
      const std::string full =
          (rel.front() == '/' || dir.empty()) ? rel : dir + "/" + rel;
      std::string cdf_err;
      if (!EmpiricalCdf::parse_file(full, out.cdf, &cdf_err)) {
        return fail(lineno, "in cdf '" + rel + "': " + cdf_err);
      }
      out.has_cdf = true;
    } else if (kw == "load") {
      std::string tok;
      double v = 0.0;
      if (!(ls >> tok) || !parse_finite(tok, v))
        return fail(lineno, "expected 'load X' with finite X");
      if (v <= 0.0 || v > 1.2)
        return fail(lineno, "load " + tok + " outside (0, 1.2]");
      out.default_load = v;
      if (!want_end()) return false;
    } else if (kw == "span") {
      std::string tok;
      if (!(ls >> tok)) return fail(lineno, "expected 'span any|inter-rack'");
      if (tok == "any") {
        out.span = WorkloadSpan::Any;
      } else if (tok == "inter-rack") {
        out.span = WorkloadSpan::InterRack;
      } else {
        return fail(lineno, "unknown span '" + tok + "' (expected any|inter-rack)");
      }
      if (!want_end()) return false;
    } else if (kw == "mice-threshold") {
      std::string tok;
      std::int64_t v = 0;
      if (!(ls >> tok) || !parse_i64(tok, v))
        return fail(lineno, "expected 'mice-threshold BYTES'");
      if (v < 0) return fail(lineno, "negative mice-threshold " + tok);
      out.mice_threshold = v;
      if (!want_end()) return false;
    } else if (kw == "flow" && out.pinned) {
      if (!parse_pinned_flow(ls, out, f_err)) return fail(lineno, f_err);
    } else if (kw == "flow") {
      if (!saw_nodes) return fail(lineno, "'flow' before 'nodes'");
      std::string a, b, c, d;
      if (!(ls >> a >> b >> c >> d))
        return fail(lineno, "truncated flow line (expected 'flow SRC DST BYTES START_S')");
      if (!want_end()) return false;
      std::int64_t src = 0, dst = 0, bytes = 0;
      double start = 0.0;
      if (!parse_i64(a, src)) return fail(lineno, "bad flow src '" + a + "'");
      if (!parse_i64(b, dst)) return fail(lineno, "bad flow dst '" + b + "'");
      if (!parse_i64(c, bytes)) return fail(lineno, "bad flow size '" + c + "'");
      if (!parse_finite(d, start)) return fail(lineno, "bad flow start '" + d + "'");
      if (src < 0 || src >= out.nodes)
        return fail(lineno, "unknown src host " + a + " (nodes " + std::to_string(out.nodes) + ")");
      if (dst < 0 || dst >= out.nodes)
        return fail(lineno, "unknown dst host " + b + " (nodes " + std::to_string(out.nodes) + ")");
      if (src == dst) return fail(lineno, "flow src == dst (" + a + ")");
      if (bytes <= 0) return fail(lineno, "non-positive flow size " + c);
      if (start < 0.0) return fail(lineno, "negative flow start " + d);
      if (start > kMaxTimeS) return fail(lineno, "flow start " + d + " past 3600 s");
      ExplicitFlow f;
      f.src = static_cast<int>(src);
      f.dst = static_cast<int>(dst);
      f.bytes = bytes;
      f.start = start;
      out.flows.push_back(f);
    } else {
      return fail(lineno, "unknown directive '" + kw + "'");
    }
  }
  if (out.pinned) {
    if (out.flows.empty()) return fail(lineno, "pinned topology defines no 'flow' lines");
    out.nodes = 2 * static_cast<int>(out.flows.size());
  } else if (!saw_nodes) {
    return fail(lineno, "missing required 'nodes' directive");
  }
  if (!out.has_cdf && out.flows.empty())
    return fail(lineno, "workload defines no traffic (need a 'cdf' or 'flow' lines)");
  if (!out.has_cdf && out.default_load > 0.0)
    return fail(lineno, "'load' directive without a 'cdf' has no effect");
  // The generator walks explicit flows in start order; keep file order for
  // equal timestamps (stable sort) so scenarios replay exactly as written.
  std::stable_sort(out.flows.begin(), out.flows.end(),
                   [](const ExplicitFlow& x, const ExplicitFlow& y) { return x.start < y.start; });
  return true;
}

std::uint64_t WorkloadSpec::content_hash() const {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  h = mix64(h, static_cast<std::uint64_t>(nodes));
  h = mix64(h, static_cast<std::uint64_t>(span));
  h = mix64(h, static_cast<std::uint64_t>(mice_threshold));
  std::uint64_t load_bits = 0;
  std::memcpy(&load_bits, &default_load, sizeof load_bits);
  h = mix64(h, load_bits);
  h = mix64(h, has_cdf ? 1 : 0);
  if (has_cdf) cdf.mix_fingerprint(h);
  h = mix64(h, flows.size());
  for (const ExplicitFlow& f : flows) {
    h = mix64(h, static_cast<std::uint64_t>(f.src));
    h = mix64(h, static_cast<std::uint64_t>(f.dst));
    h = mix64(h, static_cast<std::uint64_t>(f.bytes));
    h = mix64(h, static_cast<std::uint64_t>(at(f.start).ns()));
    if (!pinned) continue;
    h = mix64(h, f.scheme ? 1 + static_cast<std::uint64_t>(*f.scheme) : 0);
    h = mix64(h, static_cast<std::uint64_t>(f.subflows));
    h = mix64(h, f.paths.size());
    for (const int p : f.paths) h = mix64(h, static_cast<std::uint64_t>(p));
    h = mix64(h, f.offsets.size());
    for (const double x : f.offsets) h = mix64(h, static_cast<std::uint64_t>(at(x).ns()));
    h = mix64(h, static_cast<std::uint64_t>(f.stop < 0.0 ? -1 : at(f.stop).ns()));
  }
  if (pinned) {
    h = mix64(h, static_cast<std::uint64_t>(unit.ns()));
    h = mix64(h, static_cast<std::uint64_t>(sample.ns()));
    h = mix64(h, static_cast<std::uint64_t>(testbed.access_rate_bps));
    h = mix64(h, static_cast<std::uint64_t>(testbed.access_delay.ns()));
    h = mix64(h, static_cast<std::uint64_t>(testbed.inner_rate_bps));
    h = mix64(h, static_cast<std::uint64_t>(testbed.inner_delay.ns()));
    h = mix64(h, testbed.bottlenecks.size());
    for (const auto& b : testbed.bottlenecks) {
      h = mix64(h, static_cast<std::uint64_t>(b.rate_bps));
      h = mix64(h, static_cast<std::uint64_t>(b.delay.ns()));
    }
  }
  return h;
}

}  // namespace xmp::workload
