#include "workload/traffic_matrix.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
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

  bool saw_nodes = false;
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

    if (kw == "nodes") {
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
      ExplicitFlow f;
      f.src = static_cast<int>(src);
      f.dst = static_cast<int>(dst);
      f.bytes = bytes;
      f.start = sim::Time::seconds(start);
      out.flows.push_back(f);
    } else {
      return fail(lineno, "unknown directive '" + kw + "'");
    }
  }
  if (!saw_nodes) return fail(lineno, "missing required 'nodes' directive");
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
    h = mix64(h, static_cast<std::uint64_t>(f.start.ns()));
  }
  return h;
}

}  // namespace xmp::workload
