#pragma once

// The `--key=value` command-line parser of every binary: xmpsim, the
// benches and the examples.
//
// Args remembers every lookup. A program reads each flag only in the branch
// where it changes the run, then ends its parse with `finish()`, before any
// simulation starts: an argument that no lookup matched (a typo, a flag the
// run ignores, a stray positional) prints one line and the program exits 2,
// so a command line never silently runs a different experiment.

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace xmp::cli {

class Args {
 public:
  /// argv[first..argc) as the flags; diagnostics carry argv[0]'s basename.
  Args(int argc, char** argv, int first = 1) {
    const std::string_view self = argv[0];
    prog_ = self.substr(self.find_last_of('/') + 1);
    for (int i = first; i < argc; ++i) args_.emplace_back(argv[i]);
  }
  /// Build from a raw flag vector (a verify leg, a campaign's stored argv).
  explicit Args(std::vector<std::string> raw) : args_{std::move(raw)} {}

  [[nodiscard]] const std::string& prog() const { return prog_; }
  /// The flags verbatim, in order.
  [[nodiscard]] const std::vector<std::string>& raw() const { return args_; }

  /// Adds flags behind the current ones. `get` returns the *first* match,
  /// so the current flags override the added ones.
  void append(const std::vector<std::string>& more) {
    args_.insert(args_.end(), more.begin(), more.end());
  }

  /// `--key=VALUE`'s value, or `fallback` when absent. Every `--key=`
  /// token counts as read, the shadowed ones too.
  [[nodiscard]] std::string get(const std::string& key, const std::string& fallback) const {
    const std::string prefix = "--" + key + "=";
    read_.insert(prefix);
    for (const auto& a : args_) {
      if (a.rfind(prefix, 0) == 0) return a.substr(prefix.size());
    }
    return fallback;
  }

  /// Bare boolean flag (`--invariants`, no value).
  [[nodiscard]] bool has(const std::string& key) const {
    const std::string flag = "--" + key;
    read_.insert(flag);
    for (const auto& a : args_) {
      if (a == flag) return true;
    }
    return false;
  }

  /// One stderr line per argument no lookup matched: "unknown flag" when
  /// `usage` never names its key, else "has no effect on this run".
  /// Returns true when every argument was read.
  [[nodiscard]] bool finish(std::string_view usage = {}) const {
    bool ok = true;
    for (const auto& a : args_) {
      const auto eq = a.find('=');
      if (read_.count(eq == std::string::npos ? a : a.substr(0, eq + 1)) > 0) continue;
      ok = false;
      if (a.rfind("--", 0) != 0) {
        std::fprintf(stderr, "%s: unexpected argument '%s'\n", prog_.c_str(), a.c_str());
      } else if (names(usage, a.substr(0, eq))) {
        std::fprintf(stderr, "%s: %s has no effect on this run\n", prog_.c_str(), a.c_str());
      } else {
        std::fprintf(stderr, "%s: unknown flag %s\n", prog_.c_str(), a.c_str());
      }
    }
    return ok;
  }

 private:
  /// Whether `text` mentions `flag` as a whole word ("--hybrid" is not
  /// named by "--hybrid-bg").
  static bool names(std::string_view text, std::string_view flag) {
    for (auto at = text.find(flag); at != std::string_view::npos; at = text.find(flag, at + 1)) {
      const char next = at + flag.size() < text.size() ? text[at + flag.size()] : ' ';
      if (next != '-' && (next < 'a' || next > 'z')) return true;
    }
    return false;
  }

  std::string prog_ = "xmpsim";
  std::vector<std::string> args_;
  mutable std::set<std::string> read_;  ///< "--key=" per get, "--key" per has
};

/// Strict numeric parsing: the whole token must be consumed, no overflow.
inline bool parse_number(const std::string& v, double& out) {
  if (v.empty()) return false;
  errno = 0;
  char* end = nullptr;
  out = std::strtod(v.c_str(), &end);
  return errno == 0 && end != nullptr && *end == '\0';
}

inline bool parse_integer(const std::string& v, std::int64_t& out) {
  if (v.empty()) return false;
  errno = 0;
  char* end = nullptr;
  out = std::strtoll(v.c_str(), &end, 10);
  return errno == 0 && end != nullptr && *end == '\0';
}

/// Validated flag accessors. A missing flag yields `fallback` untouched; a
/// present-but-malformed or out-of-range value prints one line naming the
/// flag, the value and the accepted range, and clears `ok` (callers exit 2).
inline double flag_d(const Args& args, const char* key, double fallback, double lo, double hi,
                     bool& ok) {
  const std::string v = args.get(key, "");
  if (v.empty()) return fallback;
  double out = 0;
  if (!parse_number(v, out) || out < lo || out > hi) {
    std::fprintf(stderr, "%s: bad --%s=%s (expected a number in [%g, %g])\n",
                 args.prog().c_str(), key, v.c_str(), lo, hi);
    ok = false;
    return fallback;
  }
  return out;
}

inline std::int64_t flag_i(const Args& args, const char* key, std::int64_t fallback,
                           std::int64_t lo, std::int64_t hi, bool& ok) {
  const std::string v = args.get(key, "");
  if (v.empty()) return fallback;
  std::int64_t out = 0;
  if (!parse_integer(v, out) || out < lo || out > hi) {
    std::fprintf(stderr, "%s: bad --%s=%s (expected an integer in [%lld, %lld])\n",
                 args.prog().c_str(), key, v.c_str(), static_cast<long long>(lo),
                 static_cast<long long>(hi));
    ok = false;
    return fallback;
  }
  return out;
}

/// `--k`, the Fat-Tree arity: an even integer in [2, 64].
inline int flag_k(const Args& args, int fallback, bool& ok) {
  const auto k = static_cast<int>(flag_i(args, "k", fallback, 2, 64, ok));
  if (k % 2 == 0) return k;
  std::fprintf(stderr, "%s: bad --k=%d (expected an even integer in [2, 64])\n",
               args.prog().c_str(), k);
  ok = false;
  return fallback;
}

/// Comma-separated numbers (`--values=1,2,3`); empty when absent.
inline std::vector<double> flag_list(const Args& args, const char* key, bool& ok) {
  std::vector<double> out;
  std::string v = args.get(key, "");
  while (!v.empty()) {
    const auto comma = v.find(',');
    const std::string token = v.substr(0, comma);
    double num = 0;
    if (!parse_number(token, num)) {
      std::fprintf(stderr, "%s: bad --%s entry '%s' (expected a number)\n", args.prog().c_str(),
                   key, token.c_str());
      ok = false;
      return {};
    }
    out.push_back(num);
    if (comma == std::string::npos) break;
    v = v.substr(comma + 1);
  }
  return out;
}

}  // namespace xmp::cli
