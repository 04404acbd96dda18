#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "workload/empirical.hpp"

namespace xmp::workload {

/// A parsed workload file — the scenario-as-data format behind
/// `xmpsim run --workload=FILE` (DESIGN.md §13). One directive per line,
/// `#` comments, blank lines ignored:
///
///   nodes N                  required; hosts [0, N) send and receive
///   cdf PATH                 flow-size CDF, relative to the workload file
///   load X                   default offered load per sender, (0, 1.2]
///   span any|inter-rack      destination constraint for sampled flows
///   mice-threshold BYTES     flows below this are plain-TCP mice
///   flow SRC DST BYTES START_S   one explicit flow (may repeat)
///
/// Either a `cdf` (open-loop Poisson traffic) or at least one `flow` line
/// (deterministic trace) must be present; both may be combined. Every
/// hostile input — truncated lines, NaN, negative sizes, unknown hosts,
/// unknown directives — is rejected with a one-line `file:line: message`
/// diagnostic, never silently patched.
struct WorkloadSpec {
  std::string path;      ///< source file (diagnostics; empty for streams)
  std::string name;      ///< file stem, used to label outputs
  int nodes = 0;
  WorkloadSpan span = WorkloadSpan::Any;
  EmpiricalCdf cdf;      ///< empty when the file is trace-only
  bool has_cdf = false;
  double default_load = 0.0;  ///< 0 = file sets no load (CLI must)
  std::int64_t mice_threshold = 100'000;
  std::vector<ExplicitFlow> flows;  ///< sorted by (start, file order)

  /// Parse a workload file (resolving a relative `cdf` path against the
  /// file's directory). Returns false + one-line diagnostic on any error.
  static bool parse_file(const std::string& path, WorkloadSpec& out, std::string* error);
  /// Parse from a stream; `name` labels diagnostics, `dir` anchors relative
  /// cdf paths ("" = cwd).
  static bool parse(std::istream& in, const std::string& name, const std::string& dir,
                    WorkloadSpec& out, std::string* error);

  /// Stable hash of the parsed content (nodes, span, thresholds, CDF points,
  /// explicit flows). Mixed into the checkpoint config fingerprint so a
  /// snapshot taken under one workload cannot restore under another, even
  /// if both files share a path.
  [[nodiscard]] std::uint64_t content_hash() const;
};

}  // namespace xmp::workload
