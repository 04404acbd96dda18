#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "topo/pinned.hpp"
#include "workload/empirical.hpp"

namespace xmp::workload {

/// A parsed workload file — the scenario-as-data format behind
/// `xmpsim run --workload=FILE` (DESIGN.md §13). One directive per line,
/// `#` comments, blank lines ignored:
///
///   topology pinned          first directive if present (else a Fat-Tree)
///   nodes N                  required; hosts [0, N) send and receive
///   cdf PATH                 flow-size CDF, relative to the workload file
///   load X                   default offered load per sender, (0, 1.2]
///   span any|inter-rack      destination constraint for sampled flows
///   mice-threshold BYTES     flows below this are plain-TCP mice
///   flow SRC DST BYTES START one explicit flow (may repeat)
///
/// Either a `cdf` (open-loop Poisson traffic) or at least one `flow` line
/// (deterministic trace) must be present; both may be combined. A
/// `topology pinned` file is one of the paper's testbeds instead: its
/// `unit`, `bottleneck`, `hops`, `sample` and `flow BYTES START [options]`
/// lines are tabled in DESIGN.md §13. No flow time may pass 3600 s. Every hostile input — truncated lines,
/// NaN, negative sizes, unknown hosts, unknown directives — is rejected
/// with a one-line `file:line: message` diagnostic, never silently patched.
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

  // --- a pinned testbed (`topology pinned`) ---
  bool pinned = false;
  sim::Time unit = sim::Time::seconds(1.0);  ///< of every flow time; 1 s in a Fat-Tree
  /// Bottlenecks and hops; the run's config supplies the bottleneck queue.
  topo::PinnedPaths::Config testbed;
  sim::Time sample = sim::Time::zero();  ///< series cadence; zero = no series

  /// `units` of this file's time unit as simulated time.
  [[nodiscard]] sim::Time at(double units) const { return in_units(units, unit); }

  /// Parse a workload file (resolving a relative `cdf` path against the
  /// file's directory). Returns false + one-line diagnostic on any error.
  static bool parse_file(const std::string& path, WorkloadSpec& out, std::string* error);
  /// Parse from a stream; `name` labels diagnostics, `dir` anchors relative
  /// cdf paths ("" = cwd).
  static bool parse(std::istream& in, const std::string& name, const std::string& dir,
                    WorkloadSpec& out, std::string* error);

  /// Stable hash of the parsed content (nodes, span, thresholds, CDF points,
  /// explicit flows, the unit and every testbed field). Mixed into the checkpoint config fingerprint so a
  /// snapshot taken under one workload cannot restore under another, even
  /// if both files share a path.
  [[nodiscard]] std::uint64_t content_hash() const;
};

}  // namespace xmp::workload
