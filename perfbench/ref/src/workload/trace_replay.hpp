#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/scheduler.hpp"
#include "topo/host_pool.hpp"
#include "workload/flow_manager.hpp"

namespace xmp::workload {

/// One transfer in a trace file.
struct TraceEntry {
  double start_s = 0.0;
  int src = 0;
  int dst = 0;
  std::int64_t bytes = 0;
  bool small = false;  ///< small flows use plain TCP regardless of scheme
};

/// Parse a flow-trace CSV: `start_s,src,dst,bytes[,small]` with an optional
/// header line. Returns false on malformed input (partial results cleared).
[[nodiscard]] bool load_trace_csv(const std::string& path, std::vector<TraceEntry>& out);

/// Write entries back out in the same format (round-trip tooling).
void save_trace_csv(const std::string& path, const std::vector<TraceEntry>& entries);

/// Replays a recorded or synthesized flow trace against a Fat-Tree — the
/// mechanism for driving the simulator from production-style traces
/// instead of the paper's synthetic patterns.
class TraceReplay {
 public:
  TraceReplay(sim::Scheduler& sched, topo::HostPool& topo, FlowManager& flows,
              std::vector<TraceEntry> entries)
      : sched_{sched}, topo_{topo}, flows_{flows}, entries_{std::move(entries)} {}

  /// Schedule every entry (start times are relative to now()).
  void start();

  [[nodiscard]] std::size_t scheduled() const { return entries_.size(); }
  [[nodiscard]] std::size_t skipped_invalid() const { return skipped_; }

 private:
  sim::Scheduler& sched_;
  topo::HostPool& topo_;
  FlowManager& flows_;
  std::vector<TraceEntry> entries_;
  std::size_t skipped_ = 0;
};

}  // namespace xmp::workload
