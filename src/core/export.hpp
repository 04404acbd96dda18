#pragma once

#include <string>

#include "core/experiment.hpp"

namespace xmp::core {

/// Write one row per transfer (large and small) to a CSV file:
/// id,src,dst,bytes,large,category,scheme,start_s,finish_s,completed,goodput_mbps
/// Every export returns false when the write failed (no file appears).
bool export_flows_csv(const ExperimentResults& results, const std::string& path);

/// Write the experiment configuration and summary metrics (goodput,
/// job-completion, RTT and utilization distributions, drop breakdown) as a
/// JSON document. A sweep job's result file is this document (core/orchestrator.hpp).
bool export_summary_json(const ExperimentConfig& cfg, const ExperimentResults& results,
                         const std::string& path);

/// Write one row per flow of a workload run's FCT records:
/// id,bytes,start_s,finish_s,completed,slowdown
/// Censored flows (unfinished at the horizon) carry finish_s = -1,
/// completed = 0 and slowdown = 0.
bool export_fct_csv(const ExperimentResults& results, const std::string& path);

/// Write a testbed's `sample` series: t_ns, then one column per counter
/// (ExperimentResults::Series), one row per sample time.
bool export_series_csv(const ExperimentResults& results, const std::string& path);

/// Write one row per link that saw traffic, with per-cause drop counters:
/// link,offered,delivered,drops_queue,drops_admin_down,drops_fault,drops_corrupt,drops_unroutable
/// followed by one row per switch that dropped packets for lack of a usable
/// output port (link column = "sw<id>", offered = forwarded + unroutable).
bool export_link_drops_csv(const ExperimentResults& results, const std::string& path);

}  // namespace xmp::core
