#include "core/export.hpp"

#include "trace/writers.hpp"

namespace xmp::core {
namespace {

void write_distribution(trace::JsonWriter& json, const char* name,
                        const stats::Distribution& d) {
  json.key(name);
  json.begin_object();
  json.kv("count", static_cast<std::uint64_t>(d.count()));
  if (!d.empty()) {
    json.kv("mean", d.mean());
    json.kv("min", d.min());
    json.kv("p10", d.percentile(10));
    json.kv("p50", d.percentile(50));
    json.kv("p90", d.percentile(90));
    json.kv("max", d.max());
  }
  json.end_object();
}

}  // namespace

bool export_flows_csv(const ExperimentResults& results, const std::string& path) {
  trace::CsvWriter csv{path};
  csv.header({"id", "src", "dst", "bytes", "large", "category", "scheme", "start_s",
              "finish_s", "completed", "goodput_mbps"});
  for (std::size_t i = 0; i < results.flows.size(); ++i) {
    const auto& rec = results.flows[i];
    csv.field(static_cast<std::uint64_t>(rec.id))
        .field(rec.src_host)
        .field(rec.dst_host)
        .field(rec.bytes)
        .field(rec.large ? 1 : 0)
        .field(topo::FatTree::category_name(results.flow_category[i]))
        .field(results.flow_scheme[i])
        .field(rec.start.sec())
        .field(rec.completed ? rec.finish.sec() : -1.0)
        .field(rec.completed ? 1 : 0)
        .field(rec.goodput_bps() / 1e6);
    csv.end_row();
  }
  return csv.close();
}

bool export_fct_csv(const ExperimentResults& results, const std::string& path) {
  trace::CsvWriter csv{path};
  csv.header({"id", "bytes", "start_s", "finish_s", "completed", "slowdown"});
  for (const auto& r : results.fct_records) {
    csv.field(static_cast<std::uint64_t>(r.id))
        .field(r.bytes)
        .field(static_cast<double>(r.start_ns) / 1e9)
        .field(r.completed ? static_cast<double>(r.finish_ns) / 1e9 : -1.0)
        .field(r.completed ? 1 : 0)
        .field(r.slowdown);
    csv.end_row();
  }
  return csv.close();
}

bool export_link_drops_csv(const ExperimentResults& results, const std::string& path) {
  trace::CsvWriter csv{path};
  csv.header({"link", "offered", "delivered", "drops_queue", "drops_admin_down", "drops_fault",
              "drops_corrupt", "drops_unroutable", "duplicated", "delayed", "overmarked"});
  for (const auto& row : results.link_drops) {
    csv.field(static_cast<std::uint64_t>(row.link))
        .field(row.offered)
        .field(row.delivered)
        .field(row.drops.queue)
        .field(row.drops.admin_down)
        .field(row.drops.fault)
        .field(row.drops.corrupt)
        .field(std::uint64_t{0})
        .field(row.duplicated)
        .field(row.delayed)
        .field(row.overmarked);
    csv.end_row();
  }
  // Unroutable packets die inside a switch, before any link sees them, so
  // they get their own rows rather than being misattributed to a link.
  for (const auto& row : results.switch_drops) {
    csv.field("sw" + std::to_string(row.node))
        .field(row.forwarded + row.unroutable)
        .field(row.forwarded)
        .field(std::uint64_t{0})
        .field(std::uint64_t{0})
        .field(std::uint64_t{0})
        .field(std::uint64_t{0})
        .field(row.unroutable)
        .field(std::uint64_t{0})
        .field(std::uint64_t{0})
        .field(std::uint64_t{0});
    csv.end_row();
  }
  return csv.close();
}

bool export_summary_json(const ExperimentConfig& cfg, const ExperimentResults& results,
                         const std::string& path) {
  trace::JsonWriter json{path};
  json.begin_object();

  json.key("config");
  json.begin_object();
  json.kv("scheme", cfg.scheme.name());
  if (cfg.scheme_b) json.kv("scheme_b", cfg.scheme_b->name());
  json.kv("pattern", pattern_name(cfg.pattern));
  json.kv("fat_tree_k", static_cast<std::int64_t>(cfg.fat_tree_k));
  json.kv("queue_capacity", static_cast<std::uint64_t>(cfg.queue_capacity));
  json.kv("mark_threshold", static_cast<std::uint64_t>(cfg.mark_threshold));
  json.kv("duration_s", cfg.duration.sec());
  json.kv("seed", cfg.seed);
  json.kv("routing", route::policy_name(cfg.routing.kind));
  if (cfg.pattern == Pattern::Workload && cfg.workload) {
    json.kv("workload", cfg.workload->name);
    json.kv("offered_load", results.fct.offered_load);
  }
  json.end_object();

  json.key("summary");
  json.begin_object();
  json.kv("sim_duration_s", results.sim_duration.sec());
  json.kv("events", results.events_dispatched);
  json.kv("flows", static_cast<std::uint64_t>(results.flows.size()));
  json.kv("jobs", static_cast<std::uint64_t>(results.jobs.size()));
  json.kv("avg_goodput_mbps", results.avg_goodput_mbps());
  if (cfg.scheme_b) json.kv("avg_goodput_b_mbps", results.avg_goodput_b_mbps());
  if (!results.jobs.empty()) {
    json.kv("avg_job_completion_ms", results.avg_job_completion_ms());
    json.kv("jobs_over_300ms", results.job_completion_over_ms(300.0));
  }
  json.kv("aborted_flows", results.aborted_flows);
  if (results.invariant_checks > 0) {
    json.kv("invariant_checks", results.invariant_checks);
    json.kv("invariant_violations",
            static_cast<std::uint64_t>(results.invariant_violations.size()));
  }
  json.end_object();

  json.key("drops");
  json.begin_object();
  json.kv("offered", results.drops.offered);
  json.kv("delivered", results.drops.delivered);
  json.kv("queue", results.drops.queue);
  json.kv("admin_down", results.drops.admin_down);
  json.kv("fault", results.drops.fault);
  json.kv("corrupt", results.drops.corrupt);
  json.kv("unroutable", results.switch_unroutable);
  json.end_object();

  // Gray-failure impairments: packets the fault layer touched but did not
  // drop. Zero in healthy runs; byte-stable either way.
  json.key("impairments");
  json.begin_object();
  json.kv("duplicated", results.drops.duplicated);
  json.kv("delayed", results.drops.delayed);
  json.kv("overmarked", results.drops.overmarked);
  json.end_object();

  json.key("routing");
  json.begin_object();
  json.kv("policy", route::policy_name(cfg.routing.kind));
  json.kv("forwarded", results.switch_forwarded);
  json.kv("unroutable", results.switch_unroutable);
  json.kv("reroutes", results.route_reroutes);
  json.kv("collisions", results.route_collisions);
  json.kv("flowlet_repaths", results.flowlet_repaths);
  json.kv("path_rehomes", results.path_rehomes);
  json.end_object();

  // Every field is a function of the logical shard structure, never of the
  // worker count, so the block is safe in byte-compared output.
  json.key("sharding");
  json.begin_object();
  json.kv("logical_shards", static_cast<std::int64_t>(results.shard.logical_shards));
  json.kv("lookahead_us", results.shard.lookahead_us);
  json.kv("epochs", results.shard.epochs);
  json.kv("barriers", results.shard.barriers);
  json.kv("handoff_packets", results.shard.handoff_packets);
  json.end_object();

  if (results.fct.enabled()) {
    // FCT-slowdown block (empirical workloads): exact nearest-rank
    // percentiles per flow-size bin, plus explicit censoring counts so a
    // reader can tell how much of the open-loop arrival mass finished.
    json.key("fct");
    json.begin_object();
    json.kv("offered_load", results.fct.offered_load);
    json.kv("arrival_rate_fps", results.fct.arrival_rate);
    json.kv("completed", results.fct.completed);
    json.kv("censored", results.fct.censored);
    auto write_slowdown = [&](const char* name, const stats::Distribution& d) {
      json.key(name);
      json.begin_object();
      json.kv("count", static_cast<std::uint64_t>(d.count()));
      if (d.count() > 0) {
        json.kv("mean", d.mean());
        json.kv("p50", d.percentile(50));
        json.kv("p95", d.percentile(95));
        json.kv("p99", d.percentile(99));
        json.kv("max", d.max());
      }
      json.end_object();
    };
    write_slowdown("all", results.fct.slowdown_all);
    json.key("bins");
    json.begin_object();
    for (int b = 0; b < ExperimentResults::FctStats::kBins; ++b) {
      write_slowdown(ExperimentResults::FctStats::bin_name(b), results.fct.slowdown_by_bin[b]);
    }
    json.end_object();
    json.end_object();
  }

  if (results.hybrid.enabled) {
    json.key("hybrid");
    json.begin_object();
    json.kv("bg_flows", static_cast<std::int64_t>(results.hybrid.bg_flows));
    json.kv("fg_flows", static_cast<std::int64_t>(results.hybrid.fg_flows));
    json.kv("active_fluid", static_cast<std::int64_t>(results.hybrid.active_fluid));
    json.kv("ticks", results.hybrid.ticks);
    json.kv("promotions", results.hybrid.promotions);
    json.kv("fluid_completions", results.hybrid.fluid_completions);
    json.kv("fluid_bytes", results.hybrid.fluid_bytes);
    json.kv("fluid_throughput_mbps", results.hybrid.fluid_throughput_mbps);
    json.kv("mean_mark_p", results.hybrid.mean_mark_p);
    json.end_object();
  }

  json.key("goodput_mbps");
  json.begin_object();
  write_distribution(json, "all", results.goodput);
  for (int c = 0; c < 3; ++c) {
    write_distribution(json, topo::FatTree::category_name(static_cast<topo::FatTree::Category>(c)),
                       results.goodput_by_category[c]);
  }
  json.end_object();

  json.key("rtt_ms");
  json.begin_object();
  for (int c = 0; c < 3; ++c) {
    write_distribution(json, topo::FatTree::category_name(static_cast<topo::FatTree::Category>(c)),
                       results.rtt_by_category[c]);
  }
  json.end_object();

  json.key("utilization");
  json.begin_object();
  for (int l = 0; l < 3; ++l) {
    write_distribution(json, topo::FatTree::layer_name(static_cast<topo::FatTree::Layer>(l)),
                       results.utilization_by_layer[l]);
  }
  json.end_object();

  json.end_object();
  return json.close();
}

}  // namespace xmp::core
