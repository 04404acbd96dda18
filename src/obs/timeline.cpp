#include "obs/timeline.hpp"

#include <cassert>
#include <map>
#include <set>

#include "trace/writers.hpp"

namespace xmp::obs {

TimelineTracer::TimelineTracer(const Config& cfg) : cfg_{cfg} {
  assert(cfg_.capacity > 0);
  assert((cfg_.sched_sample_stride & (cfg_.sched_sample_stride - 1)) == 0 &&
         "sched_sample_stride must be a power of two");
  ring_.resize(cfg_.capacity);  // preallocated: record() never allocates
}

const char* TimelineTracer::kind_name(EventKind k) {
  switch (k) {
    case EventKind::Cwnd:
      return "cwnd";
    case EventKind::Srtt:
      return "srtt";
    case EventKind::Gain:
      return "gain";
    case EventKind::EcnMark:
      return "ecn_mark";
    case EventKind::QueueSample:
      return "queue_sample";
    case EventKind::LinkState:
      return "link_state";
    case EventKind::Fault:
      return "fault";
    case EventKind::SubflowDead:
      return "subflow_dead";
    case EventKind::Reinjection:
      return "reinjection";
    case EventKind::FlowStart:
      return "flow_start";
    case EventKind::FlowDone:
      return "flow_done";
    case EventKind::FlowAbort:
      return "flow_abort";
    case EventKind::Rto:
      return "rto";
    case EventKind::Drop:
      return "drop";
    case EventKind::SchedSample:
      return "sched_sample";
    case EventKind::Reroute:
      return "reroute";
    case EventKind::PathRehome:
      return "path_rehome";
    case EventKind::JobSpawn:
      return "job_spawn";
    case EventKind::JobOutcome:
      return "job_outcome";
    case EventKind::JobRetry:
      return "job_retry";
    case EventKind::JobExhausted:
      return "job_exhausted";
    case EventKind::ShardEpoch:
      return "shard_epoch";
    case EventKind::ShardBarrier:
      return "shard_barrier";
    case EventKind::CkptWrite:
      return "ckpt_write";
    case EventKind::CkptRestore:
      return "ckpt_restore";
    case EventKind::Impair:
      return "impair";
  }
  return "?";
}

std::uint32_t TimelineTracer::category_of(EventKind k) {
  switch (k) {
    case EventKind::Cwnd:
      return cat::kCwnd;
    case EventKind::Srtt:
      return cat::kSrtt;
    case EventKind::Gain:
      return cat::kGain;
    case EventKind::EcnMark:
      return cat::kEcn;
    case EventKind::QueueSample:
      return cat::kQueue;
    case EventKind::LinkState:
    case EventKind::Fault:
    case EventKind::SubflowDead:
    case EventKind::Impair:
      return cat::kFault;
    case EventKind::Reinjection:
    case EventKind::FlowStart:
    case EventKind::FlowDone:
    case EventKind::FlowAbort:
      return cat::kFlow;
    case EventKind::Rto:
    case EventKind::Drop:
      return cat::kDrop;
    case EventKind::SchedSample:
      return cat::kSched;
    case EventKind::Reroute:
    case EventKind::PathRehome:
      return cat::kRoute;
    case EventKind::JobSpawn:
    case EventKind::JobOutcome:
    case EventKind::JobRetry:
    case EventKind::JobExhausted:
    case EventKind::ShardEpoch:
    case EventKind::ShardBarrier:
    case EventKind::CkptWrite:
    case EventKind::CkptRestore:
      return cat::kHarness;
  }
  return 0;
}

bool TimelineTracer::parse_filter(const std::string& filter, std::uint32_t& mask,
                                  std::string* error) {
  static const std::map<std::string, std::uint32_t> kNames = {
      {"cwnd", cat::kCwnd},   {"srtt", cat::kSrtt}, {"gain", cat::kGain},
      {"ecn", cat::kEcn},     {"queue", cat::kQueue}, {"fault", cat::kFault},
      {"flow", cat::kFlow},   {"drop", cat::kDrop}, {"sched", cat::kSched},
      {"route", cat::kRoute}, {"harness", cat::kHarness}, {"all", cat::kAll},
  };
  if (filter.empty()) {
    mask = cat::kAll;
    return true;
  }
  std::uint32_t out = 0;
  std::size_t start = 0;
  while (start <= filter.size()) {
    const std::size_t comma = filter.find(',', start);
    const std::size_t end = comma == std::string::npos ? filter.size() : comma;
    const std::string token = filter.substr(start, end - start);
    if (!token.empty()) {
      const auto it = kNames.find(token);
      if (it == kNames.end()) {
        if (error != nullptr) *error = "unknown trace category '" + token + "'";
        return false;
      }
      out |= it->second;
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (out == 0) {
    if (error != nullptr) *error = "empty trace filter";
    return false;
  }
  mask = out;
  return true;
}

bool TimelineTracer::export_csv(const std::string& path) const {
  trace::CsvWriter csv{path};
  csv.header({"t_ns", "kind", "id", "subflow", "aux", "a", "b"});
  for_each([&](const TimelineEvent& e) {
    csv.field(e.t_ns)
        .field(std::string{kind_name(e.kind)})
        .field(static_cast<std::uint64_t>(e.id))
        .field(static_cast<std::int64_t>(e.subflow))
        .field(static_cast<std::int64_t>(e.aux))
        .field(e.a)
        .field(e.b);
    csv.end_row();
  });
  return csv.close();
}

namespace {

// Perfetto "process" ids: the scheduler gets pid 1, every flow an even pid,
// every link an odd pid — compact, collision-free, and stable across runs.
constexpr std::int64_t kSchedPid = 1;
std::int64_t flow_pid(std::uint32_t flow) { return 2 + 2 * static_cast<std::int64_t>(flow); }
std::int64_t link_pid(std::uint32_t link) { return 3 + 2 * static_cast<std::int64_t>(link); }

void event_common(trace::JsonWriter& json, const char* name, const char* ph, std::int64_t pid,
                  std::int64_t t_ns) {
  json.kv("name", name);
  json.kv("ph", ph);
  json.kv("pid", pid);
  // Chrome trace timestamps are microseconds; keep sub-µs precision.
  json.kv("ts", static_cast<double>(t_ns) / 1000.0);
}

}  // namespace

bool TimelineTracer::export_chrome_json(const std::string& path) const {
  // Pass 1: discover the tracks so every process/thread can be named.
  std::map<std::uint32_t, std::set<std::uint8_t>> flow_subflows;
  std::set<std::uint32_t> links;
  for_each([&](const TimelineEvent& e) {
    switch (e.kind) {
      case EventKind::Cwnd:
      case EventKind::Srtt:
      case EventKind::Gain:
      case EventKind::SubflowDead:
      case EventKind::Reinjection:
      case EventKind::Rto:
      case EventKind::PathRehome:
        flow_subflows[e.id].insert(e.subflow);
        break;
      case EventKind::FlowStart:
      case EventKind::FlowDone:
      case EventKind::FlowAbort:
      // Orchestrated sweep jobs reuse the flow track space: a harness trace
      // contains only jobs, so there is no id collision in practice.
      case EventKind::JobSpawn:
      case EventKind::JobOutcome:
      case EventKind::JobRetry:
      case EventKind::JobExhausted:
        flow_subflows[e.id];  // ensure the process exists even if filtered
        break;
      case EventKind::EcnMark:
      case EventKind::QueueSample:
      case EventKind::LinkState:
      case EventKind::Drop:
      case EventKind::Reroute:
      case EventKind::Impair:
        links.insert(e.id);
        break;
      case EventKind::Fault:
      case EventKind::SchedSample:
      case EventKind::ShardEpoch:
      case EventKind::ShardBarrier:
      case EventKind::CkptWrite:
      case EventKind::CkptRestore:
        break;
    }
  });

  trace::JsonWriter json{path};
  json.begin_object();
  json.kv("displayTimeUnit", "ms");
  json.key("otherData");
  json.begin_object();
  json.kv("tool", "xmpsim TimelineTracer");
  json.kv("events", static_cast<std::uint64_t>(count_));
  json.kv("dropped_oldest", dropped_);
  json.end_object();

  json.key("traceEvents");
  json.begin_array();

  auto name_process = [&](std::int64_t pid, const std::string& name) {
    json.begin_object();
    json.kv("name", "process_name");
    json.kv("ph", "M");
    json.kv("pid", pid);
    json.key("args");
    json.begin_object();
    json.kv("name", name);
    json.end_object();
    json.end_object();
  };

  name_process(kSchedPid, "scheduler");
  for (const auto& [flow, subflows] : flow_subflows) {
    const auto it = flow_names_.find(flow);
    name_process(flow_pid(flow),
                 it != flow_names_.end() ? it->second : "flow " + std::to_string(flow));
    for (const std::uint8_t sf : subflows) {
      json.begin_object();
      json.kv("name", "thread_name");
      json.kv("ph", "M");
      json.kv("pid", flow_pid(flow));
      json.kv("tid", static_cast<std::int64_t>(sf));
      json.key("args");
      json.begin_object();
      json.kv("name", "subflow " + std::to_string(sf));
      json.end_object();
      json.end_object();
    }
  }
  for (const std::uint32_t link : links) {
    const auto it = link_names_.find(link);
    name_process(link_pid(link),
                 it != link_names_.end() ? it->second : "link " + std::to_string(link));
  }

  // Pass 2: the events themselves, oldest first.
  for_each([&](const TimelineEvent& e) {
    json.begin_object();
    switch (e.kind) {
      // Per-subflow counter tracks inside the flow's process. The subflow
      // index is baked into the counter name ("C" events aggregate per
      // (pid, name)), so each subflow draws its own track in Perfetto.
      case EventKind::Cwnd: {
        const std::string n = "cwnd[" + std::to_string(e.subflow) + "]";
        event_common(json, n.c_str(), "C", flow_pid(e.id), e.t_ns);
        json.key("args");
        json.begin_object();
        json.kv("segments", e.a);
        json.end_object();
        break;
      }
      case EventKind::Srtt: {
        const std::string n = "srtt_us[" + std::to_string(e.subflow) + "]";
        event_common(json, n.c_str(), "C", flow_pid(e.id), e.t_ns);
        json.key("args");
        json.begin_object();
        json.kv("us", e.a);
        json.end_object();
        break;
      }
      case EventKind::Gain: {
        const std::string n = "gain[" + std::to_string(e.subflow) + "]";
        event_common(json, n.c_str(), "C", flow_pid(e.id), e.t_ns);
        json.key("args");
        json.begin_object();
        json.kv("delta", e.a);
        json.end_object();
        break;
      }
      case EventKind::QueueSample:
        event_common(json, "qlen", "C", link_pid(e.id), e.t_ns);
        json.key("args");
        json.begin_object();
        json.kv("packets", e.a);
        json.end_object();
        break;
      case EventKind::SchedSample:
        event_common(json, "scheduler", "C", kSchedPid, e.t_ns);
        json.key("args");
        json.begin_object();
        json.kv("pending", e.a);
        json.kv("dispatched", e.b);
        json.end_object();
        break;

      case EventKind::EcnMark:
        event_common(json, "CE mark", "i", link_pid(e.id), e.t_ns);
        json.kv("s", "p");
        json.key("args");
        json.begin_object();
        json.kv("qlen", e.a);
        json.end_object();
        break;
      case EventKind::LinkState:
        event_common(json, e.aux != 0 ? "link down" : "link up", "i", link_pid(e.id), e.t_ns);
        json.kv("s", "p");
        break;
      case EventKind::Drop:
        event_common(json, "drop", "i", link_pid(e.id), e.t_ns);
        json.kv("s", "p");
        json.key("args");
        json.begin_object();
        json.kv("cause", static_cast<std::int64_t>(e.aux));
        json.end_object();
        break;
      case EventKind::Impair: {
        const char* name = "impair";
        switch (static_cast<ImpairKind>(e.aux)) {
          case ImpairKind::Delay: name = "impair (delay)"; break;
          case ImpairKind::Reorder: name = "impair (reorder)"; break;
          case ImpairKind::Duplicate: name = "impair (duplicate)"; break;
          case ImpairKind::Overmark: name = "impair (overmark)"; break;
        }
        event_common(json, name, "i", link_pid(e.id), e.t_ns);
        json.kv("s", "p");
        break;
      }
      case EventKind::Fault:
        event_common(json, "fault", "i", kSchedPid, e.t_ns);
        json.kv("s", "g");
        json.key("args");
        json.begin_object();
        json.kv("kind", static_cast<std::int64_t>(e.aux));
        json.kv("target", static_cast<std::int64_t>(e.id));
        json.end_object();
        break;

      case EventKind::SubflowDead:
        event_common(json, "subflow dead", "i", flow_pid(e.id), e.t_ns);
        json.kv("tid", static_cast<std::int64_t>(e.subflow));
        json.kv("s", "t");
        json.key("args");
        json.begin_object();
        json.kv("survivors", e.a);
        json.end_object();
        break;
      case EventKind::Reinjection:
        event_common(json, "reinject", "i", flow_pid(e.id), e.t_ns);
        json.kv("tid", static_cast<std::int64_t>(e.subflow));
        json.kv("s", "t");
        json.key("args");
        json.begin_object();
        json.kv("segments", e.a);
        json.end_object();
        break;
      case EventKind::Rto:
        event_common(json, "rto", "i", flow_pid(e.id), e.t_ns);
        json.kv("tid", static_cast<std::int64_t>(e.subflow));
        json.kv("s", "t");
        json.key("args");
        json.begin_object();
        json.kv("backoff", e.a);
        json.end_object();
        break;

      case EventKind::FlowStart:
        event_common(json, "flow start", "i", flow_pid(e.id), e.t_ns);
        json.kv("s", "p");
        json.key("args");
        json.begin_object();
        json.kv("bytes", e.a);
        json.kv("large", e.aux != 0);
        json.end_object();
        break;
      case EventKind::FlowDone:
        event_common(json, "flow done", "i", flow_pid(e.id), e.t_ns);
        json.kv("s", "p");
        json.key("args");
        json.begin_object();
        json.kv("fct_us", e.a);
        json.kv("goodput_mbps", e.b);
        json.end_object();
        break;
      case EventKind::FlowAbort:
        event_common(json, "flow abort", "i", flow_pid(e.id), e.t_ns);
        json.kv("s", "p");
        break;

      case EventKind::Reroute:
        event_common(json, e.aux != 0 ? "reroute (port down)" : "reroute (port up)", "i",
                     link_pid(e.id), e.t_ns);
        json.kv("s", "p");
        json.key("args");
        json.begin_object();
        json.kv("switch", e.a);
        json.kv("alive_ports", e.b);
        json.end_object();
        break;
      case EventKind::PathRehome:
        event_common(json, "path rehome", "i", flow_pid(e.id), e.t_ns);
        json.kv("tid", static_cast<std::int64_t>(e.subflow));
        json.kv("s", "t");
        json.key("args");
        json.begin_object();
        json.kv("new_tag", e.a);
        json.kv("attempt", static_cast<std::int64_t>(e.aux));
        json.end_object();
        break;

      case EventKind::JobSpawn:
        event_common(json, "job spawn", "i", flow_pid(e.id), e.t_ns);
        json.kv("s", "p");
        json.key("args");
        json.begin_object();
        json.kv("attempt", e.a);
        json.end_object();
        break;
      case EventKind::JobOutcome: {
        const char* name = "job outcome";
        switch (static_cast<JobOutcomeCode>(e.aux)) {
          case JobOutcomeCode::Ok: name = "job ok"; break;
          case JobOutcomeCode::Exit: name = "job failed (exit)"; break;
          case JobOutcomeCode::Signal: name = "job crashed (signal)"; break;
          case JobOutcomeCode::Timeout: name = "job timeout"; break;
          case JobOutcomeCode::MissingResult: name = "job missing result"; break;
        }
        event_common(json, name, "i", flow_pid(e.id), e.t_ns);
        json.kv("s", "p");
        json.key("args");
        json.begin_object();
        json.kv("attempt", e.a);
        json.kv("detail", e.b);
        json.end_object();
        break;
      }
      case EventKind::JobRetry:
        event_common(json, "job retry", "i", flow_pid(e.id), e.t_ns);
        json.kv("s", "p");
        json.key("args");
        json.begin_object();
        json.kv("attempt", e.a);
        json.kv("backoff_s", e.b);
        json.end_object();
        break;
      case EventKind::JobExhausted:
        event_common(json, "job exhausted", "i", flow_pid(e.id), e.t_ns);
        json.kv("s", "p");
        json.key("args");
        json.begin_object();
        json.kv("attempts", e.a);
        json.end_object();
        break;

      case EventKind::ShardEpoch:
        event_common(json, e.aux != 0 ? "epoch (serial)" : "epoch", "i", kSchedPid, e.t_ns);
        json.kv("s", "g");
        json.key("args");
        json.begin_object();
        json.kv("epoch", static_cast<std::int64_t>(e.id));
        json.kv("end_us", e.a);
        json.end_object();
        break;
      case EventKind::ShardBarrier:
        event_common(json, "barrier", "i", kSchedPid, e.t_ns);
        json.kv("s", "g");
        json.key("args");
        json.begin_object();
        json.kv("epoch", static_cast<std::int64_t>(e.id));
        json.kv("handoff_packets", e.a);
        json.end_object();
        break;
      case EventKind::CkptWrite:
        event_common(json, "checkpoint write", "i", kSchedPid, e.t_ns);
        json.kv("s", "g");
        json.key("args");
        json.begin_object();
        json.kv("seq", static_cast<std::int64_t>(e.id));
        json.kv("bytes", e.a);
        json.end_object();
        break;
      case EventKind::CkptRestore:
        event_common(json, "checkpoint restore", "i", kSchedPid, e.t_ns);
        json.kv("s", "g");
        json.key("args");
        json.begin_object();
        json.kv("seq", static_cast<std::int64_t>(e.id));
        json.kv("bytes", e.a);
        json.kv("ckpt_us", e.b);
        json.end_object();
        break;
    }
    json.end_object();
  });

  json.end_array();
  json.end_object();
  return json.close();
}

std::unique_ptr<TimelineTracer> TimelineTracer::merged(
    const std::vector<const TimelineTracer*>& streams) {
  std::size_t total = 0;
  std::uint64_t dropped = 0;
  for (const TimelineTracer* s : streams) {
    if (s == nullptr) continue;
    total += s->size();
    dropped += s->dropped();
  }
  Config mc;
  mc.capacity = total > 0 ? total : 1;
  mc.categories = cat::kAll;
  auto out = std::make_unique<TimelineTracer>(mc);

  // Each stream is already time-ordered, so a single stable pick of the
  // earliest head is a k-way merge keyed (t_ns, stream, position): equal
  // timestamps resolve by stream order (caller puts the control strand
  // first), then by position within the stream.
  struct Cursor {
    const TimelineTracer* stream;
    std::size_t next;
    [[nodiscard]] bool more() const { return stream != nullptr && next < stream->size(); }
    [[nodiscard]] const TimelineEvent& head() const { return stream->at(next); }
  };
  std::vector<Cursor> cursors;
  cursors.reserve(streams.size());
  for (const TimelineTracer* s : streams) {
    cursors.push_back({s, 0});
    if (s == nullptr) continue;
    for (const auto& [id, name] : s->flow_names_) out->flow_names_[id] = name;
    for (const auto& [id, name] : s->link_names_) out->link_names_[id] = name;
  }
  for (;;) {
    Cursor* best = nullptr;
    for (Cursor& c : cursors) {
      if (c.more() && (best == nullptr || c.head().t_ns < best->head().t_ns)) best = &c;
    }
    if (best == nullptr) break;
    const TimelineEvent& e = best->head();
    ++best->next;
    out->record(e.kind, category_of(e.kind), sim::Time::nanoseconds(e.t_ns), e.id, e.subflow,
                e.aux, e.a, e.b);
  }
  out->dropped_ = dropped;
  return out;
}

}  // namespace xmp::obs
