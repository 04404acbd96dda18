#include "workload/trace_replay.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "trace/atomic_file.hpp"

namespace xmp::workload {

bool load_trace_csv(const std::string& path, std::vector<TraceEntry>& out) {
  out.clear();
  std::ifstream in{path};
  if (!in.good()) return false;
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    // Optional header: skip a first line that cannot start a number.
    const bool numeric_start =
        !line.empty() && ((line[0] >= '0' && line[0] <= '9') || line[0] == '-' || line[0] == '.');
    if (first && !numeric_start) {
      first = false;
      continue;
    }
    first = false;
    std::stringstream ss{line};
    std::string cell;
    TraceEntry e;
    int col = 0;
    bool ok = true;
    while (std::getline(ss, cell, ',')) {
      char* end = nullptr;
      switch (col) {
        case 0:
          e.start_s = std::strtod(cell.c_str(), &end);
          break;
        case 1:
          e.src = static_cast<int>(std::strtol(cell.c_str(), &end, 10));
          break;
        case 2:
          e.dst = static_cast<int>(std::strtol(cell.c_str(), &end, 10));
          break;
        case 3:
          e.bytes = std::strtoll(cell.c_str(), &end, 10);
          break;
        case 4:
          e.small = std::strtol(cell.c_str(), &end, 10) != 0;
          break;
        default:
          ok = false;
      }
      if (end != nullptr && *end != '\0') ok = false;
      ++col;
    }
    if (!ok || col < 4 || e.start_s < 0 || e.bytes <= 0) {
      out.clear();
      return false;
    }
    out.push_back(e);
  }
  return true;
}

void save_trace_csv(const std::string& path, const std::vector<TraceEntry>& entries) {
  std::string out = "start_s,src,dst,bytes,small\n";
  for (const auto& e : entries) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "%.9g,%d,%d,%lld,%d\n", e.start_s, e.src, e.dst,
                  static_cast<long long>(e.bytes), e.small ? 1 : 0);
    out += buf;
  }
  trace::atomic_write_file(path, out);
}

void TraceReplay::start() {
  for (const auto& e : entries_) {
    if (e.src < 0 || e.src >= topo_.n_hosts() || e.dst < 0 || e.dst >= topo_.n_hosts() ||
        e.src == e.dst) {
      ++skipped_;
      continue;
    }
    sched_.schedule_in(sim::Time::seconds(e.start_s), [this, e] {
      if (e.small) {
        flows_.start_small_flow(topo_.host(e.src), topo_.host(e.dst), e.src, e.dst, e.bytes);
      } else {
        flows_.start_large_flow(topo_.host(e.src), topo_.host(e.dst), e.src, e.dst, e.bytes);
      }
    });
  }
}

}  // namespace xmp::workload
