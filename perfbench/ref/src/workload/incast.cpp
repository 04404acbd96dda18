#include "workload/incast.hpp"

#include <cassert>

namespace xmp::workload {

void IncastTraffic::start() {
  for (int i = 0; i < cfg_.n_jobs; ++i) start_job();
}

void IncastTraffic::start_job() {
  if (stopped_) return;
  if (cfg_.max_jobs != 0 && started_ >= cfg_.max_jobs) return;
  ++started_;

  // Pick 1 + servers_per_job distinct hosts at random.
  const int n = topo_.n_hosts();
  const int needed = cfg_.servers_per_job + 1;
  assert(needed <= n);
  std::vector<int> chosen;
  chosen.reserve(static_cast<std::size_t>(needed));
  while (static_cast<int>(chosen.size()) < needed) {
    const auto h = static_cast<int>(rng_.uniform_u64(static_cast<std::uint64_t>(n)));
    bool dup = false;
    for (int c : chosen) {
      if (c == h) {
        dup = true;
        break;
      }
    }
    if (!dup) chosen.push_back(h);
  }
  const int client = chosen[0];

  const std::size_t job = jobs_.size();
  JobRecord rec;
  rec.start = sched_.now();
  jobs_.push_back(rec);
  outstanding_.push_back(cfg_.servers_per_job);

  // Fan the requests out simultaneously.
  for (int s = 1; s <= cfg_.servers_per_job; ++s) {
    const int server = chosen[static_cast<std::size_t>(s)];
    flows_.start_small_flow(
        topo_.host(client), topo_.host(server), client, server, cfg_.request_bytes,
        [this, job, server, client] { on_request_done(job, server, client); },
        CallbackTag{CallbackTag::kIncastRequest, static_cast<std::int64_t>(job), server, client});
  }
}

void IncastTraffic::on_request_done(std::size_t job, int server_host, int client_host) {
  // The server answers immediately with the response small flow.
  flows_.start_small_flow(
      topo_.host(server_host), topo_.host(client_host), server_host, client_host,
      cfg_.response_bytes, [this, job] { on_response_done(job); },
      CallbackTag{CallbackTag::kIncastResponse, static_cast<std::int64_t>(job), 0, 0});
}

void IncastTraffic::on_response_done(std::size_t job) {
  assert(outstanding_[job] > 0);
  if (--outstanding_[job] > 0) return;
  jobs_[job].finish = sched_.now();
  jobs_[job].completed = true;
  start_job();  // replace the finished job
}

}  // namespace xmp::workload
