#pragma once

#include <cstdint>
#include <vector>

#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "topo/host_pool.hpp"
#include "workload/flow_manager.hpp"

namespace xmp::workload {

/// One many-to-one "Job" lifecycle record (paper §5.2.1, Incast pattern).
struct JobRecord {
  sim::Time start = sim::Time::zero();
  sim::Time finish = sim::Time::zero();
  bool completed = false;

  [[nodiscard]] sim::Time completion_time() const { return finish - start; }
};

/// The paper's Incast pattern: `n_jobs` Jobs run concurrently, each picking
/// 1 client + `servers_per_job` servers at random; the client fans out a
/// 2 KB request to every server, each server answers with a 64 KB response,
/// and the Job ends when the client has every response — then a new Job
/// starts. All small flows use plain TCP (RTOmin = 200 ms), which is what
/// produces the paper's incast-collapse jumps in Fig. 9.
///
/// The paper additionally runs one background large flow per host (Random
/// pattern, no intra-rack pairs); compose a RandomTraffic with
/// `exclude_same_rack = true` alongside this generator for the full pattern.
class IncastTraffic {
 public:
  struct Config {
    int n_jobs = 8;
    int servers_per_job = 8;
    std::int64_t request_bytes = 2'000;
    std::int64_t response_bytes = 64'000;
    /// Stop starting replacement jobs after this many have been launched
    /// (0 = unlimited, run until simulation end).
    std::uint64_t max_jobs = 0;
  };

  IncastTraffic(sim::Scheduler& sched, topo::HostPool& topo, FlowManager& flows, sim::Rng rng,
                const Config& cfg)
      : sched_{sched}, topo_{topo}, flows_{flows}, rng_{rng}, cfg_{cfg} {}

  void start();
  void stop() { stopped_ = true; }

  [[nodiscard]] const std::vector<JobRecord>& jobs() const { return jobs_; }
  [[nodiscard]] std::uint64_t jobs_started() const { return started_; }

  /// Checkpoint the RNG, job records and per-job outstanding counts.
  void checkpoint(core::ckpt::Io& io) {
    io.rng(rng_);
    io.b(stopped_);
    io.u64(started_);
    if (io.loading()) outstanding_.clear();
    std::size_t i = 0;
    io.seq(jobs_, [&](JobRecord& rec) {
      if (io.loading()) outstanding_.emplace_back();
      io.time(rec.start);
      io.time(rec.finish);
      io.b(rec.completed);
      io.i64(outstanding_[i++]);
    });
  }
  /// Completion-callback targets for flows re-bound after a restore.
  void restored_request_done(std::size_t job, int server, int client) {
    on_request_done(job, server, client);
  }
  void restored_response_done(std::size_t job) { on_response_done(job); }

 private:
  void start_job();
  void on_request_done(std::size_t job, int server_host, int client_host);
  void on_response_done(std::size_t job);

  sim::Scheduler& sched_;
  topo::HostPool& topo_;
  FlowManager& flows_;
  sim::Rng rng_;
  Config cfg_;
  std::vector<JobRecord> jobs_;
  std::vector<int> outstanding_;  ///< responses pending per job index
  bool stopped_ = false;
  std::uint64_t started_ = 0;
};

}  // namespace xmp::workload
