#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "core/experiment.hpp"

namespace xmp::core {

/// Fans independent experiment configs across a pool of worker threads.
///
/// Table/Figure-scale evaluations are embarrassingly parallel: every
/// `ExperimentConfig` (seed sweep, scheme comparison, ablation grid point)
/// owns its whole world — `run_experiment` builds a private Scheduler,
/// Network and Rng per call, and nothing in the simulation core touches
/// shared mutable state. The runner therefore guarantees:
///
///  - **Determinism**: results are bit-identical to running the same
///    configs through a serial loop, regardless of worker count or
///    completion order.
///  - **Submission order**: results[i] always corresponds to configs[i].
///
/// Workers pull the next un-run config from a shared counter, so uneven
/// run times load-balance automatically.
class ParallelRunner {
 public:
  /// `workers == 0` picks std::thread::hardware_concurrency() (at least 1).
  explicit ParallelRunner(unsigned workers = 0);

  [[nodiscard]] unsigned workers() const { return workers_; }

  /// Called after each config finishes: (index into configs, done so far,
  /// total). Invoked under an internal mutex, so it may print.
  using Progress = std::function<void(std::size_t index, std::size_t done, std::size_t total)>;

  /// Run every config to completion; blocks until all are done. The first
  /// exception thrown by a worker (if any) is rethrown after the pool
  /// joins.
  [[nodiscard]] std::vector<ExperimentResults> run(const std::vector<ExperimentConfig>& configs,
                                                   const Progress& progress = {}) const;

  /// Generic fan-out: invoke `task(i)` for every i in [0, total) across the
  /// pool, same determinism/ordering/error contract as run(). run() is
  /// built on this; callers with non-ExperimentConfig work (e.g. parsing a
  /// directory of result files) use it directly. Reentrant: a task may
  /// construct its own ParallelRunner and call for_each()/run() inside.
  using Task = std::function<void(std::size_t index)>;
  void for_each(std::size_t total, const Task& task, const Progress& progress = {}) const;

 private:
  unsigned workers_;
};

/// Persistent barrier-synchronised worker pool for the sharded engine.
///
/// Unlike ParallelRunner (which load-balances independent jobs through a
/// shared counter), shard-to-worker assignment here is *static*: shard s
/// always executes on worker (s % width). That pins every shard's
/// scheduler, links and flows to one thread for the whole run — no
/// migration, no false sharing surprises, and the assignment is a pure
/// function of (s, width), never of timing.
///
/// run() is a barrier: it returns only after every shard's task finished.
/// The calling thread participates as worker 0, so width == 1 degrades to
/// a plain inline loop with no synchronisation at all. The first exception
/// thrown by any task is rethrown from run() after the barrier.
class WorkerPool {
 public:
  /// `width == 0` picks std::thread::hardware_concurrency() (at least 1).
  explicit WorkerPool(unsigned width);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  [[nodiscard]] unsigned width() const { return width_; }

  using ShardTask = std::function<void(int shard)>;
  /// Execute task(s) for every s in [0, n_shards), shard s on worker
  /// (s % width). Blocks until all complete.
  void run(int n_shards, const ShardTask& task);

 private:
  void worker_loop(unsigned index);
  void run_share(unsigned index);

  unsigned width_;
  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::uint64_t generation_ = 0;  ///< bumped per run(); wakes the workers
  const ShardTask* task_ = nullptr;
  int n_shards_ = 0;
  unsigned running_ = 0;  ///< helper workers still inside the current run
  bool stop_ = false;
  std::exception_ptr first_error_;
};

/// Expand `base` into one config per seed (convenience for seed sweeps).
[[nodiscard]] std::vector<ExperimentConfig> seed_sweep(const ExperimentConfig& base,
                                                       const std::vector<std::uint64_t>& seeds);

}  // namespace xmp::core
