#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
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
/// shared counter), every shard here has an *owner*: worker (s % width).
/// A worker first runs its own shards, front to back, and then steals the
/// shards other workers have not started yet, from the back of each
/// owner's list, so an owner and a thief meet in the middle. A claim flag
/// per shard, reset by every run(), makes each shard run exactly once.
/// Which thread runs a shard therefore depends on timing, never what it
/// computes: a task sets every thread-local it reads (tracer, metrics,
/// current scheduler) itself.
///
/// run() is a barrier: it returns only after every shard's task finished.
/// The calling thread participates as worker 0, so width == 1 degrades to
/// a plain inline loop with no synchronisation at all. The first exception
/// thrown by any task is rethrown from run() after the barrier.
///
/// The barrier is two atomics: run() bumps a generation counter to release
/// the helpers, and each helper counts down `running_` when its share is
/// done. A waiter on either side spins for kSpinBudget before it parks in
/// std::atomic::wait, so back-to-back runs (one epoch's work is ~100 us)
/// hand over without a futex round trip. A pool wider than the hardware
/// has threads never spins: a spinning waiter would steal the core a
/// runnable worker needs.
class WorkerPool {
 public:
  /// `width == 0` picks std::thread::hardware_concurrency() (at least 1).
  explicit WorkerPool(unsigned width);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  [[nodiscard]] unsigned width() const { return width_; }

  /// How long a waiter polls before it parks.
  static constexpr std::chrono::microseconds kSpinBudget{30};

  using ShardTask = std::function<void(int shard)>;
  /// Execute task(s) exactly once for every s in [0, n_shards), owners
  /// first (see above). Blocks until all complete.
  void run(int n_shards, const ShardTask& task);

 private:
  void worker_loop(unsigned index);
  void run_share(unsigned index);
  /// Run shard s unless another worker already claimed it.
  void run_unclaimed(int s);
  /// Block until `a` no longer holds `old`: spin first (if spinning is on),
  /// then park.
  void wait_while(const std::atomic<std::uint32_t>& a, std::uint32_t old) const;

  unsigned width_;
  bool spin_;  ///< width_ <= hardware threads

  // Written by run() (and the destructor) before the generation bump that
  // publishes them; read by the helpers after they observe it.
  const ShardTask* task_ = nullptr;
  int n_shards_ = 0;
  bool stop_ = false;

  // Own cache lines: spinning helpers poll generation_ while finished ones
  // decrement running_.
  alignas(64) std::atomic<std::uint32_t> generation_{0};  ///< bumped per run(); releases the helpers
  alignas(64) std::atomic<std::uint32_t> running_{0};  ///< helpers still inside the current run

  std::mutex mu_;  ///< guards first_error_
  std::exception_ptr first_error_;

  // One flag per shard, on its own cache line: an owner claims its shards
  // while thieves probe theirs. run() grows the array (before it releases
  // the helpers) and resets the first n_shards_ flags.
  struct alignas(64) Claim {
    std::atomic<bool> taken{false};
  };
  std::unique_ptr<Claim[]> claims_;
  int claims_size_ = 0;

  std::vector<std::thread> threads_;  ///< last: the helpers use every member above
};

/// Expand `base` into one config per seed (convenience for seed sweeps).
[[nodiscard]] std::vector<ExperimentConfig> seed_sweep(const ExperimentConfig& base,
                                                       const std::vector<std::uint64_t>& seeds);

}  // namespace xmp::core
