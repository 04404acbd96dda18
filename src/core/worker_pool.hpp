#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace xmp::core {

/// Persistent barrier-synchronised worker pool: the sharded engine's epoch
/// fan-out, and the benches' fan-out of independent experiment configs.
///
/// Every shard (task index) has an *owner*: worker (s % width). A worker
/// first runs its own shards, front to back, and then steals the shards
/// other workers have not started yet, from the back of each owner's list,
/// so an owner and a thief meet in the middle. A claim flag
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

}  // namespace xmp::core
