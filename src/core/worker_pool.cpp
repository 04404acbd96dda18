#include "core/worker_pool.hpp"

#include <algorithm>

namespace xmp::core {
namespace {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace

WorkerPool::WorkerPool(unsigned width)
    : width_{width != 0 ? width : std::max(1u, std::thread::hardware_concurrency())},
      // An unknown hardware_concurrency() (0) disables spinning.
      spin_{width_ <= std::thread::hardware_concurrency()} {
  threads_.reserve(width_ - 1);
  for (unsigned i = 1; i < width_; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

WorkerPool::~WorkerPool() {
  stop_ = true;
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  for (auto& th : threads_) th.join();
}

void WorkerPool::wait_while(const std::atomic<std::uint32_t>& a, std::uint32_t old) const {
  if (spin_) {
    const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
    do {
      // Poll a batch between clock reads; a pause is tens of cycles.
      for (int i = 0; i < 64; ++i) {
        if (a.load(std::memory_order_acquire) != old) return;
        cpu_relax();
      }
    } while (std::chrono::steady_clock::now() < deadline);
  }
  while (a.load(std::memory_order_acquire) == old) a.wait(old, std::memory_order_acquire);
}

void WorkerPool::run(int n_shards, const ShardTask& task) {
  if (n_shards <= 0) return;
  if (width_ == 1) {
    // The same contract inline: a throw does not skip the later shards.
    std::exception_ptr first;
    for (int s = 0; s < n_shards; ++s) {
      try {
        task(s);
      } catch (...) {
        if (!first) first = std::current_exception();
      }
    }
    if (first) std::rethrow_exception(first);
    return;
  }
  if (n_shards > claims_size_) {
    claims_ = std::make_unique<Claim[]>(static_cast<std::size_t>(n_shards));
    claims_size_ = n_shards;
  }
  for (int s = 0; s < n_shards; ++s) claims_[s].taken.store(false, std::memory_order_relaxed);
  task_ = &task;
  n_shards_ = n_shards;
  running_.store(width_ - 1, std::memory_order_relaxed);
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  run_share(0);  // the caller is worker 0
  for (std::uint32_t left = running_.load(std::memory_order_acquire); left != 0;
       left = running_.load(std::memory_order_acquire)) {
    wait_while(running_, left);
  }
  task_ = nullptr;
  if (first_error_) {
    std::exception_ptr e = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(e);
  }
}

void WorkerPool::run_unclaimed(int s) {
  // The claim orders nothing else: what a task reads and writes is
  // published by the barrier.
  std::atomic<bool>& taken = claims_[s].taken;
  if (taken.load(std::memory_order_relaxed) || taken.exchange(true, std::memory_order_relaxed)) {
    return;
  }
  try {
    (*task_)(s);
  } catch (...) {
    const std::lock_guard<std::mutex> lock{mu_};
    if (!first_error_) first_error_ = std::current_exception();
  }
}

void WorkerPool::run_share(unsigned index) {
  const int width = static_cast<int>(width_);
  const int self = static_cast<int>(index);
  // Own shards, front to back...
  for (int s = self; s < n_shards_; s += width) run_unclaimed(s);
  // ...then the other owners' unstarted shards, each list from its back.
  for (int i = 1; i < width; ++i) {
    const int owner = (self + i) % width;
    if (owner >= n_shards_) continue;
    for (int s = owner + (n_shards_ - 1 - owner) / width * width; s >= owner; s -= width) {
      run_unclaimed(s);
    }
  }
}

void WorkerPool::worker_loop(unsigned index) {
  std::uint32_t seen = 0;
  for (;;) {
    wait_while(generation_, seen);
    seen = generation_.load(std::memory_order_acquire);
    if (stop_) return;
    run_share(index);
    // The last helper out wakes run(), which may have parked.
    if (running_.fetch_sub(1, std::memory_order_acq_rel) == 1) running_.notify_one();
  }
}

}  // namespace xmp::core
