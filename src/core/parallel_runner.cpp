#include "core/parallel_runner.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

namespace xmp::core {

ParallelRunner::ParallelRunner(unsigned workers) : workers_{workers} {
  if (workers_ == 0) {
    workers_ = std::thread::hardware_concurrency();
    if (workers_ == 0) workers_ = 1;
  }
}

void ParallelRunner::for_each(std::size_t total, const Task& task,
                              const Progress& progress) const {
  if (total == 0) return;

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::mutex mu;  // guards progress invocation and first_error
  std::exception_ptr first_error;

  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= total) return;
      try {
        task(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock{mu};
        if (!first_error) first_error = std::current_exception();
        continue;
      }
      const std::size_t n = done.fetch_add(1, std::memory_order_relaxed) + 1;
      if (progress) {
        const std::lock_guard<std::mutex> lock{mu};
        progress(i, n, total);
      }
    }
  };

  const unsigned n_threads =
      workers_ < total ? workers_ : static_cast<unsigned>(total);
  if (n_threads <= 1) {
    worker();  // serial fallback: no thread-spawn overhead for one task
  } else {
    std::vector<std::thread> pool;
    pool.reserve(n_threads);
    for (unsigned w = 0; w < n_threads; ++w) pool.emplace_back(worker);
    for (auto& th : pool) th.join();
  }
  if (first_error) std::rethrow_exception(first_error);
}

std::vector<ExperimentResults> ParallelRunner::run(const std::vector<ExperimentConfig>& configs,
                                                   const Progress& progress) const {
  std::vector<ExperimentResults> results(configs.size());
  for_each(
      configs.size(), [&](std::size_t i) { results[i] = run_experiment(configs[i]); }, progress);
  return results;
}

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
    for (int s = 0; s < n_shards; ++s) task(s);
    return;
  }
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

void WorkerPool::run_share(unsigned index) {
  for (int s = static_cast<int>(index); s < n_shards_; s += static_cast<int>(width_)) {
    try {
      (*task_)(s);
    } catch (...) {
      const std::lock_guard<std::mutex> lock{mu_};
      if (!first_error_) first_error_ = std::current_exception();
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

std::vector<ExperimentConfig> seed_sweep(const ExperimentConfig& base,
                                         const std::vector<std::uint64_t>& seeds) {
  std::vector<ExperimentConfig> out;
  out.reserve(seeds.size());
  for (const std::uint64_t s : seeds) {
    out.push_back(base);
    out.back().seed = s;
  }
  return out;
}

}  // namespace xmp::core
