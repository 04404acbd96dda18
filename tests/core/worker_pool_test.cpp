// The worker pool (core::WorkerPool) behind the sharded engine and the
// benches' experiment grids: a barrier per run(), every shard run exactly
// once, owners first and idle workers stealing what their owners have not
// started. Built into test_sharded, so the "shard" label runs it under
// ThreadSanitizer.

#include "core/worker_pool.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hpp"

namespace xmp::core {
namespace {

/// Yield until `done()` holds; false after 10 s, so a pool that never
/// gets there fails the test instead of hanging it.
template <class Pred>
bool await(Pred done) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

/// The thread of each worker of a width-3 pool: with one shard per worker
/// and every task waiting until all three are running, nobody can steal,
/// so shard w runs on worker w.
std::map<std::thread::id, int> worker_threads(WorkerPool& pool) {
  std::vector<std::thread::id> ids(3);
  std::atomic<int> arrived{0};
  std::atomic<bool> met{true};
  pool.run(3, [&](int s) {
    ids[static_cast<std::size_t>(s)] = std::this_thread::get_id();
    arrived.fetch_add(1);
    if (!await([&] { return arrived.load() == 3; })) met = false;
  });
  EXPECT_TRUE(met.load()) << "the three workers never ran at once";
  std::map<std::thread::id, int> worker;
  for (int w = 0; w < 3; ++w) worker[ids[static_cast<std::size_t>(w)]] = w;
  EXPECT_EQ(worker.size(), 3u);
  EXPECT_EQ(worker[std::this_thread::get_id()], 0);  // the caller is worker 0
  return worker;
}

TEST(WorkerPool, EveryShardRunsExactlyOncePerRun) {
  WorkerPool pool{3};
  constexpr int kShards = 8;
  std::vector<std::atomic<int>> runs(kShards);
  int bad = 0;
  for (int run = 1; run <= 2'000; ++run) {
    pool.run(kShards, [&](int s) {
      // Uneven, shifting work, so shards change hands between runs.
      volatile int sink = 0;
      for (int i = 0; i < (run * (s + 1)) % 7 * 200; ++i) sink = sink + i;
      runs[static_cast<std::size_t>(s)].fetch_add(1);
    });
    for (const auto& r : runs) bad += r.load() == run ? 0 : 1;
  }
  EXPECT_EQ(bad, 0);
}

// Worker 0 blocks in shard 0 until its last shard (6) has run, which only
// a thief can do. Each worker logs the shards it ran, in order.
TEST(WorkerPool, OwnShardsRunBeforeStolenOnes) {
  WorkerPool pool{3};
  const auto worker = worker_threads(pool);
  constexpr int kShards = 8;  // owners: 0,3,6 | 1,4,7 | 2,5
  std::vector<std::vector<int>> ran(3);  // each written by its worker only
  std::atomic<bool> six_ran{false};
  std::atomic<bool> stolen{true};
  pool.run(kShards, [&](int s) {
    ran[static_cast<std::size_t>(worker.at(std::this_thread::get_id()))].push_back(s);
    if (s == 6) six_ran = true;
    if (s == 0 && !await([&] { return six_ran.load(); })) stolen = false;
  });
  ASSERT_TRUE(stolen.load()) << "no worker stole shard 6";

  std::vector<int> all;
  for (int w = 0; w < 3; ++w) {
    const auto& seq = ran[static_cast<std::size_t>(w)];
    all.insert(all.end(), seq.begin(), seq.end());
    // Own shards first, front to back...
    std::size_t own = 0;
    while (own < seq.size() && seq[own] % 3 == w) ++own;
    EXPECT_TRUE(std::is_sorted(seq.begin(), seq.begin() + static_cast<std::ptrdiff_t>(own)))
        << "worker " << w;
    // ...then only other owners' shards, each owner's back to front.
    for (std::size_t i = own; i < seq.size(); ++i) {
      EXPECT_NE(seq[i] % 3, w) << "worker " << w << " ran its own shard " << seq[i]
                               << " after stealing";
      for (std::size_t j = own; j < i; ++j) {
        if (seq[j] % 3 == seq[i] % 3) {
          EXPECT_GT(seq[j], seq[i]) << "worker " << w;
        }
      }
    }
  }
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(std::count(ran[0].begin(), ran[0].end(), 6), 0);
}

// A shard a thief runs throws; run() still returns only after every other
// shard ran, worker 0's blocked one included, and then rethrows.
TEST(WorkerPool, ThrowFromAStolenShardIsRethrownAfterEveryShardRan) {
  WorkerPool pool{3};
  constexpr int kShards = 8;
  std::vector<int> ran(kShards, 0);
  std::atomic<bool> six_started{false};
  std::atomic<bool> stolen{true};
  try {
    pool.run(kShards, [&](int s) {
      if (s == 6) {
        six_started = true;
        throw std::runtime_error("shard 6");
      }
      if (s == 0 && !await([&] { return six_started.load(); })) stolen = false;
      ++ran[static_cast<std::size_t>(s)];
    });
    FAIL() << "expected run() to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string{e.what()}, "shard 6");
  }
  EXPECT_TRUE(stolen.load());
  for (int s = 0; s < kShards; ++s) {
    EXPECT_EQ(ran[static_cast<std::size_t>(s)], s == 6 ? 0 : 1) << "shard " << s;
  }
}

TEST(WorkerPool, FewerShardsThanWorkers) {
  WorkerPool pool{4};
  std::vector<int> hits(2, 0);
  pool.run(2, [&](int s) { ++hits[static_cast<std::size_t>(s)]; });
  EXPECT_EQ(hits, (std::vector<int>{1, 1}));
  pool.run(0, [&](int) { ADD_FAILURE() << "no shard to run"; });
  pool.run(1, [&](int s) { ++hits[static_cast<std::size_t>(s)]; });
  EXPECT_EQ(hits, (std::vector<int>{2, 1}));
}

TEST(WorkerPool, ThrowIsRethrownAfterEveryShardRanAndPoolStaysUsable) {
  for (const unsigned width : {3u, 1u}) {
    WorkerPool pool{width};
    constexpr int kShards = 6;
    // At width 3 shard 0 is the caller's own (worker 0), shard 1 a helper's;
    // at width 1 the caller runs every shard inline.
    for (const int thrower : {0, 1}) {
      std::vector<int> ran(kShards, 0);
      try {
        pool.run(kShards, [&](int s) {
          if (s == thrower) throw std::runtime_error("shard " + std::to_string(s));
          ++ran[static_cast<std::size_t>(s)];
        });
        FAIL() << "expected run() to rethrow";
      } catch (const std::runtime_error& e) {
        EXPECT_EQ(std::string{e.what()}, "shard " + std::to_string(thrower));
      }
      for (int s = 0; s < kShards; ++s) {
        EXPECT_EQ(ran[static_cast<std::size_t>(s)], s == thrower ? 0 : 1)
            << "width " << width << " shard " << s;
      }
      std::vector<int> again(kShards, 0);
      pool.run(kShards, [&](int s) { ++again[static_cast<std::size_t>(s)]; });
      EXPECT_EQ(again, std::vector<int>(kShards, 1));
    }
  }
}

TEST(WorkerPool, BackToBackRunsStress) {
  // Per-shard counters are plain ints: every write happens on the shard's
  // worker and every read on the caller after the barrier, so a barrier
  // that let a run overlap the next (or the caller's check) shows up as a
  // wrong count here, and as a data race under ThreadSanitizer.
  WorkerPool pool{4};
  constexpr int kShards = 4;
  constexpr int kRuns = 100'000;
  std::vector<int> count(kShards, 0);
  int bad = 0;
  for (int run = 1; run <= kRuns; ++run) {
    pool.run(kShards, [&](int s) { ++count[static_cast<std::size_t>(s)]; });
    for (const int c : count) bad += c == run ? 0 : 1;
  }
  EXPECT_EQ(bad, 0);
}

TEST(WorkerPool, ParkedWaitersWakeUp) {
  // Work and gaps far longer than the spin budget: helpers park between
  // runs, and the caller parks while a helper is still busy.
  WorkerPool pool{3};
  const auto pause = WorkerPool::kSpinBudget * 20;
  std::vector<int> count(3, 0);
  for (int run = 1; run <= 5; ++run) {
    std::this_thread::sleep_for(pause);
    pool.run(3, [&](int s) {
      if (s == 2) std::this_thread::sleep_for(pause);
      ++count[static_cast<std::size_t>(s)];
    });
    EXPECT_EQ(count, std::vector<int>(3, run));
  }
}

TEST(WorkerPool, DestroysWithParkedWorkers) {
  { WorkerPool never_ran{4}; }
  WorkerPool pool{4};
  int total = 0;
  pool.run(4, [&](int s) {
    if (s == 0) total = 1;
  });
  EXPECT_EQ(total, 1);
  std::this_thread::sleep_for(WorkerPool::kSpinBudget * 50);  // let every helper park
  // The destructor at scope exit must wake and join them.
}

TEST(WorkerPool, WidthOneRunsInline) {
  WorkerPool pool{1};
  const auto caller = std::this_thread::get_id();
  std::vector<int> order;
  pool.run(3, [&](int s) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(s);
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(WorkerPool, PoolWiderThanHardwareStaysInStep) {
  // Wider than the hardware: waiters skip the spin and park at once, so
  // every barrier goes through std::atomic::wait/notify.
  const unsigned hw = std::thread::hardware_concurrency();
  WorkerPool pool{(hw == 0 ? 1 : hw) + 2};
  const int shards = static_cast<int>(pool.width());
  std::vector<int> count(static_cast<std::size_t>(shards), 0);
  int bad = 0;
  for (int run = 1; run <= 2'000; ++run) {
    pool.run(shards, [&](int s) { ++count[static_cast<std::size_t>(s)]; });
    for (const int c : count) bad += c == run ? 0 : 1;
  }
  EXPECT_EQ(bad, 0);
}

TEST(WorkerPool, ZeroWidthPicksTheHardwareThreads) {
  WorkerPool pool{0};
  EXPECT_EQ(pool.width(), std::max(1u, std::thread::hardware_concurrency()));
  std::vector<int> hits(5, 0);
  pool.run(5, [&](int s) { ++hits[static_cast<std::size_t>(s)]; });
  EXPECT_EQ(hits, std::vector<int>(5, 1));
}

// A task may run a pool of its own, as a bench cell running a sharded
// experiment does: the two pools share no state.
TEST(WorkerPool, NestedPoolInsideATask) {
  WorkerPool outer{3};
  std::vector<std::vector<int>> hits(3, std::vector<int>(4, 0));
  outer.run(3, [&](int s) {
    WorkerPool inner{2};
    inner.run(4, [&](int t) { ++hits[static_cast<std::size_t>(s)][static_cast<std::size_t>(t)]; });
  });
  EXPECT_EQ(hits, std::vector<std::vector<int>>(3, std::vector<int>(4, 1)));
}

std::string slurp(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
}

// Whole experiments on concurrent threads equal a serial loop index by
// index. Every run traces, so each thread installs its own
// ObservationScope: a tracer shared across threads would mix the runs'
// trace files.
TEST(WorkerPool, ConcurrentExperimentsMatchSerialLoop) {
  const std::vector<std::uint64_t> seeds = {7, 11, 13, 17, 19};
  const std::string dir = "/tmp/xmp_pool_exp_" + std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  auto config = [&](std::size_t i, const char* leg) {
    ExperimentConfig cfg;
    cfg.fat_tree_k = 4;
    cfg.pattern = Pattern::Permutation;
    cfg.scheme.kind = workload::SchemeSpec::Kind::Xmp;
    cfg.scheme.subflows = 2;
    cfg.permutation_rounds = 1;
    cfg.perm_min_bytes = 50'000;
    cfg.perm_max_bytes = 100'000;
    cfg.duration = sim::Time::seconds(0.05);
    cfg.seed = seeds[i];
    cfg.obs.trace_csv = dir + "/" + leg + std::to_string(i) + ".csv";
    return cfg;
  };

  std::vector<ExperimentResults> serial;
  for (std::size_t i = 0; i < seeds.size(); ++i) serial.push_back(run_experiment(config(i, "s")));
  std::vector<ExperimentResults> parallel(seeds.size());
  WorkerPool pool{4};
  pool.run(static_cast<int>(seeds.size()), [&](int s) {
    const auto i = static_cast<std::size_t>(s);
    parallel[i] = run_experiment(config(i, "p"));
  });

  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(parallel[i].events_dispatched, serial[i].events_dispatched) << "config " << i;
    EXPECT_EQ(parallel[i].goodput.count(), serial[i].goodput.count()) << "config " << i;
    EXPECT_EQ(parallel[i].goodput.mean(), serial[i].goodput.mean()) << "config " << i;
    EXPECT_EQ(parallel[i].sim_duration, serial[i].sim_duration) << "config " << i;
    const std::string trace = slurp(config(i, "s").obs.trace_csv);
    EXPECT_FALSE(trace.empty()) << "config " << i;
    EXPECT_EQ(slurp(config(i, "p").obs.trace_csv), trace) << "config " << i;
  }
  // The seeds landed: different seeds, different trajectories.
  EXPECT_NE(serial[0].events_dispatched, serial[1].events_dispatched);
  std::filesystem::remove_all(dir);
}

// The cases below keep the names they had when a separate thread pool,
// ParallelRunner, fanned out experiment grids and for_each() tasks. That
// pool folded into WorkerPool; the same contract is pinned on it here.

TEST(ParallelRunner, MoreWorkersThanConfigs) {
  const std::vector<std::uint64_t> seeds = {3, 5};
  std::vector<ExperimentResults> results(seeds.size());
  WorkerPool pool{8};
  pool.run(static_cast<int>(seeds.size()), [&](int s) {
    const auto i = static_cast<std::size_t>(s);
    ExperimentConfig cfg;
    cfg.fat_tree_k = 4;
    cfg.pattern = Pattern::Permutation;
    cfg.scheme.kind = workload::SchemeSpec::Kind::Xmp;
    cfg.scheme.subflows = 2;
    cfg.permutation_rounds = 1;
    cfg.perm_min_bytes = 50'000;
    cfg.perm_max_bytes = 100'000;
    cfg.duration = sim::Time::seconds(0.05);
    cfg.seed = seeds[i];
    results[i] = run_experiment(cfg);
  });
  // Different seeds must give different trajectories (sanity that each
  // cell's seed actually landed).
  EXPECT_GT(results[0].events_dispatched, 0u);
  EXPECT_NE(results[0].events_dispatched, results[1].events_dispatched);
}

TEST(ParallelRunnerForEach, ZeroTasksIsANoOp) {
  WorkerPool pool{4};
  std::atomic<int> ran{0};
  pool.run(0, [&](int) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 0);
}

TEST(ParallelRunnerForEach, FewerTasksThanWorkersRunsEachOnce) {
  WorkerPool pool{16};
  std::vector<std::atomic<int>> hits(3);
  pool.run(static_cast<int>(hits.size()), [&](int s) { hits[static_cast<std::size_t>(s)].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelRunnerForEach, ThrowingTaskSurfacesAfterOthersComplete) {
  WorkerPool pool{4};
  std::atomic<int> completed{0};
  EXPECT_THROW(pool.run(8,
                        [&](int s) {
                          if (s == 3) throw std::runtime_error("task 3 boom");
                          completed.fetch_add(1);
                        }),
               std::runtime_error);
  // The failure must not abandon the remaining tasks: everything except the
  // throwing index still ran.
  EXPECT_EQ(completed.load(), 7);
}

TEST(ParallelRunnerForEach, FirstExceptionWinsWhenSeveralThrow) {
  WorkerPool pool{1};  // inline loop: deterministic order
  int ran = 0;
  try {
    pool.run(4, [&](int s) {
      ++ran;
      throw std::runtime_error("boom " + std::to_string(s));
    });
    FAIL() << "expected run() to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 0");
  }
  EXPECT_EQ(ran, 4);  // later throws neither skip tasks nor replace the first
}

}  // namespace
}  // namespace xmp::core
