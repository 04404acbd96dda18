#include "core/parallel_runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace xmp::core {
namespace {

ExperimentConfig small_cfg(std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.fat_tree_k = 4;
  cfg.pattern = Pattern::Permutation;
  cfg.scheme.kind = workload::SchemeSpec::Kind::Xmp;
  cfg.scheme.subflows = 2;
  cfg.permutation_rounds = 1;
  cfg.perm_min_bytes = 50'000;
  cfg.perm_max_bytes = 100'000;
  cfg.duration = sim::Time::seconds(0.05);
  cfg.seed = seed;
  return cfg;
}

TEST(ParallelRunner, MatchesSerialLoopInSubmissionOrder) {
  const auto configs = seed_sweep(small_cfg(0), {7, 11, 13, 17, 19});

  std::vector<ExperimentResults> serial;
  serial.reserve(configs.size());
  for (const auto& cfg : configs) serial.push_back(run_experiment(cfg));

  const ParallelRunner runner{4};
  const auto parallel = runner.run(configs);

  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(parallel[i].events_dispatched, serial[i].events_dispatched) << "config " << i;
    EXPECT_EQ(parallel[i].goodput.count(), serial[i].goodput.count()) << "config " << i;
    EXPECT_EQ(parallel[i].goodput.mean(), serial[i].goodput.mean()) << "config " << i;
    EXPECT_EQ(parallel[i].sim_duration, serial[i].sim_duration) << "config " << i;
  }
}

TEST(ParallelRunner, MoreWorkersThanConfigs) {
  const auto configs = seed_sweep(small_cfg(0), {3, 5});
  const ParallelRunner runner{8};
  const auto results = runner.run(configs);
  ASSERT_EQ(results.size(), 2u);
  // Different seeds must give different trajectories (sanity that the
  // per-config seed actually landed).
  EXPECT_NE(results[0].events_dispatched, results[1].events_dispatched);
}

TEST(ParallelRunner, EmptyInputAndDefaults) {
  const ParallelRunner runner;  // hardware_concurrency
  EXPECT_GE(runner.workers(), 1u);
  EXPECT_TRUE(runner.run({}).empty());
}

TEST(ParallelRunner, ProgressReportsEveryConfigOnce) {
  const auto configs = seed_sweep(small_cfg(0), {1, 2, 3});
  const ParallelRunner runner{2};
  std::vector<int> seen(configs.size(), 0);
  std::atomic<std::size_t> calls{0};
  (void)runner.run(configs, [&](std::size_t index, std::size_t done, std::size_t total) {
    ASSERT_LT(index, seen.size());
    ++seen[index];
    EXPECT_GE(done, 1u);
    EXPECT_LE(done, total);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), configs.size());
  for (const int n : seen) EXPECT_EQ(n, 1);
}

TEST(ParallelRunner, SeedSweepExpandsSeeds) {
  const auto configs = seed_sweep(small_cfg(0), {100, 200});
  ASSERT_EQ(configs.size(), 2u);
  EXPECT_EQ(configs[0].seed, 100u);
  EXPECT_EQ(configs[1].seed, 200u);
  EXPECT_EQ(configs[0].fat_tree_k, 4);
}

TEST(ParallelRunnerForEach, ZeroTasksIsANoOp) {
  const ParallelRunner runner{4};
  std::atomic<int> ran{0};
  std::atomic<int> progressed{0};
  runner.for_each(
      0, [&](std::size_t) { ran.fetch_add(1); },
      [&](std::size_t, std::size_t, std::size_t) { progressed.fetch_add(1); });
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(progressed.load(), 0);
}

TEST(ParallelRunnerForEach, FewerTasksThanWorkersRunsEachOnce) {
  const ParallelRunner runner{16};
  std::vector<std::atomic<int>> hits(3);
  runner.for_each(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelRunnerForEach, ThrowingTaskSurfacesAfterOthersComplete) {
  const ParallelRunner runner{4};
  std::atomic<int> completed{0};
  EXPECT_THROW(
      runner.for_each(8,
                      [&](std::size_t i) {
                        if (i == 3) throw std::runtime_error("task 3 boom");
                        completed.fetch_add(1);
                      }),
      std::runtime_error);
  // The failure must not abandon the remaining tasks: everything except the
  // throwing index still ran.
  EXPECT_EQ(completed.load(), 7);
}

TEST(ParallelRunnerForEach, FirstExceptionWinsWhenSeveralThrow) {
  const ParallelRunner runner{1};  // serial fallback: deterministic order
  try {
    runner.for_each(4, [&](std::size_t i) { throw std::runtime_error("boom " + std::to_string(i)); });
    FAIL() << "expected for_each to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 0");
  }
}

TEST(ParallelRunnerForEach, ReentrantSubmissionFromInsideATask) {
  // A task may spin up its own runner (e.g. a sweep job that fans out
  // sub-analyses). The pools must not share state that deadlocks.
  const ParallelRunner outer{3};
  std::atomic<int> inner_runs{0};
  outer.for_each(3, [&](std::size_t) {
    const ParallelRunner inner{2};
    inner.for_each(4, [&](std::size_t) { inner_runs.fetch_add(1); });
  });
  EXPECT_EQ(inner_runs.load(), 12);
}

TEST(ParallelRunnerForEach, ProgressCountsReachTotal) {
  const ParallelRunner runner{4};
  std::atomic<std::size_t> max_done{0};
  runner.for_each(
      10, [](std::size_t) {},
      [&](std::size_t, std::size_t done, std::size_t total) {
        EXPECT_EQ(total, 10u);
        if (done > max_done.load()) max_done.store(done);
      });
  EXPECT_EQ(max_done.load(), 10u);
}

TEST(WorkerPool, ShardAlwaysRunsOnTheSameThread) {
  WorkerPool pool{3};
  ASSERT_EQ(pool.width(), 3u);
  constexpr int kShards = 8;  // an uneven 3/3/2 split
  std::vector<std::thread::id> owner(kShards);
  pool.run(kShards, [&](int s) { owner[static_cast<std::size_t>(s)] = std::this_thread::get_id(); });
  // Shard s belongs to worker s % width, and worker 0 is the caller.
  EXPECT_EQ(owner[0], std::this_thread::get_id());
  for (int s = 0; s < kShards; ++s) {
    EXPECT_EQ(owner[static_cast<std::size_t>(s)], owner[static_cast<std::size_t>(s % 3)]);
  }
  EXPECT_NE(owner[1], owner[0]);
  EXPECT_NE(owner[2], owner[1]);
  std::vector<int> moved(kShards, 0);  // each slot written by its owner only
  for (int run = 0; run < 1000; ++run) {
    pool.run(kShards, [&](int s) {
      const auto i = static_cast<std::size_t>(s);
      if (owner[i] != std::this_thread::get_id()) ++moved[i];
    });
  }
  for (int s = 0; s < kShards; ++s) EXPECT_EQ(moved[static_cast<std::size_t>(s)], 0) << "shard " << s;
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
  WorkerPool pool{3};
  constexpr int kShards = 6;
  // Shard 0 runs on the caller (worker 0); shard 1 on a helper.
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
      EXPECT_EQ(ran[static_cast<std::size_t>(s)], s == thrower ? 0 : 1) << "shard " << s;
    }
    std::vector<int> again(kShards, 0);
    pool.run(kShards, [&](int s) { ++again[static_cast<std::size_t>(s)]; });
    EXPECT_EQ(again, std::vector<int>(kShards, 1));
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

}  // namespace
}  // namespace xmp::core
