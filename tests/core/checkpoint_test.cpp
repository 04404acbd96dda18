// In-run checkpoint/restore (DESIGN.md §12).
//
// The contract under test: a run resumed from a snapshot produces results
// identical to the uninterrupted run — including the *bytes* of the next
// checkpoint it writes — and a damaged snapshot (truncated, bit-flipped,
// version- or config-mismatched) is rejected with a clean diagnostic, with
// newest_valid() falling back to the previous good file.

#include "core/checkpoint.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/world.hpp"
#include "faults/invariant_checker.hpp"
#include "net/handoff.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "net/queue.hpp"
#include "obs/timeline.hpp"
#include "sim/scheduler.hpp"

namespace xmp::core {
namespace {

ExperimentConfig small_cfg(int shards = 0) {
  ExperimentConfig cfg;
  cfg.fat_tree_k = 4;
  cfg.pattern = Pattern::Permutation;
  cfg.scheme.kind = workload::SchemeSpec::Kind::Xmp;
  cfg.scheme.subflows = 2;
  cfg.permutation_rounds = 1;
  cfg.perm_min_bytes = 250'000;
  cfg.perm_max_bytes = 500'000;
  cfg.duration = sim::Time::seconds(0.08);
  cfg.seed = 42;
  cfg.shards = shards;
  return cfg;
}

std::string fresh_dir(const std::string& name) {
  const std::string d = ::testing::TempDir() + "xmp_" + name;
  std::filesystem::remove_all(d);
  std::filesystem::create_directories(d);
  return d;
}

std::string slurp(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
}

/// Every deterministic summary field the paper reports.
void expect_same_results(const ExperimentResults& a, const ExperimentResults& b) {
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_EQ(a.sim_duration.ns(), b.sim_duration.ns());
  EXPECT_EQ(a.flows.size(), b.flows.size());
  EXPECT_EQ(a.goodput.count(), b.goodput.count());
  EXPECT_EQ(a.goodput.mean(), b.goodput.mean());
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(a.rtt_by_category[i].count(), b.rtt_by_category[i].count());
    EXPECT_EQ(a.rtt_by_category[i].mean(), b.rtt_by_category[i].mean());
    EXPECT_EQ(a.utilization_by_layer[i].mean(), b.utilization_by_layer[i].mean());
    EXPECT_EQ(a.queue_occupancy_by_layer[i].mean(), b.queue_occupancy_by_layer[i].mean());
  }
  EXPECT_EQ(a.drops.offered, b.drops.offered);
  EXPECT_EQ(a.drops.delivered, b.drops.delivered);
  EXPECT_EQ(a.switch_forwarded, b.switch_forwarded);
  EXPECT_EQ(a.goodput_b.count(), b.goodput_b.count());
  EXPECT_EQ(a.goodput_b.mean(), b.goodput_b.mean());
  EXPECT_EQ(a.flowlet_repaths, b.flowlet_repaths);
  EXPECT_EQ(a.path_rehomes, b.path_rehomes);
  EXPECT_EQ(a.invariant_checks, b.invariant_checks);
  EXPECT_EQ(a.invariant_violations, b.invariant_violations);
}

faults::FaultPlan plan(const std::string& text) {
  faults::FaultPlan p;
  std::string err;
  EXPECT_TRUE(faults::FaultPlan::parse(text, p, &err)) << err;
  return p;
}

/// 16 fluid aggregates and two packet flows, a fluid tick every 200 us.
ExperimentConfig hybrid_cfg() {
  auto cfg = small_cfg();
  cfg.duration = sim::Time::seconds(0.1);
  cfg.hybrid.enabled = true;
  cfg.hybrid.bg_flows = 16;
  cfg.hybrid.bg_bytes = 20'000'000;
  cfg.hybrid.promote_bytes = 2'000'000;
  cfg.hybrid.fg_flows = 2;
  cfg.hybrid.fg_bytes = 100'000;
  cfg.checkpoint.every = sim::Time::seconds(0.02);
  return cfg;
}

/// small_cfg's scheme on the random pattern: one logical shard, so every
/// link is an intra-shard link keyed on shard 0's clock.
ExperimentConfig one_shard_cfg() {
  auto cfg = small_cfg();
  cfg.pattern = Pattern::Random;
  cfg.rand_min_bytes = 250'000;
  cfg.rand_max_bytes = 1'000'000;
  return cfg;
}

/// A delay window from 1 ms to 70 ms on a one-shard run: at the 4 ms
/// snapshot packets sit in link 5's hold buffer, its fault channel is
/// active and the window's end is a pending plan timer.
ExperimentConfig delay_cfg() {
  auto cfg = one_shard_cfg();
  cfg.checkpoint.every = sim::Time::seconds(0.002);
  cfg.fault_plan = plan("delay,link=5,at=0.001,dt=1e-4,jitter=5e-5,until=0.07");
  return cfg;
}

/// A two-round permutation whose snapshot `seq` (at a multiple of `every`)
/// falls between round one's last completion and its round-end event, 40 us
/// later: 8.44 ms at every=2.11 ms (round one ends at 8.40032 ms).
ExperimentConfig round_end_cfg(int shards) {
  auto cfg = small_cfg(shards);
  cfg.permutation_rounds = 2;
  cfg.checkpoint.every = sim::Time::microseconds(2'110);
  return cfg;
}
constexpr std::uint64_t kRoundEndSeq = 4;

/// Cut at `t`, the run has finished every flow it started (round one) and
/// not yet started round two: its round end is pending.
bool round_end_pending(const ExperimentResults& cut, sim::Time) {
  for (const auto& f : cut.flows) {
    if (!f.completed) return false;
  }
  return !cut.flows.empty();
}

/// A websearch-style workload on the k=4 tree: Poisson arrivals from a
/// small size CDF plus two explicit (trace) flows, at 1 ms and 30 ms.
ExperimentConfig workload_cfg() {
  const std::string dir = fresh_dir("resume_wl");
  std::ofstream{dir + "/sizes.cdf"} << "1000 0\n50000 0.6\n1000000 1\n";
  std::ofstream{dir + "/web.wl"} << "nodes 16\ncdf sizes.cdf\nload 0.3\nspan any\n"
                                    "flow 0 8 50000 0.001\nflow 1 9 50000 0.03\n";
  auto spec = std::make_shared<workload::WorkloadSpec>();
  std::string err;
  EXPECT_TRUE(workload::WorkloadSpec::parse_file(dir + "/web.wl", *spec, &err)) << err;
  ExperimentConfig cfg = small_cfg();
  cfg.pattern = Pattern::Workload;
  cfg.workload = spec;
  cfg.duration = sim::Time::seconds(0.05);
  cfg.checkpoint.every = sim::Time::seconds(0.01);
  return cfg;
}

// Every feature checkpoints. The plain case restores from the first
// snapshot; each feature case from one taken after its feature acted (the
// run cut at the snapshot's time shows it), so the resumed run depends on
// the feature's restored state, not on a rerun of it from scratch.
struct ResumeCase {
  const char* name;
  ExperimentConfig cfg;
  std::uint64_t restore_seq;
  /// Whether the feature acted by `t`, judged on the run cut at `t`; null
  /// for the plain case.
  std::function<bool(const ExperimentResults& cut, sim::Time t)> acted;
};

std::vector<ResumeCase> serial_resume_cases() {
  std::vector<ResumeCase> cases;
  auto plain = small_cfg();
  plain.checkpoint.every = sim::Time::seconds(0.002);
  cases.push_back({"plain", plain, 1, nullptr});
  {
    auto cfg = plain;
    cfg.routing.kind = route::PolicyKind::Flowlet;
    cases.push_back({"flowlet", cfg, 2, [](const ExperimentResults& cut, sim::Time) {
                       return cut.flowlet_repaths > 0;
                     }});
  }
  {
    // Three links down at 50 ms and no reroute for 60 s: the subflows
    // pinned to them die after two timeouts and move onto fresh paths.
    auto cfg = small_cfg();
    cfg.permutation_rounds = 4;
    cfg.perm_min_bytes = 2'000'000;
    cfg.perm_max_bytes = 16'000'000;
    cfg.duration = sim::Time::seconds(1.0);
    cfg.seed = 7;
    cfg.fault_plan = plan("down,link=40,at=0.05;down,link=44,at=0.05;down,link=8,at=0.05");
    cfg.routing.reroute_delay = sim::Time::seconds(60);
    cfg.scheme.dead_after_rtos = 2;
    cfg.scheme.max_rehomes = 4;
    cfg.checkpoint.every = sim::Time::seconds(0.05);
    cases.push_back({"rehome", cfg, 14, [](const ExperimentResults& cut, sim::Time) {
                       return cut.path_rehomes > 0;
                     }});
  }
  {
    auto cfg = small_cfg();
    cfg.pattern = Pattern::Random;
    cfg.scheme_b = workload::SchemeSpec{};
    cfg.scheme_b->kind = workload::SchemeSpec::Kind::Dctcp;
    cfg.rand_min_bytes = 250'000;
    cfg.rand_max_bytes = 1'000'000;
    cfg.checkpoint.every = sim::Time::seconds(0.005);
    cases.push_back({"coexist", cfg, 8, [](const ExperimentResults& cut, sim::Time) {
                       for (std::size_t i = 0; i < cut.flows.size(); ++i) {
                         if (cut.flow_scheme[i] == 1 && cut.flows[i].completed) return true;
                       }
                       return false;
                     }});
  }
  {
    auto cfg = plain;
    cfg.check_invariants = true;
    cfg.fault_plan = plan("down,link=40,at=0.002,until=0.02;loss,link=3,at=0,p=0.01");
    cases.push_back({"invariants", cfg, 3, [](const ExperimentResults&, sim::Time t) {
                       return t > faults::InvariantChecker::Config{}.interval;
                     }});
  }
  // The fluid tick is periodic: once one ran, the next is armed.
  cases.push_back({"hybrid", hybrid_cfg(), 2, [](const ExperimentResults& cut, sim::Time) {
                     return cut.hybrid.ticks > 0;
                   }});
  // At 20 ms Poisson flows have arrived (the arrival timer is armed) and
  // the 1 ms trace flow has started, so the walker waits on the 30 ms one.
  cases.push_back({"workload", workload_cfg(), 2, [](const ExperimentResults& cut, sim::Time) {
                     bool trace = false;
                     bool poisson = false;
                     for (const auto& r : cut.fct_records) {
                       (r.start_ns == sim::Time::seconds(0.001).ns() ? trace : poisson) = true;
                     }
                     return trace && poisson;
                   }});
  cases.push_back({"round_end", round_end_cfg(0), kRoundEndSeq, &round_end_pending});
  cases.push_back({"delay", delay_cfg(), 2, [](const ExperimentResults& cut, sim::Time) {
                     for (const auto& row : cut.link_drops) {
                       if (row.link == 5 && row.delayed > 0) return true;
                     }
                     return false;
                   }});
  return cases;
}

TEST(Checkpoint, SerialResumeMatchesUninterrupted) {
  for (const ResumeCase& rc : serial_resume_cases()) {
    SCOPED_TRACE(rc.name);
    const std::string dir_a = fresh_dir(std::string{"serial_a_"} + rc.name);
    const std::string dir_b = fresh_dir(std::string{"serial_b_"} + rc.name);

    auto cfg = rc.cfg;
    cfg.checkpoint.dir = dir_a;
    const auto full = run_experiment(cfg);
    ASSERT_GT(full.ckpt.written, rc.restore_seq);
    const std::string snap = dir_a + "/" + ckpt::file_name(rc.restore_seq);
    if (rc.acted) {
      ckpt::Header h;
      std::string err;
      ASSERT_TRUE(ckpt::probe_file(snap, ckpt::config_fingerprint(cfg), h, &err)) << err;
      auto cut = rc.cfg;
      cut.checkpoint = CheckpointConfig{};
      cut.duration = sim::Time::nanoseconds(h.t_ns);
      ASSERT_TRUE(rc.acted(run_experiment(cut), cut.duration))
          << "snapshot " << rc.restore_seq << " predates the feature";
    }

    // Resume into a second directory; the resumed run must re-write every
    // later checkpoint with identical bytes and finish with identical
    // results and lineage totals.
    auto cfg2 = rc.cfg;
    cfg2.checkpoint.dir = dir_b;
    cfg2.checkpoint.restore_path = snap;
    const auto resumed = run_experiment(cfg2);

    EXPECT_TRUE(resumed.ckpt.restored);
    EXPECT_EQ(resumed.ckpt.restored_seq, rc.restore_seq);
    expect_same_results(full, resumed);
    EXPECT_EQ(full.ckpt.written, resumed.ckpt.written);
    EXPECT_EQ(full.ckpt.bytes, resumed.ckpt.bytes);
    for (std::uint64_t s = rc.restore_seq + 1; s <= full.ckpt.written; ++s) {
      const std::string a = slurp(dir_a + "/" + ckpt::file_name(s));
      const std::string b = slurp(dir_b + "/" + ckpt::file_name(s));
      ASSERT_FALSE(a.empty());
      EXPECT_EQ(a, b) << "checkpoint " << s << " diverged after restore";
    }
  }
}

TEST(Checkpoint, ShardedResumeMatchesUninterrupted) {
  auto plain = small_cfg(/*shards=*/2);
  plain.checkpoint.every = sim::Time::seconds(0.002);
  struct Case {
    const char* name;
    ExperimentConfig cfg;
    std::uint64_t restore_seq;
  };
  for (const Case& c : {Case{"plain", plain, 1}, Case{"round_end", round_end_cfg(2), kRoundEndSeq}}) {
    SCOPED_TRACE(c.name);
    const std::string dir_a = fresh_dir(std::string{"shard_a_"} + c.name);
    const std::string dir_b = fresh_dir(std::string{"shard_b_"} + c.name);

    auto cfg = c.cfg;
    cfg.checkpoint.dir = dir_a;
    const auto full = run_experiment(cfg);
    ASSERT_GT(full.ckpt.written, c.restore_seq);
    const std::string snap = dir_a + "/" + ckpt::file_name(c.restore_seq);
    if (c.restore_seq == kRoundEndSeq) {
      ckpt::Header h;
      std::string err;
      ASSERT_TRUE(ckpt::probe_file(snap, ckpt::config_fingerprint(cfg), h, &err)) << err;
      auto cut = c.cfg;
      cut.checkpoint = CheckpointConfig{};
      cut.duration = sim::Time::nanoseconds(h.t_ns);
      ASSERT_TRUE(round_end_pending(run_experiment(cut), cut.duration));
    }

    auto cfg2 = c.cfg;
    cfg2.checkpoint.dir = dir_b;
    cfg2.checkpoint.restore_path = snap;
    const auto resumed = run_experiment(cfg2);

    EXPECT_TRUE(resumed.ckpt.restored);
    expect_same_results(full, resumed);
    EXPECT_EQ(full.shard.epochs, resumed.shard.epochs);
    EXPECT_EQ(full.shard.barriers, resumed.shard.barriers);
    EXPECT_EQ(full.ckpt.written, resumed.ckpt.written);
    for (std::uint64_t s = c.restore_seq + 1; s <= full.ckpt.written; ++s) {
      const std::string a = slurp(dir_a + "/" + ckpt::file_name(s));
      const std::string b = slurp(dir_b + "/" + ckpt::file_name(s));
      ASSERT_FALSE(a.empty());
      EXPECT_EQ(a, b) << "sharded checkpoint " << s << " diverged after restore";
    }
  }
}

/// A k=4 permutation run with tracing and metrics on (outputs in `dir`).
ExperimentConfig traced_cfg(int shards, const std::string& dir) {
  auto cfg = small_cfg(shards);
  cfg.checkpoint.every = sim::Time::seconds(0.002);
  cfg.checkpoint.dir = dir;
  cfg.obs.trace_csv = dir + "/trace.csv";
  cfg.obs.metrics_json = dir + "/metrics.json";
  return cfg;
}

/// Restore snapshot `seq` of `cfg`'s run into a fresh world and save that
/// world at once: the bytes must be the file's payload, or some module
/// reads a field its save does not write (or in another order).
void expect_restore_then_save_reproduces(const ExperimentConfig& cfg, std::uint64_t seq) {
  ckpt::Header h;
  std::string payload;
  std::string err;
  ASSERT_TRUE(ckpt::read_file(cfg.checkpoint.dir + "/" + ckpt::file_name(seq),
                              ckpt::config_fingerprint(cfg), h, payload, &err))
      << err;
  sim::Scheduler control;
  net::ShardFabric fabric{logical_shards(cfg)};
  World w{cfg, control, fabric};
  ckpt::Io l{payload};
  ASSERT_TRUE(w.checkpoint(l, sim::Time::nanoseconds(h.t_ns)));
  ckpt::Io s;
  ASSERT_TRUE(w.checkpoint(s, control.now()));
  ASSERT_EQ(s.data().size(), payload.size());
  std::size_t first = 0;
  while (first < payload.size() && s.data()[first] == payload[first]) ++first;
  EXPECT_EQ(first, payload.size()) << "first differing byte";
}

TEST(Checkpoint, RestoreThenSaveReproducesThePayload) {
  for (const ResumeCase& rc : serial_resume_cases()) {
    SCOPED_TRACE(rc.name);
    auto cfg = rc.cfg;
    cfg.checkpoint.dir = fresh_dir(std::string{"symmetry_"} + rc.name);
    ASSERT_GE(run_experiment(cfg).ckpt.written, rc.restore_seq);
    expect_restore_then_save_reproduces(cfg, rc.restore_seq);
  }
  {
    SCOPED_TRACE("traced");
    const auto cfg = traced_cfg(0, fresh_dir("symmetry_traced"));
    ASSERT_GE(run_experiment(cfg).ckpt.written, 2u);
    expect_restore_then_save_reproduces(cfg, 2);
  }
}

TEST(Checkpoint, ShardedRestoreThenSaveReproducesThePayload) {
  auto cfg = small_cfg(/*shards=*/2);
  cfg.checkpoint.every = sim::Time::seconds(0.002);
  cfg.checkpoint.dir = fresh_dir("symmetry_sharded");
  ASSERT_GE(run_experiment(cfg).ckpt.written, 2u);
  expect_restore_then_save_reproduces(cfg, 2);
}

// The v6 layout, pinned: snapshot 1 of a traced k=4 permutation (four
// logical shards, at any worker count). A field moved, added or dropped
// under format v6 changes these and would make existing v6 files misparse;
// such a change must bump kFormatVersion instead.
TEST(Checkpoint, GoldenSnapshotBytes) {
  const auto cfg = traced_cfg(0, fresh_dir("golden"));
  ASSERT_GE(run_experiment(cfg).ckpt.written, 1u);
  ckpt::Header h;
  std::string payload;
  std::string err;
  ASSERT_TRUE(ckpt::read_file(cfg.checkpoint.dir + "/" + ckpt::file_name(1),
                              ckpt::config_fingerprint(cfg), h, payload, &err))
      << err;
  EXPECT_EQ(payload.size(), 199733u);
  EXPECT_EQ(ckpt::crc32(payload.data(), payload.size()), 2695414147u);
}

// --invariants is outside the config fingerprint. A snapshot with checker
// state restores without the flag (the state is consumed and dropped); one
// without it restores with the flag (a fresh checker starts there).
TEST(Checkpoint, InvariantStateIsOptionalOnRestore) {
  auto with = small_cfg();
  with.check_invariants = true;
  with.checkpoint.every = sim::Time::seconds(0.002);
  with.checkpoint.dir = fresh_dir("inv_with");
  const auto full_with = run_experiment(with);
  auto without = small_cfg();
  without.checkpoint.every = with.checkpoint.every;
  without.checkpoint.dir = fresh_dir("inv_without");
  const auto full_without = run_experiment(without);
  ASSERT_GE(full_with.ckpt.written, 3u);
  ASSERT_GT(full_with.invariant_checks, 0u);

  auto dropped = small_cfg();
  dropped.checkpoint.restore_path = with.checkpoint.dir + "/" + ckpt::file_name(3);
  const auto r_dropped = run_experiment(dropped);
  EXPECT_TRUE(r_dropped.ckpt.restored);
  EXPECT_EQ(r_dropped.invariant_checks, 0u);
  EXPECT_EQ(r_dropped.goodput.mean(), full_with.goodput.mean());

  auto fresh = small_cfg();
  fresh.check_invariants = true;
  fresh.checkpoint.restore_path = without.checkpoint.dir + "/" + ckpt::file_name(3);
  const auto r_fresh = run_experiment(fresh);
  EXPECT_TRUE(r_fresh.ckpt.restored);
  EXPECT_GT(r_fresh.invariant_checks, 0u);
  EXPECT_LT(r_fresh.invariant_checks, full_with.invariant_checks);
  EXPECT_TRUE(r_fresh.invariant_violations.empty());
  EXPECT_EQ(r_fresh.goodput.mean(), full_without.goodput.mean());
}

// The checker's saved tick key is validated like a link's: a key behind the
// restored clock, or one never handed out, is a malformed payload.
TEST(Checkpoint, RejectsCheckerTickBehindTheClock) {
  auto cfg = small_cfg();
  cfg.check_invariants = true;
  cfg.checkpoint.every = sim::Time::seconds(0.002);
  cfg.checkpoint.dir = fresh_dir("inv_key");
  ASSERT_GE(run_experiment(cfg).ckpt.written, 2u);
  ckpt::Header h;
  std::string payload;
  std::string err;
  ASSERT_TRUE(ckpt::read_file(cfg.checkpoint.dir + "/" + ckpt::file_name(2),
                              ckpt::config_fingerprint(cfg), h, payload, &err))
      << err;
  // INVC: tag, presence flag, armed flag, then the key (t_ns, seq).
  const std::size_t invc = payload.rfind("INVC");
  ASSERT_NE(invc, std::string::npos);
  ASSERT_EQ(payload[invc + 4], 1);
  ASSERT_EQ(payload[invc + 5], 1);
  const std::size_t t_at = invc + 6;
  for (const int field : {0, 1}) {
    std::string bad = payload;
    if (field == 0) {
      const std::int64_t zero = 0;  // before the snapshot's 4 ms
      std::memcpy(&bad[t_at], &zero, 8);
    } else {
      const std::uint64_t never = ~std::uint64_t{0};
      std::memcpy(&bad[t_at + 8], &never, 8);
    }
    const std::string path = cfg.checkpoint.dir + "/mutated.bin";
    ASSERT_TRUE(ckpt::write_file(path, h, bad));
    auto restore = cfg;
    restore.checkpoint = CheckpointConfig{};
    restore.checkpoint.restore_path = path;
    EXPECT_EXIT((void)run_experiment(restore), ::testing::ExitedWithCode(2),
                "restore failed: .*malformed payload");
  }
}

// The pending round end is validated like every other key: one behind the
// restored clock, or one never handed out, is a malformed payload.
TEST(Checkpoint, RejectsRoundEndBehindTheClock) {
  auto cfg = round_end_cfg(0);
  cfg.checkpoint.dir = fresh_dir("round_end_key");
  ASSERT_GE(run_experiment(cfg).ckpt.written, kRoundEndSeq);
  ckpt::Header h;
  std::string payload;
  std::string err;
  ASSERT_TRUE(ckpt::read_file(cfg.checkpoint.dir + "/" + ckpt::file_name(kRoundEndSeq),
                              ckpt::config_fingerprint(cfg), h, payload, &err))
      << err;
  // WKLD: tag, rng state (4 x u64), completed rounds, outstanding flows and
  // latest completion (i64 each), armed flag, then the key (t_ns, seq).
  const std::size_t wkld = payload.find("WKLD");
  ASSERT_NE(wkld, std::string::npos);
  const std::size_t armed_at = wkld + 4 + 32 + 24;
  ASSERT_EQ(payload[armed_at], 1);
  const std::size_t t_at = armed_at + 1;
  std::int64_t end_ns = 0;
  std::memcpy(&end_ns, &payload[t_at], 8);
  ASSERT_GT(end_ns, h.t_ns) << "WKLD walk lost sync";
  for (const int field : {0, 1}) {
    std::string bad = payload;
    if (field == 0) {
      const std::int64_t behind = h.t_ns - 1;
      std::memcpy(&bad[t_at], &behind, 8);
    } else {
      const std::uint64_t never = ~std::uint64_t{0};
      std::memcpy(&bad[t_at + 8], &never, 8);
    }
    const std::string path = cfg.checkpoint.dir + "/mutated.bin";
    ASSERT_TRUE(ckpt::write_file(path, h, bad));
    auto restore = cfg;
    restore.checkpoint = CheckpointConfig{};
    restore.checkpoint.restore_path = path;
    EXPECT_EXIT((void)run_experiment(restore), ::testing::ExitedWithCode(2),
                "restore failed: .*malformed payload");
  }
}

// A flow record's host indices must name hosts of the restored world (16 on
// k=4): one outside it, or one that only truncates into range, is a
// malformed payload, never an out-of-range abort or a silently wrong host.
TEST(Checkpoint, RejectsFlowHostOutsideTheWorld) {
  auto cfg = small_cfg();
  cfg.checkpoint.every = sim::Time::seconds(0.002);
  cfg.checkpoint.dir = fresh_dir("flow_host");
  ASSERT_GE(run_experiment(cfg).ckpt.written, 1u);
  ckpt::Header h;
  std::string payload;
  std::string err;
  ASSERT_TRUE(ckpt::read_file(cfg.checkpoint.dir + "/" + ckpt::file_name(1),
                              ckpt::config_fingerprint(cfg), h, payload, &err))
      << err;
  // FLWA: tag, next id, active, aborted and record count (u64 each), then
  // the first record's id (u32), src_host and dst_host (i64 each).
  const std::size_t flwa = payload.find("FLWA");
  ASSERT_NE(flwa, std::string::npos);
  std::uint64_t records = 0;
  std::memcpy(&records, &payload[flwa + 28], 8);
  ASSERT_GE(records, 1u);
  const std::size_t src_at = flwa + 36 + 4;
  for (const std::size_t at : {src_at, src_at + 8}) {
    std::int64_t saved = 0;
    std::memcpy(&saved, &payload[at], 8);
    ASSERT_TRUE(saved >= 0 && saved < 16) << "FLWA walk lost sync";
    for (const std::int64_t host : {std::int64_t{100000}, std::int64_t{-1}, std::int64_t{16},
                                    (std::int64_t{1} << 32) + saved}) {
      std::string bad = payload;
      std::memcpy(&bad[at], &host, 8);
      const std::string path = cfg.checkpoint.dir + "/mutated.bin";
      ASSERT_TRUE(ckpt::write_file(path, h, bad));
      auto restore = cfg;
      restore.checkpoint = CheckpointConfig{};
      restore.checkpoint.restore_path = path;
      EXPECT_EXIT((void)run_experiment(restore), ::testing::ExitedWithCode(2),
                  "restore failed: .*malformed payload")
          << "host " << host;
    }
  }
}

TEST(Checkpoint, ExternalStopWritesResumableSnapshot) {
  const std::string dir = fresh_dir("stop");

  // A stop flag raised before the first event: the engine halts at its
  // first quiescent point, writes a final checkpoint, and reports the
  // interruption instead of a completed run.
  std::atomic<bool> stop{true};
  auto cfg = small_cfg();
  cfg.checkpoint.dir = dir;
  cfg.checkpoint.stop_requested = &stop;
  const auto halted = run_experiment(cfg);
  EXPECT_TRUE(halted.ckpt.interrupted);
  ASSERT_EQ(halted.ckpt.written, 1u);

  // Resuming that snapshot runs to completion with the results of a plain
  // uninterrupted run.
  auto cfg2 = small_cfg();
  cfg2.checkpoint.restore_path = halted.ckpt.last_path;
  const auto resumed = run_experiment(cfg2);
  const auto plain = run_experiment(small_cfg());
  EXPECT_FALSE(resumed.ckpt.interrupted);
  expect_same_results(plain, resumed);
}

TEST(Checkpoint, CorruptionRejectedWithFallback) {
  const std::string dir = fresh_dir("corrupt");
  auto cfg = small_cfg();
  cfg.checkpoint.every = sim::Time::seconds(0.002);
  cfg.checkpoint.dir = dir;
  const auto full = run_experiment(cfg);
  ASSERT_GE(full.ckpt.written, 2u);
  const std::uint64_t fp = ckpt::config_fingerprint(cfg);
  const std::string newest = dir + "/" + ckpt::file_name(full.ckpt.written);
  const std::string prev = dir + "/" + ckpt::file_name(full.ckpt.written - 1);

  // Pristine: both probe clean, newest_valid picks the highest seq.
  ckpt::Header h;
  std::string err;
  ASSERT_TRUE(ckpt::probe_file(newest, fp, h, &err)) << err;
  EXPECT_EQ(ckpt::newest_valid(dir, fp), newest);

  // Bit-flip one payload byte: CRC mismatch, one-line diagnostic, and
  // newest_valid falls back to the previous good snapshot.
  const std::string pristine = slurp(newest);
  ASSERT_GT(pristine.size(), ckpt::kHeaderBytes + 8);
  {
    std::string bad = pristine;
    bad[ckpt::kHeaderBytes + 7] = static_cast<char>(bad[ckpt::kHeaderBytes + 7] ^ 0x20);
    std::ofstream{newest, std::ios::binary} << bad;
  }
  err.clear();
  EXPECT_FALSE(ckpt::probe_file(newest, fp, h, &err));
  EXPECT_NE(err.find("CRC"), std::string::npos) << err;
  EXPECT_EQ(ckpt::newest_valid(dir, fp), prev);

  // Truncation: rejected, same fallback.
  std::ofstream{newest, std::ios::binary} << pristine.substr(0, pristine.size() / 2);
  EXPECT_FALSE(ckpt::probe_file(newest, fp, h, &err));
  EXPECT_EQ(ckpt::newest_valid(dir, fp), prev);

  // Future format version: rejected before any payload is touched.
  {
    std::string bad = pristine;
    bad[4] = static_cast<char>(bad[4] + 1);  // version u32 LE at offset 4
    std::ofstream{newest, std::ios::binary} << bad;
  }
  err.clear();
  EXPECT_FALSE(ckpt::probe_file(newest, fp, h, &err));
  EXPECT_NE(err.find("version"), std::string::npos) << err;

  // The previous format (v5 kept a transmit-completion key per link
  // instead of the transmitter's end time): rejected the same way.
  {
    std::string bad = pristine;
    bad[4] = static_cast<char>(ckpt::kFormatVersion - 1);
    std::ofstream{newest, std::ios::binary} << bad;
  }
  err.clear();
  EXPECT_FALSE(ckpt::probe_file(newest, fp, h, &err));
  EXPECT_NE(err.find("version"), std::string::npos) << err;

  // Config-fingerprint mismatch (e.g. a different seed): rejected.
  std::ofstream{newest, std::ios::binary} << pristine;
  EXPECT_FALSE(ckpt::probe_file(newest, fp + 1, h, &err));

  // Every candidate damaged: newest_valid reports "nothing usable".
  std::ofstream{prev, std::ios::binary} << std::string{"garbage"};
  std::ofstream{newest, std::ios::binary} << std::string{"garbage"};
  for (std::uint64_t s = 1; s <= full.ckpt.written; ++s) {
    std::ofstream{dir + "/" + ckpt::file_name(s), std::ios::binary} << std::string{"x"};
  }
  EXPECT_EQ(ckpt::newest_valid(dir, fp), "");
}

// A snapshot name whose seq no uint64 holds is skipped, never thrown on:
// the good snapshot next to it still wins.
TEST(Checkpoint, NewestValidSkipsASeqThatDoesNotFit) {
  const std::string dir = fresh_dir("bigseq");
  auto cfg = small_cfg();
  cfg.checkpoint.every = sim::Time::seconds(0.002);
  cfg.checkpoint.dir = dir;
  const auto full = run_experiment(cfg);
  ASSERT_GE(full.ckpt.written, 1u);
  const std::string good = dir + "/" + ckpt::file_name(full.ckpt.written);
  std::filesystem::copy_file(good, dir + "/ckpt_99999999999999999999999.bin");
  std::filesystem::copy_file(good, dir + "/ckpt_18446744073709551616.bin");  // 2^64
  EXPECT_EQ(ckpt::newest_valid(dir, ckpt::config_fingerprint(cfg)), good);
}

TEST(Checkpoint, CadenceSameInBothEngines) {
  // A horizon that is a multiple of the cadence: one inline worker and two
  // workers both write at 1, 2 and 3 ms, and neither at the horizon itself
  // (boundaries lie strictly before it). Flows of 2 MB and more cannot
  // finish in 4 ms, so neither run ends early.
  std::uint64_t written[2] = {};
  for (const int shards : {0, 2}) {
    auto cfg = small_cfg(shards);
    cfg.perm_min_bytes = 2'000'000;
    cfg.perm_max_bytes = 16'000'000;
    cfg.duration = sim::Time::seconds(0.004);
    cfg.checkpoint.every = sim::Time::seconds(0.001);
    cfg.checkpoint.dir = fresh_dir("cadence_" + std::to_string(shards));
    written[shards == 0 ? 0 : 1] = run_experiment(cfg).ckpt.written;
  }
  EXPECT_EQ(written[0], 3u);
  EXPECT_EQ(written[1], written[0]);
}

TEST(Checkpoint, SchedulerPendingKeyRoundTrip) {
  using sim::Time;
  sim::Scheduler a;
  std::vector<int> order;
  a.schedule_at(Time::microseconds(10), [&] { order.push_back(1); });
  sim::EventId e2 = a.schedule_at(Time::microseconds(30), [&] { order.push_back(2); });
  sim::EventId e3 = a.schedule_at(Time::microseconds(30), [&] { order.push_back(3); });
  sim::EventId none = sim::kInvalidEventId;
  a.run_until(Time::microseconds(20));  // fires event 1; 2 and 3 stay pending

  // Saved in the *opposite* order, so the restore below re-arms 3 before
  // 2; the saved (t, seq) keys must still reproduce the original
  // equal-timestamp FIFO order.
  ckpt::Io s;
  s.event(a, e3, [] {});
  s.opt_event(a, e2, [] {});
  s.opt_event(a, none, [] {});

  sim::Scheduler b;
  b.restore_clock(a.now(), a.next_seq(), a.dispatched());
  std::vector<int> replay;
  ckpt::Io l{s.data()};
  sim::EventId r3 = sim::kInvalidEventId;
  sim::EventId r2 = sim::kInvalidEventId;
  sim::EventId r4 = sim::kInvalidEventId;
  l.event(b, r3, [&] { replay.push_back(3); });
  l.opt_event(b, r2, [&] { replay.push_back(2); });
  l.opt_event(b, r4, [&] { replay.push_back(4); });
  EXPECT_NE(r3, sim::kInvalidEventId);
  EXPECT_NE(r2, sim::kInvalidEventId);
  EXPECT_EQ(r4, sim::kInvalidEventId);
  EXPECT_TRUE(l.done());
  b.run_until(Time::microseconds(50));
  EXPECT_EQ(replay, (std::vector<int>{2, 3}));
  EXPECT_EQ(b.now().ns(), Time::microseconds(50).ns());
  EXPECT_EQ(b.dispatched(), a.dispatched() + 2);
}

// The codec's load side: a key the restored clock passed, or one at or
// above next_seq(), fails the pass and arms nothing; so does a count
// that is not the rebuilt structure's size.
TEST(Checkpoint, CodecRejectsKeysTheClockCannotDispatch) {
  using sim::Time;
  sim::Scheduler a;
  a.schedule_at(Time::microseconds(10), [] {});
  sim::EventId e = a.schedule_at(Time::microseconds(30), [] {});
  a.run_until(Time::microseconds(20));
  ckpt::Io s;
  s.event(a, e, [] {});
  s.count(3);

  const auto load = [&](Time now, std::uint64_t next_seq, std::uint64_t count) {
    sim::Scheduler b;
    b.restore_clock(now, next_seq, 0);
    ckpt::Io l{s.data()};
    sim::EventId id = sim::kInvalidEventId;
    l.event(b, id, [] {});
    EXPECT_EQ(id == sim::kInvalidEventId, !l.ok());
    EXPECT_EQ(b.pending(), l.ok() ? 1u : 0u);
    return l.count(count) && l.done();
  };
  EXPECT_TRUE(load(a.now(), a.next_seq(), 3));
  EXPECT_FALSE(load(Time::microseconds(31), a.next_seq(), 3)) << "key behind the clock";
  EXPECT_FALSE(load(a.now(), a.next_seq() - 1, 3)) << "sequence never handed out";
  EXPECT_FALSE(load(a.now(), a.next_seq(), 2)) << "count off the built structure";
}

// ---------------------------------------------------------------------------
// Validated restore of link state: a snapshot whose CRC is valid but whose
// LNKS content is impossible must end in the one-line "malformed payload"
// exit 2 (release builds included), never in a corrupted event queue.
// ---------------------------------------------------------------------------

class NullSink final : public net::PacketSink {
 public:
  void receive(net::Packet /*p*/) override {}
};

/// Where the fields of one intra-shard link's LNKS entry live. The entry
/// starts with the down flag, thirteen u64 counters, the degrade factor
/// and fluid share, then the transmitter's end time; it ends with:
/// in-flight (count + t, seq, packet each), the handed and landed counts,
/// remote arrivals (count); an intra-shard link's remote sections are
/// empty.
struct LinkEntry {
  static constexpr std::size_t kPacketBytes = 59;  // save_packet()
  static constexpr std::size_t kFlightBytes = 16 + kPacketBytes;
  static constexpr std::size_t kTxEnd = 1 + 13 * 8 + 2 * 8;
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t n_flight = 0;   ///< packets in the in-flight FIFO
  std::size_t n_queued = 0;   ///< packets in the queue, started or not
  std::size_t n_waiting = 0;  ///< of those, not due yet
  std::size_t n_held = 0;

  [[nodiscard]] std::size_t tx_end() const { return begin + kTxEnd; }
  [[nodiscard]] std::size_t arrivals_count() const { return end - 8; }
  [[nodiscard]] std::size_t flight(std::size_t k) const {
    return end - 24 - kFlightBytes * n_flight + kFlightBytes * k;
  }
};

struct SnapshotLinks {
  sim::Time now;
  std::uint64_t next_seq = 0;
  std::vector<LinkEntry> links;
};

/// Walk a one-shard snapshot's LNKS section by restoring each entry into a
/// throwaway link on the shard's clock (the queue kind does not matter:
/// none of the experiment's queues carries extra state).
SnapshotLinks walk_links(const std::string& payload) {
  SnapshotLinks out;
  ckpt::Io l{payload};
  std::uint64_t disp = 0;
  auto clock = [&] {
    l.time(out.now);
    l.u64(out.next_seq);
    l.u64(disp);
  };
  l.tag("SCHD");
  clock();  // the control strand's, overwritten by the shard's below
  l.tag("SHRD");
  EXPECT_TRUE(l.count(1)) << "not a one-shard snapshot";
  clock();
  l.tag("LNKS");
  std::uint64_t n = 0;
  l.u64(n);
  for (std::uint64_t i = 0; i < n && l.ok(); ++i) {
    sim::Scheduler sched;
    sched.restore_clock(out.now, out.next_seq, disp);
    NullSink sink;
    net::QueueConfig q;
    q.kind = net::QueueConfig::Kind::DropTail;
    q.capacity_packets = 1000;
    net::Link link{sched, static_cast<net::LinkId>(i), 1'000'000'000, sim::Time::zero(),
                   net::make_queue(q), sink};
    LinkEntry e;
    e.begin = l.offset();
    link.checkpoint(l);
    e.end = l.offset();
    e.n_queued = link.queue().len_packets();
    e.n_waiting = link.queued();
    // live_in_flight() counts the due packets too.
    e.n_flight = link.live_in_flight() - (e.n_queued - e.n_waiting);
    e.n_held = link.held();
    out.links.push_back(e);
  }
  l.tag("SWCH");
  EXPECT_TRUE(l.ok()) << "LNKS walk lost sync";
  return out;
}

void put_i64(std::string& p, std::size_t at, std::int64_t v) { std::memcpy(&p[at], &v, 8); }
void put_u64(std::string& p, std::size_t at, std::uint64_t v) { std::memcpy(&p[at], &v, 8); }
std::int64_t get_i64(const std::string& p, std::size_t at) {
  std::int64_t v;
  std::memcpy(&v, &p[at], 8);
  return v;
}

class LinkRestoreValidation : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fresh_dir("lnks_" + std::string{
                         ::testing::UnitTest::GetInstance()->current_test_info()->name()});
    auto cfg = one_shard_cfg();
    cfg.checkpoint.every = sim::Time::seconds(0.002);
    cfg.checkpoint.dir = dir_;
    const auto full = run_experiment(cfg);
    ASSERT_GE(full.ckpt.written, 1u);
    std::string err;
    ASSERT_TRUE(ckpt::read_file(dir_ + "/" + ckpt::file_name(1), ckpt::config_fingerprint(cfg),
                                header_, payload_, &err))
        << err;
    snap_ = walk_links(payload_);
    for (std::size_t i = 0; i < snap_.links.size(); ++i) {
      if (snap_.links[i].n_queued > 0 && queued_ < 0) queued_ = static_cast<int>(i);
      if (snap_.links[i].n_flight >= 2 && flying_ < 0) flying_ = static_cast<int>(i);
    }
    ASSERT_GE(queued_, 0) << "snapshot has no link with a queued packet";
    ASSERT_GE(flying_, 0) << "snapshot has no link with two packets in flight";
  }

  /// Publish `payload` (fresh CRC) under `header` and restore from it.
  void restore(const std::string& payload, const ckpt::Header& header) {
    const std::string path = dir_ + "/mutated.bin";
    ASSERT_TRUE(ckpt::write_file(path, header, payload));
    auto cfg = one_shard_cfg();
    cfg.checkpoint.restore_path = path;
    const auto r = run_experiment(cfg);
    EXPECT_TRUE(r.ckpt.restored);
  }
  void restore(const std::string& payload) { restore(payload, header_); }

  void expect_rejected(const std::string& payload) {
    EXPECT_EXIT(restore(payload), ::testing::ExitedWithCode(2),
                "restore failed: .*malformed payload");
  }

  std::string dir_;
  ckpt::Header header_;
  std::string payload_;
  SnapshotLinks snap_;
  int queued_ = -1;
  int flying_ = -1;
};

TEST_F(LinkRestoreValidation, PristineRewriteRestores) { restore(payload_); }

TEST_F(LinkRestoreValidation, RejectsDeliveryBeforeRestoredClock) {
  std::string bad = payload_;
  put_i64(bad, snap_.links[flying_].flight(0), snap_.now.ns() - 1);
  expect_rejected(bad);
}

// A queued packet starts when the transmission ahead of it is delivered,
// at the transmitter's end plus the propagation delay. A transmitter that
// frees up after that delivery leaves the packet with no trigger at all.
TEST_F(LinkRestoreValidation, RejectsQueuedPacketWithoutTrigger) {
  const LinkEntry& e = snap_.links[queued_];
  ASSERT_GE(e.n_flight, 1u);
  const std::int64_t last_delivery = get_i64(payload_, e.flight(e.n_flight - 1));
  ASSERT_GE(last_delivery, get_i64(payload_, e.tx_end()));
  std::string bad = payload_;
  put_i64(bad, e.tx_end(), last_delivery + 1);
  expect_rejected(bad);
}

TEST_F(LinkRestoreValidation, RejectsSequenceNeverHandedOut) {
  std::string bad = payload_;
  put_u64(bad, snap_.links[flying_].flight(0) + 8, snap_.next_seq);
  expect_rejected(bad);
}

TEST_F(LinkRestoreValidation, RejectsDeliveriesOutOfTimeOrder) {
  const LinkEntry& e = snap_.links[flying_];
  const std::int64_t first = get_i64(payload_, e.flight(0));
  ASSERT_GT(first - 1, snap_.now.ns());  // still a valid key on its own
  std::string bad = payload_;
  put_i64(bad, e.flight(1), first - 1);
  expect_rejected(bad);
}

TEST_F(LinkRestoreValidation, RejectsRemoteArrivalOnSerialLink) {
  const LinkEntry& e = snap_.links[flying_];
  std::string bad = payload_;
  put_u64(bad, e.arrivals_count(), 1);
  std::string entry(LinkEntry::kFlightBytes, '\0');
  put_i64(entry, 0, snap_.now.ns() + 1000);
  put_u64(entry, 8, 1);
  bad.insert(e.end, entry);
  expect_rejected(bad);
}

// Format v5 kept a transmit-completion key per link and no transmitter end
// time: its LNKS entries would misparse, so the header check refuses it
// before the payload is read, with one line and exit 2.
TEST_F(LinkRestoreValidation, RejectsFormatV5Snapshot) {
  ckpt::Header v5 = header_;
  v5.version = 5;
  EXPECT_EXIT(restore(payload_, v5), ::testing::ExitedWithCode(2),
              "restore failed: checkpoint .*: format version 5 \\(expected 6\\)");
}

// Transmissions start lazily, so a snapshot can hold a queue whose head is
// due (its start lies before the snapshot time) while nothing has started
// it yet: the delivery ahead of it comes later. A run killed there and
// resumed must start it exactly where the uninterrupted run does.
TEST(Checkpoint, ResumeFromAMidBurstSnapshotMatchesUninterrupted) {
  const std::string dir_a = fresh_dir("midburst_a");
  const std::string dir_b = fresh_dir("midburst_b");
  auto cfg = one_shard_cfg();
  cfg.checkpoint.every = sim::Time::seconds(0.002);
  cfg.checkpoint.dir = dir_a;
  const auto full = run_experiment(cfg);
  std::uint64_t seq = 0;
  for (std::uint64_t s = 1; s < full.ckpt.written && seq == 0; ++s) {
    ckpt::Header h;
    std::string payload;
    std::string err;
    ASSERT_TRUE(ckpt::read_file(dir_a + "/" + ckpt::file_name(s), ckpt::config_fingerprint(cfg),
                                h, payload, &err))
        << err;
    for (const LinkEntry& e : walk_links(payload).links) {
      if (e.n_waiting < e.n_queued) seq = s;
    }
  }
  ASSERT_GT(seq, 0u) << "no snapshot holds a due transmission that has not started";

  auto resume = one_shard_cfg();
  resume.checkpoint.every = cfg.checkpoint.every;
  resume.checkpoint.dir = dir_b;
  resume.checkpoint.restore_path = dir_a + "/" + ckpt::file_name(seq);
  const auto resumed = run_experiment(resume);
  EXPECT_TRUE(resumed.ckpt.restored);
  expect_same_results(full, resumed);
  for (std::uint64_t s = seq + 1; s <= full.ckpt.written; ++s) {
    EXPECT_EQ(slurp(dir_a + "/" + ckpt::file_name(s)), slurp(dir_b + "/" + ckpt::file_name(s)))
        << "checkpoint " << s << " diverged after restore";
  }
}

// ---------------------------------------------------------------------------
// Validated clocks: snapshots are only taken with every clock aligned at the
// header's time, inside the horizon. A snapshot that breaks any of that
// must end in "malformed payload", exit 2, in release builds too.
// ---------------------------------------------------------------------------

class ClockRestoreValidation : public ::testing::Test {
 protected:
  // Payload offsets: "SCHD", control clock (t, seq, dispatched), "SHRD",
  // shard count, then one 24-byte clock per shard.
  static constexpr std::size_t kControlTime = 4;
  static constexpr std::size_t kShardCount = 32;
  static constexpr std::size_t kShardTime0 = 40;
  static constexpr std::size_t kClockBytes = 24;

  void SetUp() override {
    dir_ = fresh_dir("clock_" + std::string{
                         ::testing::UnitTest::GetInstance()->current_test_info()->name()});
    auto cfg = small_cfg(/*shards=*/2);
    cfg.checkpoint.every = sim::Time::seconds(0.002);
    cfg.checkpoint.dir = dir_;
    const auto full = run_experiment(cfg);
    ASSERT_GE(full.ckpt.written, 1u);
    std::string err;
    ASSERT_TRUE(ckpt::read_file(dir_ + "/" + ckpt::file_name(1), ckpt::config_fingerprint(cfg),
                                header_, payload_, &err))
        << err;
    std::uint64_t shards = 0;
    std::memcpy(&shards, &payload_[kShardCount], 8);
    ASSERT_EQ(shards, 4u);  // one logical shard per pod at k=4
    ASSERT_EQ(get_i64(payload_, kControlTime), header_.t_ns);
  }

  [[nodiscard]] std::size_t shard_time(std::size_t shard) const {
    return kShardTime0 + kClockBytes * shard;
  }

  /// Publish `payload` under `h` (fresh CRC) and restore it into `cfg`.
  void restore(const ckpt::Header& h, const std::string& payload,
               ExperimentConfig cfg = small_cfg(/*shards=*/2)) {
    const std::string path = dir_ + "/mutated.bin";
    ASSERT_TRUE(ckpt::write_file(path, h, payload));
    cfg.checkpoint.restore_path = path;
    const auto r = run_experiment(cfg);
    EXPECT_TRUE(r.ckpt.restored);
  }

  void expect_rejected(const ckpt::Header& h, const std::string& payload,
                       const ExperimentConfig& cfg = small_cfg(/*shards=*/2)) {
    EXPECT_EXIT(restore(h, payload, cfg), ::testing::ExitedWithCode(2),
                "restore failed: .*malformed payload");
  }

  std::string dir_;
  ckpt::Header header_;
  std::string payload_;
};

TEST_F(ClockRestoreValidation, PristineRewriteRestores) { restore(header_, payload_); }

TEST_F(ClockRestoreValidation, RejectsShardClockOffControlClock) {
  std::string bad = payload_;
  put_i64(bad, shard_time(1), header_.t_ns - 1);
  expect_rejected(header_, bad);
}

TEST_F(ClockRestoreValidation, RejectsControlClockOffHeaderTime) {
  ckpt::Header h = header_;
  h.t_ns += 1;
  expect_rejected(h, payload_);
}

TEST_F(ClockRestoreValidation, RejectsClocksPastHorizon) {
  // The untouched snapshot restored into a run whose horizon ends before
  // it, under that run's fingerprint: only the clock range is wrong.
  auto cfg = small_cfg(/*shards=*/2);
  cfg.duration = sim::Time::nanoseconds(header_.t_ns - 1);
  ckpt::Header h = header_;
  h.fingerprint = ckpt::config_fingerprint(cfg);
  expect_rejected(h, payload_, cfg);
}

// ---------------------------------------------------------------------------
// Validated event keys beyond the links: every module re-arms its pending
// events through the one codec (Io::event/key), so a key the restored
// clock cannot dispatch, a count above the structure the config rebuilt, or
// a link id the topology lacks is a "malformed payload", exit 2, in release
// builds too.
// ---------------------------------------------------------------------------

std::uint64_t get_u64(const std::string& p, std::size_t at) {
  std::uint64_t v;
  std::memcpy(&v, &p[at], 8);
  return v;
}

class KeyRestoreValidation : public ::testing::Test {
 protected:
  /// Run `cfg` with checkpoints and load its snapshot `seq`; keys are
  /// validated against the control clock unless use_shard_clock() is
  /// called.
  void snapshot(ExperimentConfig cfg, std::uint64_t seq) {
    dir_ = fresh_dir("keys_" + std::string{
                         ::testing::UnitTest::GetInstance()->current_test_info()->name()});
    cfg_ = cfg;
    cfg.checkpoint.dir = dir_;
    ASSERT_GE(run_experiment(cfg).ckpt.written, seq);
    std::string err;
    ASSERT_TRUE(ckpt::read_file(dir_ + "/" + ckpt::file_name(seq), ckpt::config_fingerprint(cfg),
                                header_, payload_, &err))
        << err;
    // SCHD: tag, clock (t, next_seq, dispatched).
    now_ = get_i64(payload_, 4);
    next_seq_ = get_u64(payload_, 12);
  }

  /// Validate keys against shard 0's clock, where a one-shard run's
  /// generators schedule. SHRD: tag, shard count, then one clock per shard.
  void use_shard_clock() {
    ASSERT_EQ(payload_.compare(28, 4, "SHRD"), 0);
    ASSERT_EQ(get_u64(payload_, 32), 1u);
    ASSERT_EQ(get_i64(payload_, 40), now_);
    next_seq_ = get_u64(payload_, 48);
  }

  /// Offset of the first byte after section tag `tag`.
  [[nodiscard]] std::size_t section(const char* tag) const {
    const std::size_t at = payload_.rfind(tag);
    EXPECT_NE(at, std::string::npos) << tag;
    return at + 4;
  }

  void expect_rejected(const std::string& payload) {
    const std::string path = dir_ + "/mutated.bin";
    ASSERT_TRUE(ckpt::write_file(path, header_, payload));
    auto cfg = cfg_;
    cfg.checkpoint = CheckpointConfig{};
    cfg.checkpoint.restore_path = path;
    EXPECT_EXIT((void)run_experiment(cfg), ::testing::ExitedWithCode(2),
                "restore failed: .*malformed payload");
  }

  /// The (t_ns, seq) key at `at` is a live one; moved behind the restored
  /// clock, or onto a sequence never handed out, it must be rejected.
  void expect_key_validated(std::size_t at) {
    ASSERT_GE(get_i64(payload_, at), now_) << "not a pending key";
    ASSERT_LT(get_u64(payload_, at + 8), next_seq_) << "not a pending key";
    std::string behind = payload_;
    put_i64(behind, at, now_ - 1);
    expect_rejected(behind);
    std::string unreserved = payload_;
    put_u64(unreserved, at + 8, next_seq_);
    expect_rejected(unreserved);
  }

  std::string dir_;
  ExperimentConfig cfg_;
  ckpt::Header header_;
  std::string payload_;
  std::int64_t now_ = 0;
  std::uint64_t next_seq_ = 0;
};

TEST_F(KeyRestoreValidation, RejectsBadProbeTickKey) {
  auto cfg = small_cfg();
  cfg.checkpoint.every = sim::Time::seconds(0.002);
  snapshot(cfg, 1);
  // PROB opens with the RTT probe: sample count, samples, armed flag, key.
  const std::size_t p = section("PROB");
  const std::size_t armed = p + 8 + 8 * get_u64(payload_, p);
  ASSERT_EQ(payload_[armed], 1);
  expect_key_validated(armed + 1);
}

// A sample count no payload could hold is a short read, not a reserve()
// that throws std::length_error past the "malformed payload" exit.
TEST_F(KeyRestoreValidation, RejectsProbeSampleCountPastThePayload) {
  auto cfg = small_cfg();
  cfg.checkpoint.every = sim::Time::seconds(0.002);
  snapshot(cfg, 1);
  std::string bad = payload_;
  put_u64(bad, section("PROB"), std::uint64_t{1} << 61);
  expect_rejected(bad);
}

TEST_F(KeyRestoreValidation, RejectsBadHybridTickKey) {
  snapshot(hybrid_cfg(), 1);
  // HYBR ends with the tick's armed flag and key, right before PROB.
  const std::size_t key = section("PROB") - 4 - 16;
  ASSERT_EQ(payload_[key - 1], 1);
  expect_key_validated(key);
}

TEST_F(KeyRestoreValidation, RejectsHybridLinkCountAboveBuiltLinks) {
  snapshot(hybrid_cfg(), 1);
  // HYBR: presence flag, link count, one 64-byte state per link. One more
  // well-formed entry keeps the rest aligned: only the count is wrong.
  const std::size_t h = section("HYBR");
  ASSERT_EQ(payload_[h], 1);
  const std::uint64_t n = get_u64(payload_, h + 1);
  std::string bad = payload_;
  put_u64(bad, h + 1, n + 1);
  bad.insert(h + 9 + 64 * n, std::string(64, '\0'));
  expect_rejected(bad);
}

TEST_F(KeyRestoreValidation, RejectsBadFaultPlanKey) {
  snapshot(delay_cfg(), 2);
  // The "delay" resume case restores this snapshot for its hold buffer.
  ASSERT_GT(walk_links(payload_).links[5].n_held, 0u);
  // FLTC: presence flag, events applied, event count, then per plan event
  // a pending flag and, when set, its key.
  const std::size_t f = section("FLTC");
  ASSERT_EQ(payload_[f], 1);
  std::size_t at = f + 17;
  for (std::uint64_t i = 0; i < get_u64(payload_, f + 9) && payload_[at] == 0; ++i) ++at;
  ASSERT_EQ(payload_[at], 1) << "no pending plan event";
  expect_key_validated(at + 1);
}

TEST_F(KeyRestoreValidation, RejectsFaultChannelOnUnknownLink) {
  snapshot(delay_cfg(), 2);
  const std::size_t f = section("FLTC");
  std::size_t at = f + 17;
  for (std::uint64_t i = 0; i < get_u64(payload_, f + 9); ++i) at += payload_[at] == 1 ? 17 : 1;
  ASSERT_EQ(get_u64(payload_, at), 1u) << "one active channel";
  ASSERT_EQ(get_u64(payload_, at + 8) & 0xffffffffu, 5u);
  std::string bad = payload_;
  const std::uint32_t unknown = 0xffffffffu;
  std::memcpy(&bad[at + 8], &unknown, 4);
  expect_rejected(bad);
}

/// Link 40 down at 1 ms with a 60 s reroute delay: its convergence timer
/// is pending at every later snapshot.
ExperimentConfig reroute_cfg() {
  auto cfg = small_cfg();
  cfg.checkpoint.every = sim::Time::seconds(0.002);
  cfg.fault_plan = plan("down,link=40,at=0.001");
  cfg.routing.reroute_delay = sim::Time::seconds(60);
  return cfg;
}

TEST_F(KeyRestoreValidation, RejectsBadConvergeTimerKey) {
  snapshot(reroute_cfg(), 1);
  // RTEM: reroute tally, timer count, then per timer a u32 link id and key.
  const std::size_t r = section("RTEM");
  ASSERT_EQ(get_u64(payload_, r + 8), 1u);
  expect_key_validated(r + 20);
}

TEST_F(KeyRestoreValidation, RejectsConvergeTimerOnUnknownLink) {
  snapshot(reroute_cfg(), 1);
  const std::size_t r = section("RTEM");
  ASSERT_EQ(get_u64(payload_, r + 8), 1u);
  std::string bad = payload_;
  const std::uint32_t unknown = 0xffffffffu;
  std::memcpy(&bad[r + 16], &unknown, 4);
  expect_rejected(bad);
}

// A flowlet entry names its member by index; one the table lacks would be
// read out of bounds by the entry's next packet.
TEST_F(KeyRestoreValidation, RejectsFlowletEntryOnUnknownMember) {
  auto cfg = small_cfg();
  cfg.routing.kind = route::PolicyKind::Flowlet;
  cfg.checkpoint.every = sim::Time::seconds(0.002);
  snapshot(cfg, 1);
  // RTEM: reroute tally, timers (u32 link + key each), table count, then
  // per table: members (alive, forwarded), collision and repath tallies,
  // flow counts (u32), flow ports (key, u32), flowlet entries (key,
  // last_ns, u32 member, salt).
  const std::size_t r = section("RTEM");
  std::size_t at = r + 16 + 20 * get_u64(payload_, r + 8);
  const std::uint64_t tables = get_u64(payload_, at);
  at += 8;
  std::size_t member = 0;
  for (std::uint64_t t = 0; t < tables; ++t) {
    at += 8 + 9 * get_u64(payload_, at) + 16;
    at += 8 + 4 * get_u64(payload_, at);
    at += 8 + 12 * get_u64(payload_, at);
    const std::uint64_t nf = get_u64(payload_, at);
    if (nf > 0 && member == 0) member = at + 8 + 16;
    at += 8 + 28 * nf;
  }
  ASSERT_EQ(payload_.compare(at, 4, "FLTC"), 0) << "RTEM walk lost sync";
  ASSERT_NE(member, 0u) << "no flowlet entry in the snapshot";
  std::string bad = payload_;
  const std::uint32_t unknown = 0xffffffffu;
  std::memcpy(&bad[member], &unknown, 4);
  expect_rejected(bad);
}

TEST_F(KeyRestoreValidation, RejectsBadWorkloadTimerKeys) {
  snapshot(workload_cfg(), 2);
  use_shard_clock();
  // WKLD (workload runs have no other generator): RNG state, stopped flag,
  // three progress counters, then the arrival and trace timers.
  const std::size_t arrival = section("WKLD") + 32 + 1 + 24;
  ASSERT_EQ(payload_[arrival], 1);
  expect_key_validated(arrival + 1);
  ASSERT_EQ(payload_[arrival + 17], 1);
  expect_key_validated(arrival + 18);
}

// A restored trace event must be of a kind the tracer knows: one past the
// last EventKind would export as a "?" row of trace.csv.
TEST_F(KeyRestoreValidation, RejectsUnknownTraceEventKind) {
  auto cfg = small_cfg();
  cfg.checkpoint.every = sim::Time::seconds(0.002);
  cfg.obs.trace_csv = ::testing::TempDir() + "xmp_trace_kind.csv";
  snapshot(cfg, 1);
  // OBSV: tracer presence flag, event count, then per event t_ns, a, b
  // (8 bytes each), id (u32), kind (u8), subflow (u8), aux (u16).
  const std::size_t o = section("OBSV");
  ASSERT_EQ(payload_[o], 1);
  ASSERT_GE(get_u64(payload_, o + 1), 1u);
  const std::size_t kind = o + 9 + 28;
  ASSERT_LE(static_cast<std::uint8_t>(payload_[kind]),
            static_cast<std::uint8_t>(obs::kLastEventKind));
  std::string bad = payload_;
  bad[kind] = static_cast<char>(0xff);
  expect_rejected(bad);
}

}  // namespace
}  // namespace xmp::core
