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
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "faults/invariant_checker.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "net/queue.hpp"
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
  const std::string dir_a = fresh_dir("shard_a");
  const std::string dir_b = fresh_dir("shard_b");

  auto cfg = small_cfg(/*shards=*/2);
  cfg.checkpoint.every = sim::Time::seconds(0.002);
  cfg.checkpoint.dir = dir_a;
  const auto full = run_experiment(cfg);
  ASSERT_GE(full.ckpt.written, 2u);

  auto cfg2 = small_cfg(/*shards=*/2);
  cfg2.checkpoint.every = cfg.checkpoint.every;
  cfg2.checkpoint.dir = dir_b;
  cfg2.checkpoint.restore_path = dir_a + "/" + ckpt::file_name(1);
  const auto resumed = run_experiment(cfg2);

  EXPECT_TRUE(resumed.ckpt.restored);
  expect_same_results(full, resumed);
  EXPECT_EQ(full.shard.epochs, resumed.shard.epochs);
  EXPECT_EQ(full.shard.barriers, resumed.shard.barriers);
  EXPECT_EQ(full.shard.micro_steps, resumed.shard.micro_steps);
  EXPECT_EQ(full.ckpt.written, resumed.ckpt.written);
  for (std::uint64_t s = 2; s <= full.ckpt.written; ++s) {
    const std::string a = slurp(dir_a + "/" + ckpt::file_name(s));
    const std::string b = slurp(dir_b + "/" + ckpt::file_name(s));
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b) << "sharded checkpoint " << s << " diverged after restore";
  }
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

  // The previous format (v3 lacked the coexistence and checker state):
  // rejected the same way.
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

TEST(Checkpoint, CadenceSameInBothEngines) {
  // A horizon that is a multiple of the cadence: both engines write at 1,
  // 2 and 3 ms, and neither at the horizon itself (boundaries lie strictly
  // before it). Flows of 2 MB and more cannot finish in 4 ms, so neither
  // run ends early.
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
  const sim::EventId e2 = a.schedule_at(Time::microseconds(30), [&] { order.push_back(2); });
  const sim::EventId e3 = a.schedule_at(Time::microseconds(30), [&] { order.push_back(3); });
  a.run_until(Time::microseconds(20));  // fires event 1; 2 and 3 stay pending

  sim::Scheduler::PendingKey k2;
  sim::Scheduler::PendingKey k3;
  ASSERT_TRUE(a.key_of(e2, k2));
  ASSERT_TRUE(a.key_of(e3, k3));

  // Restore into a virgin scheduler — deliberately re-arming in the
  // *opposite* order; the saved (t, seq) keys must still reproduce the
  // original equal-timestamp FIFO order.
  sim::Scheduler b;
  b.restore_clock(a.now(), a.next_seq(), a.dispatched());
  std::vector<int> replay;
  b.arm_at(Time::nanoseconds(k3.t_ns), k3.seq, [&] { replay.push_back(3); });
  b.arm_at(Time::nanoseconds(k2.t_ns), k2.seq, [&] { replay.push_back(2); });
  b.run_until(Time::microseconds(50));
  EXPECT_EQ(replay, (std::vector<int>{2, 3}));
  EXPECT_EQ(b.now().ns(), Time::microseconds(50).ns());
  EXPECT_EQ(b.dispatched(), a.dispatched() + 2);
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

/// Where the event keys of one serial link's LNKS entry live. The entry
/// ends with: in-flight (count + t, seq, epoch, packet each), transmit
/// completion (count + t, seq, epoch), remote mirror (count), remote
/// arrivals (count); serial links have empty remote sections.
struct LinkEntry {
  static constexpr std::size_t kPacketBytes = 59;  // save_packet()
  static constexpr std::size_t kFlightBytes = 24 + kPacketBytes;
  std::size_t end = 0;
  std::size_t n_flight = 0;
  bool busy = false;

  [[nodiscard]] std::size_t arrivals_count() const { return end - 8; }
  [[nodiscard]] std::size_t tx_count() const { return end - 16 - 8 - (busy ? 24 : 0); }
  [[nodiscard]] std::size_t flight(std::size_t k) const {
    return tx_count() - kFlightBytes * n_flight + kFlightBytes * k;
  }
};

struct SnapshotLinks {
  sim::Time now;
  std::uint64_t next_seq = 0;
  std::vector<LinkEntry> links;
};

/// Walk a serial snapshot's LNKS section by restoring each entry into a
/// throwaway link (the queue kind does not matter: none of the experiment's
/// queues carries extra state).
SnapshotLinks walk_links(const std::string& payload) {
  SnapshotLinks out;
  ckpt::Loader l{payload};
  l.tag("SCHD");
  out.now = l.time();
  out.next_seq = l.u64();
  const std::uint64_t disp = l.u64();
  l.tag("SHRD");
  EXPECT_EQ(l.u64(), 0u) << "a serial snapshot has no shard clocks";
  l.tag("LNKS");
  const std::uint64_t n = l.u64();
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
    e.busy = payload[l.offset()] != 0;  // the entry's first field
    link.restore_state(l);
    e.end = l.offset();
    e.n_flight = link.live_in_flight();
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
    auto cfg = small_cfg();
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
      if (snap_.links[i].busy && busy_ < 0) busy_ = static_cast<int>(i);
      if (snap_.links[i].n_flight >= 2 && flying_ < 0) flying_ = static_cast<int>(i);
    }
    ASSERT_GE(busy_, 0) << "snapshot has no transmitting link";
    ASSERT_GE(flying_, 0) << "snapshot has no link with two packets in flight";
  }

  /// Publish `payload` (fresh CRC) and restore from it.
  void restore(const std::string& payload) {
    const std::string path = dir_ + "/mutated.bin";
    ASSERT_TRUE(ckpt::write_file(path, header_, payload));
    auto cfg = small_cfg();
    cfg.checkpoint.restore_path = path;
    const auto r = run_experiment(cfg);
    EXPECT_TRUE(r.ckpt.restored);
  }

  void expect_rejected(const std::string& payload) {
    EXPECT_EXIT(restore(payload), ::testing::ExitedWithCode(2),
                "restore failed: .*malformed payload");
  }

  std::string dir_;
  ckpt::Header header_;
  std::string payload_;
  SnapshotLinks snap_;
  int busy_ = -1;
  int flying_ = -1;
};

TEST_F(LinkRestoreValidation, PristineRewriteRestores) { restore(payload_); }

TEST_F(LinkRestoreValidation, RejectsDeliveryBeforeRestoredClock) {
  std::string bad = payload_;
  put_i64(bad, snap_.links[flying_].flight(0), snap_.now.ns() - 1);
  expect_rejected(bad);
}

TEST_F(LinkRestoreValidation, RejectsCompletionBeforeRestoredClock) {
  const LinkEntry& e = snap_.links[busy_];
  std::string bad = payload_;
  ASSERT_EQ(get_i64(bad, e.tx_count()), 1);
  put_i64(bad, e.tx_count() + 8, snap_.now.ns() - 1);
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

// ---------------------------------------------------------------------------
// Validated clocks: snapshots are only taken with every clock aligned at the
// header's time, inside the horizon. A sharded snapshot that breaks any of
// that must end in "malformed payload", exit 2, in release builds too.
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

}  // namespace
}  // namespace xmp::core
