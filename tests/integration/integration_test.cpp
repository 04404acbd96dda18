// Cross-module integration scenarios: workload generators on the
// alternative fabric and mixed schemes sharing a network.

#include <gtest/gtest.h>

#include "topo/fattree.hpp"
#include "topo/leafspine.hpp"
#include "util/fixtures.hpp"
#include "workload/flow_manager.hpp"
#include "workload/incast.hpp"
#include "workload/permutation.hpp"
#include "workload/random_traffic.hpp"

namespace xmp {
namespace {

struct SpineFixture {
  sim::Scheduler sched;
  net::Network net{sched};
  std::unique_ptr<topo::LeafSpine> fabric;

  SpineFixture() {
    topo::LeafSpine::Config c;
    c.n_leaves = 4;
    c.n_spines = 2;
    c.hosts_per_leaf = 4;
    c.queue = testutil::ecn_queue(100, 10);
    fabric = std::make_unique<topo::LeafSpine>(net, c);
  }
};

workload::SchemeSpec scheme(workload::SchemeSpec::Kind k, int subflows = 2) {
  workload::SchemeSpec s;
  s.kind = k;
  s.subflows = subflows;
  return s;
}

TEST(Integration, PermutationRunsOnLeafSpine) {
  SpineFixture f;
  workload::FlowManager fm{f.sched, scheme(workload::SchemeSpec::Kind::Xmp)};
  workload::PermutationTraffic::Config pc;
  pc.min_bytes = 50'000;
  pc.max_bytes = 100'000;
  pc.rounds = 2;
  workload::PermutationTraffic perm{f.sched, *f.fabric, fm, sim::Rng{3}, pc};
  perm.start();
  f.sched.run_until(sim::Time::seconds(5.0));
  EXPECT_TRUE(perm.done());
  EXPECT_EQ(fm.records().size(), static_cast<std::size_t>(2 * f.fabric->n_hosts()));
  for (const auto& r : fm.records()) EXPECT_TRUE(r.completed);
}

TEST(Integration, IncastWithBackgroundOnLeafSpine) {
  SpineFixture f;
  workload::FlowManager fm{f.sched, scheme(workload::SchemeSpec::Kind::Dctcp)};
  workload::IncastTraffic::Config ic;
  ic.n_jobs = 2;
  ic.servers_per_job = 4;
  workload::IncastTraffic incast{f.sched, *f.fabric, fm, sim::Rng{5}, ic};
  workload::RandomTraffic::Config rc;
  rc.min_bytes = 100'000;
  rc.max_bytes = 200'000;
  rc.exclude_same_rack = true;
  workload::RandomTraffic bg{f.sched, *f.fabric, fm, sim::Rng{7}, rc};
  incast.start();
  bg.start();
  f.sched.run_until(sim::Time::milliseconds(300));
  incast.stop();
  bg.stop();
  f.sched.run_until(sim::Time::seconds(3.0));
  EXPECT_GT(incast.jobs().size(), 2u);
  for (const auto& rec : fm.records()) {
    if (!rec.large) continue;
    EXPECT_NE(f.fabric->leaf_of(rec.src_host), f.fabric->leaf_of(rec.dst_host));
  }
}

TEST(Integration, MixedSchemesShareFatTree) {
  // Three managers with three schemes running Random traffic side by side:
  // no interference at the bookkeeping level, all records consistent.
  sim::Scheduler sched;
  net::Network net{sched};
  topo::FatTree::Config tc;
  tc.k = 4;
  tc.queue = testutil::ecn_queue(100, 10);
  topo::FatTree tree{net, tc};

  // Distinct id bases: flow ids are demux keys at the hosts, so managers
  // sharing a network must not collide.
  workload::FlowManager fm_x{sched, scheme(workload::SchemeSpec::Kind::Xmp), 1};
  workload::FlowManager fm_d{sched, scheme(workload::SchemeSpec::Kind::Dctcp), 1 << 20};
  workload::FlowManager fm_l{sched, scheme(workload::SchemeSpec::Kind::Lia), 1 << 21};

  sim::Rng rng{11};
  workload::RandomTraffic::Config rc;
  rc.min_bytes = 50'000;
  rc.max_bytes = 150'000;
  rc.senders = {0, 3, 6};
  workload::RandomTraffic tx{sched, tree, fm_x, rng.split(), rc};
  rc.senders = {1, 4, 7};
  workload::RandomTraffic td{sched, tree, fm_d, rng.split(), rc};
  rc.senders = {2, 5, 8};
  workload::RandomTraffic tl{sched, tree, fm_l, rng.split(), rc};
  tx.start();
  td.start();
  tl.start();
  sched.run_until(sim::Time::milliseconds(200));
  tx.stop();
  td.stop();
  tl.stop();
  sched.run_until(sim::Time::seconds(5.0));

  for (const auto* fm : {&fm_x, &fm_d, &fm_l}) {
    EXPECT_GT(fm->records().size(), 3u);
    std::size_t completed = 0;
    for (const auto& r : fm->records()) completed += r.completed ? 1 : 0;
    EXPECT_GT(completed, 0u);
  }
}

TEST(Integration, ManagersWithDisjointIdBasesDoNotCollideAtSharedDestination) {
  // Regression: two managers sending to the SAME destination host must not
  // overwrite each other's endpoint registrations. With overlapping flow
  // ids the second receiver would capture the first flow's segments.
  sim::Scheduler sched;
  net::Network net{sched};
  topo::FatTree::Config tc;
  tc.k = 4;
  tc.queue = testutil::ecn_queue(100, 10);
  topo::FatTree tree{net, tc};

  workload::FlowManager a{sched, scheme(workload::SchemeSpec::Kind::Dctcp), 1};
  workload::FlowManager b{sched, scheme(workload::SchemeSpec::Kind::Dctcp), 1 << 24};
  // Same destination (host 9), both managers' first flow (same local id
  // ordinal), different sources.
  a.start_large_flow(tree.host(0), tree.host(9), 0, 9, 300'000);
  b.start_large_flow(tree.host(4), tree.host(9), 4, 9, 300'000);
  sched.run_until(sim::Time::seconds(3.0));
  ASSERT_EQ(a.records().size(), 1u);
  ASSERT_EQ(b.records().size(), 1u);
  EXPECT_TRUE(a.records()[0].completed);
  EXPECT_TRUE(b.records()[0].completed);
  EXPECT_NE(a.records()[0].id, b.records()[0].id);
  EXPECT_EQ(tree.host(9).undeliverable(), 0u);
}

TEST(Integration, HostPoolPolymorphismViaBaseReference) {
  // A workload bound to HostPool& must operate identically through either
  // topology type.
  SpineFixture f;
  topo::HostPool& pool = *f.fabric;
  EXPECT_EQ(pool.n_hosts(), 16);
  EXPECT_EQ(pool.rack_of(5), 1);
  EXPECT_EQ(&pool.host(3), &f.fabric->host(3));
}

}  // namespace
}  // namespace xmp
