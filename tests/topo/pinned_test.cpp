#include "topo/pinned.hpp"

#include <gtest/gtest.h>

#include "transport/flow.hpp"
#include "util/fixtures.hpp"

namespace xmp::topo {
namespace {

PinnedPaths::Config two_paths() {
  PinnedPaths::Config tc;
  tc.bottlenecks = {{300'000'000, sim::Time::microseconds(500)},
                    {300'000'000, sim::Time::microseconds(500)}};
  tc.bottleneck_queue = testutil::ecn_queue(100, 15);
  tc.access_delay = sim::Time::microseconds(100);
  tc.inner_delay = sim::Time::microseconds(50);
  return tc;
}

transport::Flow::Config pinned_flow(net::FlowId id, std::uint16_t tag, std::int64_t bytes) {
  transport::Flow::Config fc;
  fc.id = id;
  fc.size_bytes = bytes;
  fc.cc.kind = transport::CcConfig::Kind::Bos;
  fc.path_tag = tag;
  fc.path_tag_explicit = true;
  return fc;
}

TEST(PinnedPaths, FlowPinnedToDeclaredBottleneck) {
  sim::Scheduler sched;
  net::Network net{sched};
  PinnedPaths paths{net, two_paths()};
  auto pair = paths.add_pair({1});  // single path via bottleneck 1
  transport::Flow f{sched, *pair.src, *pair.dst, pinned_flow(1, 0, 500'000)};
  f.start();
  sched.run_until(sim::Time::seconds(2.0));
  ASSERT_TRUE(f.complete());
  EXPECT_EQ(paths.bottleneck(0).bytes_sent(), 0u);
  EXPECT_GT(paths.bottleneck(1).bytes_sent(), 500'000u);
}

TEST(PinnedPaths, SubflowTagsSelectDistinctBottlenecks) {
  sim::Scheduler sched;
  net::Network net{sched};
  PinnedPaths paths{net, two_paths()};
  auto pair = paths.add_pair({0, 1});
  transport::Flow f0{sched, *pair.src, *pair.dst, pinned_flow(1, 0, 300'000)};
  transport::Flow f1{sched, *pair.src, *pair.dst, pinned_flow(2, 1, 300'000)};
  f0.start();
  f1.start();
  sched.run_until(sim::Time::seconds(2.0));
  ASSERT_TRUE(f0.complete());
  ASSERT_TRUE(f1.complete());
  EXPECT_GT(paths.bottleneck(0).bytes_sent(), 300'000u);
  EXPECT_GT(paths.bottleneck(1).bytes_sent(), 300'000u);
}

TEST(PinnedPaths, ThroughputLimitedByBottleneckRate) {
  sim::Scheduler sched;
  net::Network net{sched};
  PinnedPaths paths{net, two_paths()};
  auto pair = paths.add_pair({0});
  transport::Flow f{sched, *pair.src, *pair.dst, pinned_flow(1, 0, 30'000'000)};
  f.start();
  sched.run_until(sim::Time::seconds(3.0));
  ASSERT_TRUE(f.complete());
  EXPECT_GT(f.goodput_bps(), 0.75 * 300e6);
  EXPECT_LT(f.goodput_bps(), 300e6);
}

TEST(PinnedPaths, BaseRttMatchesConfiguredDelays) {
  sim::Scheduler sched;
  net::Network net{sched};
  PinnedPaths paths{net, two_paths()};
  // one-way = 2*100 (access) + 2*50 (inner) + 500 (bottleneck) = 800 us.
  EXPECT_EQ(paths.base_rtt(0), sim::Time::microseconds(1600));
}

// A fault plan names a bottleneck by bottleneck_link_id before the testbed
// exists (Fig. 7's `down,link=4`); pairs added later do not move it.
TEST(PinnedPaths, BottleneckLinkIdNamesTheBuiltLink) {
  sim::Scheduler sched;
  net::Network net{sched};
  PinnedPaths::Config tc = two_paths();
  tc.bottlenecks.resize(5, tc.bottlenecks[0]);
  PinnedPaths paths{net, tc};
  paths.add_pair({0, 1});
  paths.add_pair({4});
  for (int j = 0; j < paths.n_bottlenecks(); ++j) {
    EXPECT_EQ(paths.bottleneck(j).id(), bottleneck_link_id(j)) << "bottleneck " << j;
  }
  EXPECT_EQ(bottleneck_link_id(2), 4u);
}

TEST(PinnedPaths, SharedBottleneckCarriesBothPairs) {
  sim::Scheduler sched;
  net::Network net{sched};
  PinnedPaths paths{net, two_paths()};
  auto p1 = paths.add_pair({0});
  auto p2 = paths.add_pair({0});
  transport::Flow f1{sched, *p1.src, *p1.dst, pinned_flow(1, 0, 3'000'000)};
  transport::Flow f2{sched, *p2.src, *p2.dst, pinned_flow(2, 0, 3'000'000)};
  f1.start();
  f2.start();
  sched.run_until(sim::Time::seconds(3.0));
  ASSERT_TRUE(f1.complete());
  ASSERT_TRUE(f2.complete());
  // Both shared one 300 Mbps pipe.
  EXPECT_LT(f1.goodput_bps() + f2.goodput_bps(), 300e6);
  EXPECT_GT(f1.goodput_bps() + f2.goodput_bps(), 0.7 * 300e6);
}

}  // namespace
}  // namespace xmp::topo
