#include "route/policy.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "net/network.hpp"
#include "net/types.hpp"
#include "util/fixtures.hpp"

namespace xmp::route {
namespace {

/// One switch with `n` upward ports (each a link to its own stub host), the
/// minimal fixture for exercising a SwitchTable in isolation.
struct UplinkGroup {
  sim::Scheduler sched;
  net::Network net{sched};
  net::Switch* sw = nullptr;
  std::vector<std::size_t> ports;

  explicit UplinkGroup(const std::vector<std::int64_t>& rates) {
    sw = &net.add_switch();
    for (const std::int64_t rate : rates) {
      net::Host& h = net.add_host();
      net::Link& l = net.add_link(h, rate, sim::Time::microseconds(10),
                                  testutil::droptail_queue(64));
      const std::size_t port = sw->add_port(l);
      sw->add_up_port(port);
      ports.push_back(port);
    }
  }

  UplinkGroup(int n, std::int64_t rate = 1'000'000'000)
      : UplinkGroup{std::vector<std::int64_t>(static_cast<std::size_t>(n), rate)} {}
};

net::Packet data_packet(net::NodeId src, net::NodeId dst, net::FlowId flow,
                        std::uint16_t subflow, std::uint16_t tag) {
  net::Packet p;
  p.src = src;
  p.dst = dst;
  p.flow = flow;
  p.subflow = subflow;
  p.path_tag = tag;
  p.type = net::PacketType::Data;
  return p;
}

TEST(RoutePolicy, NamesParseRoundTrip) {
  for (const PolicyKind k :
       {PolicyKind::Pinned, PolicyKind::Ecmp, PolicyKind::Wcmp, PolicyKind::Flowlet}) {
    PolicyKind parsed;
    ASSERT_TRUE(parse_policy(policy_name(k), parsed)) << policy_name(k);
    EXPECT_EQ(parsed, k);
  }
  PolicyKind out;
  EXPECT_FALSE(parse_policy("bogus", out));
  EXPECT_FALSE(parse_policy("", out));
}

TEST(RoutePolicy, PinnedMatchesLegacyHashWithAllMembersAlive) {
  // The byte-identity contract: with every member alive the table must
  // reproduce the switch's built-in (dst, path_tag, id) hash bit for bit.
  UplinkGroup g{4};
  SwitchTable table{g.sched, *g.sw, RouteConfig{}};
  for (net::NodeId dst = 0; dst < 40; ++dst) {
    for (std::uint16_t tag = 0; tag < 8; ++tag) {
      const std::uint64_t h =
          net::mix64((static_cast<std::uint64_t>(dst) << 32) ^
                     (static_cast<std::uint64_t>(tag) << 8) ^ g.sw->id());
      const std::size_t expected = g.ports[h % g.ports.size()];
      EXPECT_EQ(table.select_up_port(data_packet(99, dst, 1, 0, tag)), expected);
    }
  }
}

TEST(RoutePolicy, PinnedHonoursTagModuloSwitches) {
  UplinkGroup g{3};
  g.sw->set_up_port_policy(net::Switch::UpPortPolicy::TagModulo);
  SwitchTable table{g.sched, *g.sw, RouteConfig{}};
  for (std::uint16_t tag = 0; tag < 9; ++tag) {
    EXPECT_EQ(table.select_up_port(data_packet(1, 2, 1, 0, tag)), g.ports[tag % 3]);
  }
}

TEST(RoutePolicy, PinnedRespreadsOverSurvivorsAndRestores) {
  UplinkGroup g{4};
  RouteConfig cfg;
  SwitchTable table{g.sched, *g.sw, cfg};

  std::vector<std::size_t> before;
  for (std::uint16_t tag = 0; tag < 32; ++tag) {
    before.push_back(table.select_up_port(data_packet(5, 6, 1, 0, tag)));
  }

  ASSERT_TRUE(table.set_member_alive(1, false));
  EXPECT_FALSE(table.set_member_alive(1, false));  // idempotent
  EXPECT_EQ(table.alive_members(), 3);
  for (std::uint16_t tag = 0; tag < 32; ++tag) {
    const std::size_t port = table.select_up_port(data_packet(5, 6, 1, 0, tag));
    EXPECT_NE(port, g.ports[1]);  // dead member receives no traffic
  }

  // Repair restores the exact original mapping.
  ASSERT_TRUE(table.set_member_alive(1, true));
  for (std::uint16_t tag = 0; tag < 32; ++tag) {
    EXPECT_EQ(table.select_up_port(data_packet(5, 6, 1, 0, tag)), before[tag]);
  }
}

TEST(RoutePolicy, NoSurvivorsMeansNoPort) {
  UplinkGroup g{2};
  SwitchTable table{g.sched, *g.sw, RouteConfig{}};
  table.set_member_alive(0, false);
  table.set_member_alive(1, false);
  EXPECT_EQ(table.alive_members(), 0);
  EXPECT_EQ(table.select_up_port(data_packet(1, 2, 1, 0, 0)),
            net::Switch::PortSelector::kNoPort);
}

TEST(RoutePolicy, EcmpIgnoresPathTag) {
  // The failure mode under study: the 5-tuple hash cannot tell subflows
  // apart by tag, so all tags of one (flow, subflow) land on one port.
  UplinkGroup g{4};
  RouteConfig cfg;
  cfg.kind = PolicyKind::Ecmp;
  SwitchTable table{g.sched, *g.sw, cfg};
  const std::size_t first = table.select_up_port(data_packet(3, 7, 42, 0, 0));
  for (std::uint16_t tag = 1; tag < 16; ++tag) {
    EXPECT_EQ(table.select_up_port(data_packet(3, 7, 42, 0, tag)), first);
  }
}

TEST(RoutePolicy, EcmpSpreadsDistinctFlowsAndCountsCollisions) {
  UplinkGroup g{4};
  RouteConfig cfg;
  cfg.kind = PolicyKind::Ecmp;
  SwitchTable table{g.sched, *g.sw, cfg};
  std::set<std::size_t> used;
  for (net::FlowId f = 1; f <= 64; ++f) {
    used.insert(table.select_up_port(data_packet(3, 7, f, 0, 0)));
  }
  // 64 independent flows over 4 ports: all ports see traffic, and the
  // birthday effect guarantees some flows doubled up while a port was idle.
  EXPECT_EQ(used.size(), 4u);
  EXPECT_GT(table.collisions(), 0u);

  // Repeat packets of known flows are not fresh assignments.
  const std::uint64_t collisions = table.collisions();
  (void)table.select_up_port(data_packet(3, 7, 1, 0, 0));
  (void)table.select_up_port(data_packet(3, 7, 2, 0, 0));
  EXPECT_EQ(table.collisions(), collisions);
}

TEST(RoutePolicy, WcmpWeightsFollowLinkRates) {
  // 9:1 capacity split: the weighted hash must send most flows through the
  // fat uplink. (Plain ECMP would split ~50:50 and drown the thin one.)
  UplinkGroup g{{9'000'000'000, 1'000'000'000}};
  RouteConfig cfg;
  cfg.kind = PolicyKind::Wcmp;
  SwitchTable table{g.sched, *g.sw, cfg};
  int fat = 0;
  const int kFlows = 2000;
  for (net::FlowId f = 1; f <= kFlows; ++f) {
    if (table.select_up_port(data_packet(1, 2, f, 0, 0)) == g.ports[0]) ++fat;
  }
  const double share = static_cast<double>(fat) / kFlows;
  EXPECT_GT(share, 0.8);
  EXPECT_LT(share, 1.0);  // the thin link is derated, not excluded
}

TEST(RoutePolicy, FlowletSticksWithinGapAndRepathsAfterIdle) {
  UplinkGroup g{4};
  RouteConfig cfg;
  cfg.kind = PolicyKind::Flowlet;
  cfg.flowlet_gap = sim::Time::microseconds(100);
  SwitchTable table{g.sched, *g.sw, cfg};

  // Back-to-back packets of one flow stay on one port.
  const std::size_t first = table.select_up_port(data_packet(1, 2, 9, 0, 0));
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(table.select_up_port(data_packet(1, 2, 9, 0, 0)), first);
  }
  EXPECT_EQ(table.repaths(), 0u);

  // After an idle period longer than the gap every flow is repicked with a
  // fresh salt; across enough flows some land on a different port.
  for (net::FlowId f = 10; f < 42; ++f) (void)table.select_up_port(data_packet(1, 2, f, 0, 0));
  g.sched.schedule_at(sim::Time::microseconds(500), [] {});
  g.sched.run();
  for (net::FlowId f = 10; f < 42; ++f) (void)table.select_up_port(data_packet(1, 2, f, 0, 0));
  EXPECT_GT(table.repaths(), 0u);
}

// In the sharded engine a switch's table is built on the control strand,
// whose clock lags inside an epoch; the gap is measured on the clock of the
// scheduler dispatching the packet.
TEST(RoutePolicy, FlowletGapReadsTheDispatchingClock) {
  UplinkGroup g{4};
  RouteConfig cfg;
  cfg.kind = PolicyKind::Flowlet;
  cfg.flowlet_gap = sim::Time::microseconds(100);
  SwitchTable table{g.sched, *g.sw, cfg};
  sim::Scheduler shard;
  auto burst = [&table] {
    for (net::FlowId f = 10; f < 42; ++f) (void)table.select_up_port(data_packet(1, 2, f, 0, 0));
  };
  shard.schedule_at(sim::Time::zero(), burst);
  shard.schedule_at(sim::Time::microseconds(500), burst);
  shard.run();
  EXPECT_EQ(g.sched.now(), sim::Time::zero());
  EXPECT_GT(table.repaths(), 0u);
}

TEST(RoutePolicy, FlowletAbandonsDeadMemberImmediately) {
  UplinkGroup g{2};
  RouteConfig cfg;
  cfg.kind = PolicyKind::Flowlet;
  cfg.flowlet_gap = sim::Time::seconds(10);  // gap never expires in this test
  SwitchTable table{g.sched, *g.sw, cfg};
  const std::size_t first = table.select_up_port(data_packet(1, 2, 3, 0, 0));
  const std::size_t member = first == g.ports[0] ? 0 : 1;
  ASSERT_TRUE(table.set_member_alive(member, false));
  const std::size_t after = table.select_up_port(data_packet(1, 2, 3, 0, 0));
  EXPECT_NE(after, first);
  EXPECT_EQ(table.repaths(), 1u);
}

TEST(RoutePolicy, ForwardedCountersTrackSelections) {
  UplinkGroup g{2};
  SwitchTable table{g.sched, *g.sw, RouteConfig{}};
  for (std::uint16_t tag = 0; tag < 10; ++tag) {
    (void)table.select_up_port(data_packet(1, 2, 1, 0, tag));
  }
  std::uint64_t total = 0;
  for (const auto& m : table.members()) total += m.forwarded;
  EXPECT_EQ(total, 10u);
}

TEST(RoutePolicy, MemberForLinkFindsEachUplink) {
  UplinkGroup g{3};
  SwitchTable table{g.sched, *g.sw, RouteConfig{}};
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(table.member_for_link(&g.sw->port(g.ports[i])), i);
  }
  net::Link& elsewhere = g.net.add_link(*g.sw, 1'000'000'000, sim::Time::microseconds(1),
                                        testutil::droptail_queue(8));
  EXPECT_EQ(table.member_for_link(&elsewhere), table.members().size());
}

}  // namespace
}  // namespace xmp::route
