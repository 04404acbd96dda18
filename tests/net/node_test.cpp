#include "net/node.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "sim/scheduler.hpp"
#include "topo/fattree.hpp"

namespace xmp::net {
namespace {

QueueConfig droptail() {
  QueueConfig q;
  q.kind = QueueConfig::Kind::DropTail;
  q.capacity_packets = 100;
  return q;
}

class CountingEndpoint final : public Host::Endpoint {
 public:
  void handle(Packet p) override {
    ++count;
    last = std::move(p);
  }
  int count = 0;
  Packet last;
};

struct SwitchFixture : public ::testing::Test {
  sim::Scheduler sched;
  net::Network net{sched};
};

TEST_F(SwitchFixture, ForwardsViaHostRoute) {
  Switch& sw = net.add_switch();
  Host& h = net.add_host();
  net.attach_host(h, sw, 1'000'000'000, sim::Time::microseconds(1), droptail());

  CountingEndpoint ep;
  h.register_endpoint(7, 0, PacketType::Data, ep);

  Packet p;
  p.flow = 7;
  p.type = PacketType::Data;
  p.dst = h.id();
  sw.receive(std::move(p));
  sched.run();
  EXPECT_EQ(ep.count, 1);
  EXPECT_EQ(sw.forwarded(), 1u);
}

TEST_F(SwitchFixture, UnroutableIsCountedNotCrashed) {
  Switch& sw = net.add_switch();
  Packet p;
  p.dst = 12345;
  sw.receive(std::move(p));
  EXPECT_EQ(sw.unroutable(), 1u);
  EXPECT_EQ(sw.forwarded(), 0u);
}

TEST_F(SwitchFixture, HashedUpPortsAreDeterministic) {
  Switch& a = net.add_switch();
  Switch& b1 = net.add_switch();
  Switch& b2 = net.add_switch();
  const auto p1 = net.connect_switches(a, b1, 1'000'000'000, sim::Time::zero(), droptail());
  const auto p2 = net.connect_switches(a, b2, 1'000'000'000, sim::Time::zero(), droptail());
  a.add_up_port(p1.on_a);
  a.add_up_port(p2.on_a);

  // Same (dst, tag) must always pick the same port.
  auto send = [&](NodeId dst, std::uint16_t tag) {
    Packet p;
    p.dst = dst;
    p.path_tag = tag;
    a.receive(std::move(p));
  };
  for (int i = 0; i < 10; ++i) send(99, 3);
  sched.run();
  const auto sent1 = p1.a_to_b->bytes_sent();
  const auto sent2 = p2.a_to_b->bytes_sent();
  EXPECT_TRUE(sent1 == 0 || sent2 == 0);  // all on one port
  EXPECT_EQ(sent1 + sent2, 10u * kDataPacketBytes);

  // Different tags must spread over both ports (with 32 tags the odds of
  // all landing on one port are 2^-31).
  for (std::uint16_t t = 0; t < 32; ++t) send(99, t);
  sched.run();
  EXPECT_GT(p1.a_to_b->bytes_sent(), sent1);
  EXPECT_GT(p2.a_to_b->bytes_sent(), sent2);
}

TEST_F(SwitchFixture, TagModuloPinsPath) {
  Switch& a = net.add_switch();
  Switch& b1 = net.add_switch();
  Switch& b2 = net.add_switch();
  const auto p1 = net.connect_switches(a, b1, 1'000'000'000, sim::Time::zero(), droptail());
  const auto p2 = net.connect_switches(a, b2, 1'000'000'000, sim::Time::zero(), droptail());
  a.set_up_port_policy(Switch::UpPortPolicy::TagModulo);
  a.add_up_port(p1.on_a);
  a.add_up_port(p2.on_a);

  Packet even;
  even.dst = 50;
  even.path_tag = 0;
  a.receive(std::move(even));
  Packet odd;
  odd.dst = 50;
  odd.path_tag = 1;
  a.receive(std::move(odd));
  sched.run();
  EXPECT_EQ(p1.a_to_b->bytes_sent(), kDataPacketBytes);
  EXPECT_EQ(p2.a_to_b->bytes_sent(), kDataPacketBytes);
}

TEST_F(SwitchFixture, HostRouteTakesPrecedenceOverUpPorts) {
  Switch& sw = net.add_switch();
  Host& h = net.add_host();
  net.attach_host(h, sw, 1'000'000'000, sim::Time::zero(), droptail());
  Switch& up = net.add_switch();
  const auto pp = net.connect_switches(sw, up, 1'000'000'000, sim::Time::zero(), droptail());
  sw.add_up_port(pp.on_a);

  Packet p;
  p.dst = h.id();
  sw.receive(std::move(p));
  sched.run();
  EXPECT_EQ(pp.a_to_b->bytes_sent(), 0u);
}

TEST_F(SwitchFixture, HostDemuxesByFlowSubflowAndType) {
  Switch& sw = net.add_switch();
  Host& h = net.add_host();
  net.attach_host(h, sw, 1'000'000'000, sim::Time::zero(), droptail());

  CountingEndpoint data0, data1, ack0;
  h.register_endpoint(1, 0, PacketType::Data, data0);
  h.register_endpoint(1, 1, PacketType::Data, data1);
  h.register_endpoint(1, 0, PacketType::Ack, ack0);

  auto deliver = [&](std::uint16_t subflow, PacketType type) {
    Packet p;
    p.flow = 1;
    p.subflow = subflow;
    p.type = type;
    p.dst = h.id();
    h.receive(std::move(p));
  };
  deliver(0, PacketType::Data);
  deliver(0, PacketType::Data);
  deliver(1, PacketType::Data);
  deliver(0, PacketType::Ack);
  EXPECT_EQ(data0.count, 2);
  EXPECT_EQ(data1.count, 1);
  EXPECT_EQ(ack0.count, 1);
  EXPECT_EQ(h.delivered(), 4u);
}

TEST_F(SwitchFixture, HostCountsUndeliverable) {
  Switch& sw = net.add_switch();
  Host& h = net.add_host();
  net.attach_host(h, sw, 1'000'000'000, sim::Time::zero(), droptail());
  Packet p;
  p.flow = 42;
  p.dst = h.id();
  h.receive(std::move(p));
  EXPECT_EQ(h.undeliverable(), 1u);
}

TEST_F(SwitchFixture, UnregisterStopsDelivery) {
  Switch& sw = net.add_switch();
  Host& h = net.add_host();
  net.attach_host(h, sw, 1'000'000'000, sim::Time::zero(), droptail());
  CountingEndpoint ep;
  h.register_endpoint(1, 0, PacketType::Data, ep);
  h.unregister_endpoint(1, 0, PacketType::Data);
  Packet p;
  p.flow = 1;
  p.dst = h.id();
  h.receive(std::move(p));
  EXPECT_EQ(ep.count, 0);
  EXPECT_EQ(h.undeliverable(), 1u);
}

// The demultiplexing table grows past its first slots and erases by
// backward shift: after registering 200 endpoints and unregistering every
// third one (in an order unrelated to insertion), each key still finds its
// own endpoint and every erased key is undeliverable.
TEST_F(SwitchFixture, HostTableSurvivesGrowthAndErasure) {
  Host& h = net.add_host();
  constexpr int kEndpoints = 200;
  std::vector<CountingEndpoint> eps(kEndpoints);
  auto flow_of = [](int i) { return static_cast<FlowId>(1000 + i / 4); };
  auto sub_of = [](int i) { return static_cast<std::uint16_t>((i / 2) % 2); };
  auto type_of = [](int i) { return i % 2 == 0 ? PacketType::Data : PacketType::Ack; };
  for (int i = 0; i < kEndpoints; ++i) {
    h.register_endpoint(flow_of(i), sub_of(i), type_of(i), eps[static_cast<std::size_t>(i)]);
  }
  for (int i = kEndpoints - 1; i >= 0; i -= 3) h.unregister_endpoint(flow_of(i), sub_of(i), type_of(i));
  h.unregister_endpoint(99, 0, PacketType::Data);  // never registered: a no-op
  for (int i = 0; i < kEndpoints; ++i) {
    Packet p;
    p.flow = flow_of(i);
    p.subflow = sub_of(i);
    p.type = type_of(i);
    h.receive(std::move(p));
  }
  int erased = 0;
  for (int i = 0; i < kEndpoints; ++i) {
    const bool gone = (kEndpoints - 1 - i) % 3 == 0;
    erased += gone ? 1 : 0;
    EXPECT_EQ(eps[static_cast<std::size_t>(i)].count, gone ? 0 : 1) << i;
  }
  EXPECT_EQ(h.undeliverable(), static_cast<std::uint64_t>(erased));
  EXPECT_EQ(h.delivered(), static_cast<std::uint64_t>(kEndpoints - erased));
}

/// Terminal sink for the dense-route tests.
class NullSink final : public PacketSink {
 public:
  void receive(Packet /*p*/) override {}
};

/// Switch with four down ports and one up port; routes for ids 10..40.
struct DenseRouteFixture : public SwitchFixture {
  DenseRouteFixture() {
    for (std::size_t i = 0; i < 4; ++i) {
      down[i] = &net.add_link(sink, 1'000'000'000, sim::Time::zero(), droptail());
      port[i] = sw.add_port(*down[i]);
    }
    up = &net.add_link(sink, 1'000'000'000, sim::Time::zero(), droptail());
    up_port = sw.add_port(*up);
    // Descending id order, as PinnedPaths can install them.
    for (std::size_t i = 4; i-- > 0;) sw.set_host_route(kIds[i], port[i]);
  }

  void send(NodeId dst) {
    Packet p;
    p.dst = dst;
    sw.receive(std::move(p));
  }

  static constexpr NodeId kIds[4] = {10, 20, 30, 40};
  NullSink sink;
  Switch& sw = net.add_switch();
  Link* down[4] = {};
  std::size_t port[4] = {};
  Link* up = nullptr;
  std::size_t up_port = 0;
};

TEST_F(DenseRouteFixture, DescendingInstallFindsEveryRoute) {
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(sw.host_route(kIds[i]), port[i]);
  for (std::size_t i = 0; i < 4; ++i) send(kIds[i]);
  for (Link* l : down) EXPECT_EQ(l->offered(), 1u);
  EXPECT_EQ(sw.forwarded(), 4u);
}

TEST_F(DenseRouteFixture, OverwrittenRouteWins) {
  sw.set_host_route(30, port[0]);
  EXPECT_EQ(sw.host_route(30), port[0]);
  send(30);
  EXPECT_EQ(down[0]->offered(), 1u);
  EXPECT_EQ(down[2]->offered(), 0u);
}

TEST_F(DenseRouteFixture, MissesBelowAboveAndInGapsAreUnroutableWithoutUpPorts) {
  for (NodeId dst : {NodeId{0}, NodeId{9}, NodeId{15}, NodeId{41}, NodeId{1000}, kInvalidNode}) {
    EXPECT_EQ(sw.host_route(dst), Switch::PortSelector::kNoPort) << dst;
    send(dst);
  }
  EXPECT_EQ(sw.unroutable(), 6u);
  EXPECT_EQ(sw.forwarded(), 0u);
}

TEST_F(DenseRouteFixture, MissesFallThroughToTheUpPortHash) {
  sw.add_up_port(up_port);
  for (NodeId dst : {NodeId{9}, NodeId{15}, NodeId{41}}) send(dst);
  EXPECT_EQ(up->offered(), 3u);
  EXPECT_EQ(sw.unroutable(), 0u);
}

TEST_F(DenseRouteFixture, MissesFallThroughToTheSelector) {
  struct Recorder final : Switch::PortSelector {
    std::size_t select_up_port(const Packet& p) override {
      seen.insert(p.dst);
      return p.dst == 15 ? kNoPort : answer;
    }
    std::set<NodeId> seen;
    std::size_t answer = 0;
  } selector;
  selector.answer = up_port;
  sw.set_port_selector(&selector);
  for (NodeId dst : {NodeId{9}, NodeId{15}, NodeId{20}, NodeId{41}}) send(dst);
  EXPECT_EQ(selector.seen, (std::set<NodeId>{9, 15, 41}));  // 20 has a route
  EXPECT_EQ(up->offered(), 2u);
  EXPECT_EQ(down[1]->offered(), 1u);
  EXPECT_EQ(sw.unroutable(), 1u);  // the selector had no port for 15
}

/// For every (switch, host) pair of a Fat-Tree, the switch's downward route
/// is exactly the link FatTree::path_links() takes out of that switch, and
/// a switch without a route for the host only ever forwards it upward.
void check_fattree_down_ports(int k) {
  sim::Scheduler sched;
  Network net{sched};
  topo::FatTree::Config cfg;
  cfg.k = k;
  topo::FatTree tree{net, cfg};
  const int half = k / 2;

  std::map<const Link*, std::pair<const Switch*, std::size_t>> owner;
  for (Switch* sw : net.switches()) {
    for (std::size_t i = 0; i < sw->port_count(); ++i) owner[&sw->port(i)] = {sw, i};
  }
  std::set<std::pair<const Switch*, NodeId>> routed_on_a_path;
  for (int dst = 0; dst < tree.n_hosts(); ++dst) {
    const NodeId dst_id = tree.host(dst).id();
    for (int src = 0; src < tree.n_hosts(); ++src) {
      if (src == dst) continue;
      for (int a = 0; a < half; ++a) {
        for (int c = 0; c < half; ++c) {
          const std::vector<Link*> path = tree.path_links(src, dst, a, c);
          for (std::size_t hop = 1; hop < path.size(); ++hop) {  // hop 0 leaves the host
            const auto [sw, port] = owner.at(path[hop]);
            const std::size_t route = sw->host_route(dst_id);
            if (route == Switch::PortSelector::kNoPort) {
              const auto& ups = sw->up_ports();
              ASSERT_NE(std::find(ups.begin(), ups.end(), port), ups.end());
            } else {
              ASSERT_EQ(route, port) << "switch " << sw->id() << " host " << dst;
              routed_on_a_path.insert({sw, dst_id});
            }
          }
        }
      }
    }
  }
  // Every installed route lies on some path; none is left unchecked.
  std::size_t installed = 0;
  for (Switch* sw : net.switches()) {
    for (int h = 0; h < tree.n_hosts(); ++h) {
      installed += sw->host_route(tree.host(h).id()) != Switch::PortSelector::kNoPort;
    }
  }
  EXPECT_EQ(routed_on_a_path.size(), installed);
  // Edge: its k/2 hosts; agg: its pod's k^2/4; core: all k^3/4.
  const std::size_t n = static_cast<std::size_t>(k);
  EXPECT_EQ(installed, n * (n / 2) * (n / 2) + n * (n / 2) * (n * n / 4) +
                           (n * n / 4) * (n * n * n / 4));
}

TEST(FatTreeDownPorts, MatchPathLinksK4) { check_fattree_down_ports(4); }
TEST(FatTreeDownPorts, MatchPathLinksK8) { check_fattree_down_ports(8); }

TEST_F(SwitchFixture, NetworkAssignsDenseNodeIds) {
  Host& h0 = net.add_host();
  Switch& s0 = net.add_switch();
  Host& h1 = net.add_host();
  EXPECT_EQ(h0.id(), 0u);
  EXPECT_EQ(s0.id(), 1u);
  EXPECT_EQ(h1.id(), 2u);
  EXPECT_EQ(net.host_count(), 2u);
  EXPECT_EQ(&net.host(0), &h0);
}

}  // namespace
}  // namespace xmp::net
