#include "topo/pinned.hpp"

#include <cassert>

namespace xmp::topo {
namespace {

/// Generous drop-tail config for links that must never be the bottleneck.
net::QueueConfig overprovisioned_queue() {
  net::QueueConfig q;
  q.kind = net::QueueConfig::Kind::DropTail;
  q.capacity_packets = 10'000;
  return q;
}

}  // namespace

PinnedPaths::PinnedPaths(net::Network& netw, const Config& cfg) : net_{netw}, cfg_{cfg} {
  for (const BottleneckSpec& spec : cfg_.bottlenecks) {
    net::Switch& a = net_.add_switch();
    net::Switch& b = net_.add_switch();
    const auto ports =
        net_.connect_switches(a, b, spec.rate_bps, spec.delay, cfg_.bottleneck_queue);
    bneck_in_.push_back(&a);
    bneck_out_.push_back(&b);
    bneck_fwd_.push_back(ports.a_to_b);
    bneck_port_on_a_.push_back(ports.on_a);
    bneck_port_on_b_.push_back(ports.on_b);
  }
}

PinnedPaths::Pair PinnedPaths::add_pair(const std::vector<int>& paths) {
  assert(!paths.empty());
  const net::QueueConfig fat = overprovisioned_queue();

  net::Host& src = net_.add_host();
  net::Host& dst = net_.add_host();
  hosts_.push_back(&src);
  hosts_.push_back(&dst);
  net::Switch& ingress = net_.add_switch();
  net::Switch& egress = net_.add_switch();
  ingress.set_up_port_policy(net::Switch::UpPortPolicy::TagModulo);
  egress.set_up_port_policy(net::Switch::UpPortPolicy::TagModulo);

  net_.attach_host(src, ingress, cfg_.access_rate_bps, cfg_.access_delay, fat);
  net_.attach_host(dst, egress, cfg_.access_rate_bps, cfg_.access_delay, fat);

  for (std::size_t k = 0; k < paths.size(); ++k) {
    const int b = paths[k];
    assert(b >= 0 && b < static_cast<int>(bneck_in_.size()));
    net::Switch& a_sw = *bneck_in_[b];
    net::Switch& b_sw = *bneck_out_[b];

    // Ingress side: ingress <-> A_b. Subflow k's data go up port #k.
    const auto in_ports =
        net_.connect_switches(ingress, a_sw, cfg_.inner_rate_bps, cfg_.inner_delay, fat);
    ingress.add_up_port(in_ports.on_a);
    // A_b forwards data for `dst` onto its bottleneck, and returning acks
    // for `src` back to the ingress switch.
    a_sw.set_host_route(dst.id(), bneck_port_on_a_[b]);
    a_sw.set_host_route(src.id(), in_ports.on_b);

    // Egress side: egress <-> B_b. Subflow k's acks go up port #k.
    const auto out_ports =
        net_.connect_switches(egress, b_sw, cfg_.inner_rate_bps, cfg_.inner_delay, fat);
    egress.add_up_port(out_ports.on_a);
    // B_b forwards data for `dst` down to the egress switch, and acks for
    // `src` back across the (reverse) bottleneck hop.
    b_sw.set_host_route(dst.id(), out_ports.on_b);
    b_sw.set_host_route(src.id(), bneck_port_on_b_[b]);
  }

  // The source's own ingress switch must send acks that arrive for it down
  // to the host; same for data arriving at the egress switch.
  // attach_host() already installed those routes.
  return Pair{&src, &dst};
}

sim::Time PinnedPaths::base_rtt(int i) const {
  const sim::Time one_way = cfg_.access_delay * 2 + cfg_.inner_delay * 2 +
                            cfg_.bottlenecks.at(i).delay;
  return one_way * 2;
}

}  // namespace xmp::topo
