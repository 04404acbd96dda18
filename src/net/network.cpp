#include "net/network.hpp"

namespace xmp::net {

Host& Network::add_host() {
  auto h = std::make_unique<Host>(static_cast<NodeId>(nodes_.size()));
  Host& ref = *h;
  nodes_.push_back(std::move(h));
  node_shard_.push_back(current_shard_);
  hosts_.push_back(&ref);
  return ref;
}

Switch& Network::add_switch() {
  auto s = std::make_unique<Switch>(static_cast<NodeId>(nodes_.size()));
  Switch& ref = *s;
  nodes_.push_back(std::move(s));
  node_shard_.push_back(current_shard_);
  switches_.push_back(&ref);
  return ref;
}

Link& Network::make_link(int src_shard, int dst_shard, PacketSink& to, std::int64_t rate_bps,
                         sim::Time prop_delay, const QueueConfig& qcfg) {
  FifoPool& pool = pool_for(src_shard);
  auto l = std::make_unique<Link>(sched_for(src_shard), static_cast<LinkId>(links_.size()),
                                  rate_bps, prop_delay, make_queue(qcfg, &pool), to, &pool);
  Link& ref = *l;
  links_.push_back(std::move(l));
  link_shard_.push_back(src_shard);
  ingress_[&to].push_back(&ref);
  if (fabric_ != nullptr && src_shard != dst_shard) {
    fabric_->add_boundary_link(src_shard, dst_shard, ref);
  }
  return ref;
}

Link& Network::add_link(PacketSink& to, std::int64_t rate_bps, sim::Time prop_delay,
                        const QueueConfig& qcfg) {
  // Sender unknown at this signature: both ends are attributed to the
  // current shard (topology builders go through attach_host /
  // connect_switches, which know the sender).
  return make_link(current_shard_, current_shard_, to, rate_bps, prop_delay, qcfg);
}

void Network::attach_host(Host& h, Switch& sw, std::int64_t rate_bps, sim::Time prop_delay,
                          const QueueConfig& qcfg) {
  Link& up = make_link(shard_of(h), shard_of(sw), sw, rate_bps, prop_delay, qcfg);
  Link& down = make_link(shard_of(sw), shard_of(h), h, rate_bps, prop_delay, qcfg);
  h.attach_uplink(up);
  const std::size_t port = sw.add_port(down);
  sw.set_host_route(h.id(), port);
}

const std::vector<Link*>& Network::links_into(const PacketSink& sink) const {
  static const std::vector<Link*> kNone;
  const auto it = ingress_.find(&sink);
  return it == ingress_.end() ? kNone : it->second;
}

Network::PortPair Network::connect_switches(Switch& a, Switch& b, std::int64_t rate_bps,
                                            sim::Time prop_delay, const QueueConfig& qcfg) {
  Link& a_to_b = make_link(shard_of(a), shard_of(b), b, rate_bps, prop_delay, qcfg);
  Link& b_to_a = make_link(shard_of(b), shard_of(a), a, rate_bps, prop_delay, qcfg);
  const std::size_t pa = a.add_port(a_to_b);
  const std::size_t pb = b.add_port(b_to_a);
  return PortPair{pa, pb, &a_to_b, &b_to_a};
}

}  // namespace xmp::net
