#include "net/node.hpp"

#include <cassert>

namespace xmp::net {

std::size_t Switch::add_port(Link& out) {
  ports_.push_back(&out);
  return ports_.size() - 1;
}

void Switch::set_host_route(NodeId host, std::size_t port) {
  assert(port < ports_.size() && port < kNoRoute);
  if (down_port_.empty()) {
    route_base_ = host;
  } else if (host < route_base_) {  // extend the table downward
    down_port_.insert(down_port_.begin(), route_base_ - host, kNoRoute);
    route_base_ = host;
  }
  const std::size_t i = host - route_base_;
  if (i >= down_port_.size()) down_port_.resize(i + 1, kNoRoute);
  down_port_[i] = static_cast<std::uint16_t>(port);
}

void Switch::add_up_port(std::size_t port) {
  assert(port < ports_.size());
  up_ports_.push_back(port);
}

void Switch::receive(Packet p) {
  std::size_t out = host_route(p.dst);
  if (out == PortSelector::kNoPort) out = up_port(p);
  if (out == PortSelector::kNoPort) {
    ++unroutable_;
    return;
  }
  ++forwarded_;
  ports_[out]->send(std::move(p));
}

std::size_t Switch::up_port(const Packet& p) {
  if (selector_ != nullptr) return selector_->select_up_port(p);
  if (up_ports_.empty()) return PortSelector::kNoPort;
  if (up_policy_ == UpPortPolicy::TagModulo) return up_ports_[p.path_tag % up_ports_.size()];
  // Deterministic spread: a pure function of (dst, path_tag, switch id).
  const std::uint64_t h = mix64((static_cast<std::uint64_t>(p.dst) << 32) ^
                                (static_cast<std::uint64_t>(p.path_tag) << 8) ^ id());
  return up_ports_[h % up_ports_.size()];
}

void Host::send(Packet p) {
  assert(uplink_ != nullptr && "host has no uplink attached");
  uplink_->send(std::move(p));
}

void Host::receive(Packet p) {
  Endpoint* ep = slots_.empty() ? nullptr : slots_[probe(key(p.flow, p.subflow, p.type))].ep;
  if (ep == nullptr) {
    ++undeliverable_;
    return;
  }
  ++delivered_;
  ep->handle(std::move(p));
}

void Host::register_endpoint(FlowId flow, std::uint16_t subflow, PacketType type, Endpoint& ep) {
  if ((endpoints_ + 1) * 2 > slots_.size()) grow();
  Slot& s = slots_[probe(key(flow, subflow, type))];
  if (s.ep == nullptr) ++endpoints_;
  s = Slot{key(flow, subflow, type), &ep};
}

void Host::unregister_endpoint(FlowId flow, std::uint16_t subflow, PacketType type) {
  if (slots_.empty()) return;
  std::size_t hole = probe(key(flow, subflow, type));
  if (slots_[hole].ep == nullptr) return;
  --endpoints_;
  // Backward shift: move later members of the probe run into the hole
  // unless that would put them before their home slot.
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t j = (hole + 1) & mask; slots_[j].ep != nullptr; j = (j + 1) & mask) {
    const std::size_t h = home(slots_[j].key);
    const bool stays = hole < j ? hole < h && h <= j : hole < h || h <= j;
    if (stays) continue;
    slots_[hole] = slots_[j];
    hole = j;
  }
  slots_[hole] = Slot{};
}

void Host::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 8 : old.size() * 2, Slot{});
  for (const Slot& s : old) {
    if (s.ep != nullptr) slots_[probe(s.key)] = s;
  }
}

}  // namespace xmp::net
