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
  const auto it = endpoints_.find(key(p.flow, p.subflow, p.type));
  if (it == endpoints_.end()) {
    ++undeliverable_;
    return;
  }
  ++delivered_;
  it->second->handle(std::move(p));
}

void Host::register_endpoint(FlowId flow, std::uint16_t subflow, PacketType type, Endpoint& ep) {
  endpoints_[key(flow, subflow, type)] = &ep;
}

void Host::unregister_endpoint(FlowId flow, std::uint16_t subflow, PacketType type) {
  endpoints_.erase(key(flow, subflow, type));
}

}  // namespace xmp::net
