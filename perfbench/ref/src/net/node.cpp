#include "net/node.hpp"

#include <cassert>

namespace xmp::net {

std::size_t Switch::add_port(Link& out) {
  ports_.push_back(&out);
  return ports_.size() - 1;
}

void Switch::set_host_route(NodeId host, std::size_t port) {
  assert(port < ports_.size());
  host_route_[host] = port;
}

void Switch::add_up_port(std::size_t port) {
  assert(port < ports_.size());
  up_ports_.push_back(port);
}

void Switch::receive(Packet p) {
  const auto it = host_route_.find(p.dst);
  std::size_t out;
  if (it != host_route_.end()) {
    out = it->second;
  } else if (selector_ != nullptr) {
    out = selector_->select_up_port(p);
    if (out == PortSelector::kNoPort) {
      ++unroutable_;
      return;
    }
  } else if (!up_ports_.empty()) {
    if (up_policy_ == UpPortPolicy::TagModulo) {
      out = up_ports_[p.path_tag % up_ports_.size()];
    } else {
      // Deterministic spread: a pure function of (dst, path_tag, switch id).
      const std::uint64_t h = mix64((static_cast<std::uint64_t>(p.dst) << 32) ^
                                    (static_cast<std::uint64_t>(p.path_tag) << 8) ^ id());
      out = up_ports_[h % up_ports_.size()];
    }
  } else {
    ++unroutable_;
    return;
  }
  ++forwarded_;
  ports_[out]->send(std::move(p));
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
