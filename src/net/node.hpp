#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/link.hpp"
#include "net/packet.hpp"
#include "net/types.hpp"

namespace xmp::net {

/// Base class for hosts and switches.
class Node : public PacketSink {
 public:
  explicit Node(NodeId id) : id_{id} {}
  [[nodiscard]] NodeId id() const { return id_; }

 private:
  NodeId id_;
};

/// Output-queued switch with exact downward host routes and deterministic
/// hashed spreading over equal-cost upward ports.
///
/// This models the paper's Two-Level Routing Lookup (§5.2.1): the downward
/// path to a host is unique; the upward path is a pure function of
/// (destination, path_tag, switch id), so a subflow with a distinct
/// `path_tag` deterministically takes a distinct path — the simulator
/// equivalent of the paper's "multiple addresses per host" trick.
class Switch final : public Node {
 public:
  explicit Switch(NodeId id) : Node{id} {}

  /// Pluggable upward forwarding decision (src/route/). When installed, it
  /// replaces the built-in up-port hash for packets without an exact host
  /// route; returning kNoPort means "no usable port" and the packet is
  /// counted as unroutable.
  class PortSelector {
   public:
    static constexpr std::size_t kNoPort = static_cast<std::size_t>(-1);
    virtual ~PortSelector() = default;
    [[nodiscard]] virtual std::size_t select_up_port(const Packet& p) = 0;
  };

  /// Register an output port; returns its index.
  std::size_t add_port(Link& out);

  /// Install (or overwrite) the exact downward route for `host` via `port`.
  void set_host_route(NodeId host, std::size_t port);

  /// The exact downward port for `host`, or PortSelector::kNoPort.
  [[nodiscard]] std::size_t host_route(NodeId host) const {
    const std::uint32_t i = host - route_base_;  // wraps below the base
    return i < down_port_.size() && down_port_[i] != kNoRoute ? down_port_[i]
                                                              : PortSelector::kNoPort;
  }

  /// Declare `port` as an upward (multipath) port.
  void add_up_port(std::size_t port);

  /// How packets are spread over the upward ports.
  enum class UpPortPolicy {
    Hashed,     ///< hash(dst, path_tag, switch id) — fat-tree style ECMP
    TagModulo,  ///< path_tag % n_up — explicit path pinning for testbeds
  };
  void set_up_port_policy(UpPortPolicy p) { up_policy_ = p; }
  [[nodiscard]] UpPortPolicy up_port_policy() const { return up_policy_; }

  /// Install / remove (nullptr) the forwarding-table selector. Not owned.
  void set_port_selector(PortSelector* s) { selector_ = s; }
  [[nodiscard]] PortSelector* port_selector() const { return selector_; }

  void receive(Packet p) override;

  [[nodiscard]] std::uint64_t forwarded() const { return forwarded_; }
  [[nodiscard]] std::uint64_t unroutable() const { return unroutable_; }

  void checkpoint(core::ckpt::Io& io) {
    io.u64(forwarded_);
    io.u64(unroutable_);
  }

  [[nodiscard]] std::size_t port_count() const { return ports_.size(); }
  [[nodiscard]] Link& port(std::size_t i) { return *ports_.at(i); }
  [[nodiscard]] const std::vector<std::size_t>& up_ports() const { return up_ports_; }

 private:
  static constexpr std::uint16_t kNoRoute = 0xffff;

  /// Upward choice for a packet without a downward route; kNoPort if none.
  [[nodiscard]] std::size_t up_port(const Packet& p);

  std::vector<Link*> ports_;
  /// Downward routes as a dense table over the routed host-id range:
  /// down_port_[dst - route_base_] is dst's port, or kNoRoute. Topology
  /// builders create a subtree's hosts consecutively, so the range is
  /// tight: k/2 entries on an edge switch, k^2/4 on an aggregation switch
  /// and every host (2 bytes each) on a core switch.
  std::vector<std::uint16_t> down_port_;
  NodeId route_base_ = 0;
  std::vector<std::size_t> up_ports_;
  UpPortPolicy up_policy_ = UpPortPolicy::Hashed;
  PortSelector* selector_ = nullptr;
  std::uint64_t forwarded_ = 0;
  std::uint64_t unroutable_ = 0;
};

/// End host: one uplink, and a demultiplexer that delivers Data packets to
/// the registered receiver endpoint and Ack packets to the sender endpoint
/// of the (flow, subflow) pair.
class Host final : public Node {
 public:
  /// Endpoint interface implemented by transport senders/receivers.
  class Endpoint {
   public:
    virtual ~Endpoint() = default;
    virtual void handle(Packet p) = 0;
  };

  explicit Host(NodeId id) : Node{id} {}

  void attach_uplink(Link& l) { uplink_ = &l; }
  [[nodiscard]] Link* uplink() { return uplink_; }

  /// Hand a packet to the network.
  void send(Packet p);

  void receive(Packet p) override;

  /// Register the endpoint that consumes packets of `type` for
  /// (flow, subflow). Data packets go to the receive side, Ack packets to
  /// the send side.
  void register_endpoint(FlowId flow, std::uint16_t subflow, PacketType type, Endpoint& ep);
  void unregister_endpoint(FlowId flow, std::uint16_t subflow, PacketType type);

  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t undeliverable() const { return undeliverable_; }

  void checkpoint(core::ckpt::Io& io) {
    io.u64(delivered_);
    io.u64(undeliverable_);
  }

 private:
  static std::uint64_t key(FlowId flow, std::uint16_t subflow, PacketType type) {
    return (static_cast<std::uint64_t>(flow) << 17) | (static_cast<std::uint64_t>(subflow) << 1) |
           static_cast<std::uint64_t>(type == PacketType::Ack);
  }

  /// Demultiplexing table: open addressing with linear probing over a
  /// power-of-two array of slots, at most half full, erased by backward
  /// shift (no tombstones). A host holds a few endpoints on the
  /// permutation runs and up to ~85 under websearch at load 0.6 (k=4),
  /// so lookups hash instead of scanning.
  struct Slot {
    std::uint64_t key = 0;
    Endpoint* ep = nullptr;  ///< nullptr: empty slot
  };
  [[nodiscard]] std::size_t home(std::uint64_t k) const {
    return static_cast<std::size_t>(mix64(k)) & (slots_.size() - 1);
  }
  /// Index of `k`'s slot, or of the empty slot where it would go.
  [[nodiscard]] std::size_t probe(std::uint64_t k) const {
    std::size_t i = home(k);
    while (slots_[i].ep != nullptr && slots_[i].key != k) i = (i + 1) & (slots_.size() - 1);
    return i;
  }
  void grow();

  Link* uplink_ = nullptr;
  std::vector<Slot> slots_;  ///< empty, or a power of two in size
  std::size_t endpoints_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t undeliverable_ = 0;
};

}  // namespace xmp::net
