#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "net/handoff.hpp"
#include "net/link.hpp"
#include "net/node.hpp"
#include "net/queue.hpp"
#include "sim/scheduler.hpp"

namespace xmp::net {

/// Owns every node and link of a simulated network and hands out stable
/// references. NodeIds are dense indices into the node table.
///
/// Sharded construction: installing a ShardFabric before building the
/// topology makes node/link creation shard-aware. Topology builders call
/// begin_shard(s) before creating a shard's nodes; every link is owned by
/// its *sender's* shard (its queue and transmitter run there), and a link
/// whose endpoints live in different shards becomes a boundary link wired
/// through the fabric's handoff channels. Without a fabric all of this is
/// inert and construction is byte-identical to the serial engine.
///
/// Every link FIFO and queue takes its nodes from the FIFO pool of the
/// shard that pushes and pops it: the fabric's per-shard pools, or the
/// network's own pool in a serial run.
class Network {
 public:
  explicit Network(sim::Scheduler& sched) : sched_{sched} {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Enable shard-aware construction (call before building the topology).
  void set_shard_fabric(ShardFabric* fabric) { fabric_ = fabric; }
  [[nodiscard]] bool sharded() const { return fabric_ != nullptr; }

  /// Nodes created from here on belong to logical shard `s`.
  void begin_shard(int s) { current_shard_ = s; }

  /// Logical shard of a node (0 when construction was not sharded).
  [[nodiscard]] int shard_of(const Node& n) const {
    return node_shard_.at(static_cast<std::size_t>(n.id()));
  }
  /// Logical shard owning a link (its sender's shard).
  [[nodiscard]] int link_shard(LinkId id) const {
    return link_shard_.at(static_cast<std::size_t>(id));
  }

  Host& add_host();
  Switch& add_switch();

  /// Create a unidirectional link delivering into `to`.
  Link& add_link(PacketSink& to, std::int64_t rate_bps, sim::Time prop_delay,
                 const QueueConfig& qcfg);

  /// Connect host <-> switch with a symmetric pair of links; wires the host
  /// uplink and the switch downward route.
  void attach_host(Host& h, Switch& sw, std::int64_t rate_bps, sim::Time prop_delay,
                   const QueueConfig& qcfg);

  /// Connect two switches with a symmetric pair of links; returns the port
  /// indices {on_a, on_b} so callers can mark them as up/down ports.
  struct PortPair {
    std::size_t on_a;
    std::size_t on_b;
    Link* a_to_b;
    Link* b_to_a;
  };
  PortPair connect_switches(Switch& a, Switch& b, std::int64_t rate_bps, sim::Time prop_delay,
                            const QueueConfig& qcfg);

  [[nodiscard]] sim::Scheduler& scheduler() { return sched_; }
  [[nodiscard]] const std::vector<std::unique_ptr<Node>>& nodes() const { return nodes_; }
  [[nodiscard]] const std::vector<std::unique_ptr<Link>>& links() const { return links_; }
  [[nodiscard]] std::vector<std::unique_ptr<Link>>& links() { return links_; }
  [[nodiscard]] Link& link(LinkId id) { return *links_.at(id); }
  [[nodiscard]] std::size_t host_count() const { return hosts_.size(); }
  [[nodiscard]] Host& host(std::size_t i) { return *hosts_.at(i); }
  [[nodiscard]] const std::vector<Host*>& hosts() const { return hosts_; }
  [[nodiscard]] const std::vector<Switch*>& switches() const { return switches_; }

  /// Every link whose receiving end is `sink` (a node's ingress links).
  /// Used by fault injection (failing a node downs all attached links) and
  /// routing-table construction. Served from an adjacency index maintained
  /// by add_link, so a per-fault-event lookup is O(1) instead of O(links).
  [[nodiscard]] const std::vector<Link*>& links_into(const PacketSink& sink) const;

 private:
  /// Create a link owned by `src_shard`'s scheduler delivering into `to`;
  /// cross-shard pairs are registered with the fabric and flipped into
  /// boundary mode. The serial path (`fabric_ == nullptr`) is untouched.
  Link& make_link(int src_shard, int dst_shard, PacketSink& to, std::int64_t rate_bps,
                  sim::Time prop_delay, const QueueConfig& qcfg);

  [[nodiscard]] sim::Scheduler& sched_for(int shard) {
    return fabric_ != nullptr ? fabric_->sched(shard) : sched_;
  }
  [[nodiscard]] FifoPool& pool_for(int shard) {
    return fabric_ != nullptr ? fabric_->pool(shard) : pool_;
  }

  sim::Scheduler& sched_;
  FifoPool pool_;  ///< the serial engine's; declared before links_ (outlives them)
  ShardFabric* fabric_ = nullptr;
  int current_shard_ = 0;
  std::vector<int> node_shard_;  ///< by NodeId
  std::vector<int> link_shard_;  ///< by LinkId (sender's shard)
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<Host*> hosts_;
  std::vector<Switch*> switches_;
  std::unordered_map<const PacketSink*, std::vector<Link*>> ingress_;
};

}  // namespace xmp::net
