#pragma once

#include <cstdint>
#include <vector>

#include "net/network.hpp"
#include "sim/time.hpp"
#include "topo/host_pool.hpp"

namespace xmp::topo {

/// k-ary Fat-Tree (Al-Fares et al., SIGCOMM 2008), the paper's simulation
/// topology (§5.2.1): k pods of k/2 edge + k/2 aggregation switches,
/// (k/2)^2 core switches, k^3/4 hosts. For k = 8 that is 80 switches and
/// 128 hosts, all links 1 Gbps, with one-way delays of 20/30/40 µs at the
/// rack/aggregation/core layer.
///
/// Forwarding follows the Two-Level Routing Lookup behaviour: the downward
/// path to a host is unique; upward, each switch spreads deterministically
/// over its k/2 uplinks as a function of (dst, path_tag), so distinct
/// path_tags realize the paper's one-path-per-subflow address trick.
class FatTree final : public HostPool {
 public:
  struct Config {
    int k = 8;                       ///< ports per switch (even, >= 2)
    std::int64_t link_rate_bps = 1'000'000'000;
    sim::Time rack_delay = sim::Time::microseconds(20);
    sim::Time agg_delay = sim::Time::microseconds(30);
    sim::Time core_delay = sim::Time::microseconds(40);
    net::QueueConfig queue;          ///< applied to every link egress
  };

  enum class Layer { Rack, Aggregation, Core };
  enum class Category { InnerRack, InterRack, InterPod };

  FatTree(net::Network& netw, const Config& cfg);

  [[nodiscard]] int n_hosts() const override { return static_cast<int>(hosts_.size()); }
  [[nodiscard]] net::Host& host(int i) override { return *hosts_.at(i); }
  [[nodiscard]] const Config& config() const { return cfg_; }

  /// Pod / edge-switch coordinates of host i.
  [[nodiscard]] int pod_of(int host) const { return host / hosts_per_pod_; }
  [[nodiscard]] int edge_of(int host) const { return host / (cfg_.k / 2); }
  [[nodiscard]] int rack_of(int host) const override { return edge_of(host); }

  /// Locality class of a (src, dst) host pair (paper Fig. 8c/8d, Fig. 10).
  [[nodiscard]] Category category(int src, int dst) const;

  /// All unidirectional links belonging to a layer (paper Fig. 11).
  [[nodiscard]] const std::vector<net::Link*>& links(Layer l) const;

  /// Number of distinct equal-cost paths between inter-pod hosts: (k/2)^2.
  [[nodiscard]] int inter_pod_paths() const { return (cfg_.k / 2) * (cfg_.k / 2); }

  /// The unidirectional links a src→dst data path traverses, in hop order.
  /// `agg_choice`/`core_choice` (each in [0, k/2)) pick one of the equal-cost
  /// upward paths: agg_choice selects the aggregation switch (and with it the
  /// core group), core_choice the core switch within the group. They are
  /// ignored when the category does not reach that layer. The fluid engine
  /// uses this to pin a background flow onto one concrete path the same way
  /// PinnedPaths routes a subflow — without simulating any packet on it.
  [[nodiscard]] std::vector<net::Link*> path_links(int src, int dst, int agg_choice,
                                                   int core_choice) const;

  /// Logical shards the construction annotates (one per pod; cores spread
  /// round-robin). Fixed by the topology, never by the worker count.
  [[nodiscard]] int n_shards() const { return cfg_.k; }

  /// All switches of a layer, in build order (edge/agg: pod-major; core:
  /// group-major). A core switch uniquely identifies one inter-pod path,
  /// which path-diversity tests and routing-table audits exploit.
  [[nodiscard]] const std::vector<net::Switch*>& switches(Layer l) const;

  [[nodiscard]] static const char* category_name(Category c);
  [[nodiscard]] static const char* layer_name(Layer l);

 private:
  Config cfg_;
  int hosts_per_pod_ = 0;
  std::vector<net::Host*> hosts_;
  std::vector<net::Link*> rack_links_;
  std::vector<net::Link*> agg_links_;
  std::vector<net::Link*> core_links_;
  std::vector<net::Switch*> edge_switches_;
  std::vector<net::Switch*> agg_switches_;
  std::vector<net::Switch*> core_switches_;
};

}  // namespace xmp::topo
