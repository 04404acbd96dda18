#pragma once

#include <cstdint>
#include <vector>

#include "net/network.hpp"
#include "sim/time.hpp"
#include "topo/host_pool.hpp"

namespace xmp::topo {

/// Two-tier leaf–spine (Clos) fabric — the other multi-rooted topology
/// family the paper's related work surveys (VL2-style). Every leaf connects
/// to every spine; hosts hang off leaves. Upward spreading follows the same
/// deterministic (dst, path_tag) hashing as the Fat-Tree, giving one
/// distinct spine path per subflow tag.
class LeafSpine final : public HostPool {
 public:
  struct Config {
    int n_leaves = 4;
    int n_spines = 4;
    int hosts_per_leaf = 4;
    std::int64_t host_rate_bps = 1'000'000'000;
    std::int64_t fabric_rate_bps = 1'000'000'000;  ///< leaf<->spine links
    sim::Time host_delay = sim::Time::microseconds(20);
    sim::Time fabric_delay = sim::Time::microseconds(30);
    net::QueueConfig queue;
    /// Per-spine rate multiplier applied to that spine's fabric links
    /// (missing entries mean 1.0). Models an asymmetric/degraded fabric —
    /// the scenario WCMP weighting exists for. Empty = symmetric, the
    /// pre-existing wiring byte for byte.
    std::vector<double> spine_rate_factor;
  };

  LeafSpine(net::Network& netw, const Config& cfg);

  [[nodiscard]] int n_hosts() const override { return static_cast<int>(hosts_.size()); }
  [[nodiscard]] net::Host& host(int i) override { return *hosts_.at(i); }
  [[nodiscard]] int leaf_of(int host) const { return host / cfg_.hosts_per_leaf; }
  [[nodiscard]] int rack_of(int host) const override { return leaf_of(host); }
  [[nodiscard]] bool same_leaf(int a, int b) const { return leaf_of(a) == leaf_of(b); }

  /// Distinct equal-cost paths between hosts on different leaves.
  [[nodiscard]] int cross_leaf_paths() const { return cfg_.n_spines; }

  /// Logical shards the construction annotates (one per leaf; spines
  /// spread round-robin). Fixed by the topology, never by the worker count.
  [[nodiscard]] int n_shards() const { return cfg_.n_leaves; }

  [[nodiscard]] const std::vector<net::Link*>& host_links() const { return host_links_; }
  [[nodiscard]] const std::vector<net::Link*>& fabric_links() const { return fabric_links_; }

  /// Switches in build order. A spine uniquely identifies one cross-leaf
  /// path (path-diversity tests key off which spine forwarded).
  [[nodiscard]] const std::vector<net::Switch*>& leaves() const { return leaves_; }
  [[nodiscard]] const std::vector<net::Switch*>& spines() const { return spines_; }

 private:
  Config cfg_;
  std::vector<net::Host*> hosts_;
  std::vector<net::Link*> host_links_;
  std::vector<net::Link*> fabric_links_;
  std::vector<net::Switch*> leaves_;
  std::vector<net::Switch*> spines_;
};

}  // namespace xmp::topo
