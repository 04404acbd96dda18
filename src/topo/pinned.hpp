#pragma once

#include <cstdint>
#include <vector>

#include "net/network.hpp"
#include "sim/time.hpp"
#include "topo/host_pool.hpp"

namespace xmp::topo {

/// Testbed-style topology with explicitly pinned paths (paper Figures 3
/// and 5): a set of two-way bottleneck links, and per host-pair a list of
/// subflow paths, each nailed to one bottleneck.
///
/// For every pair, the source hangs off its own ingress switch and the
/// destination off its own egress switch; subflow k of the pair is routed
/// via the bottleneck named in the pair's path list by `path_tag = k`
/// (TagModulo policy on ingress/egress switches), both for data and for
/// the returning acks. Non-bottleneck links are fast and over-provisioned
/// so the named bottleneck is the only point of congestion — the simulator
/// equivalent of the paper's DummyNet boxes. As a HostPool, pair i holds
/// hosts 2i (source) and 2i+1 (destination), each its own "rack".
class PinnedPaths : public HostPool {
 public:
  struct BottleneckSpec {
    std::int64_t rate_bps;
    sim::Time delay;  ///< one-way propagation of the bottleneck hop
  };

  struct Config {
    std::vector<BottleneckSpec> bottlenecks;
    net::QueueConfig bottleneck_queue;  ///< marking/drop behaviour under test
    /// Hosts in the paper's testbed are multihomed (one NIC per path), so
    /// the access hop never binds; we model that with an over-provisioned
    /// single access link.
    std::int64_t access_rate_bps = 10'000'000'000;
    sim::Time access_delay = sim::Time::microseconds(20);
    std::int64_t inner_rate_bps = 10'000'000'000;
    sim::Time inner_delay = sim::Time::microseconds(20);
  };

  struct Pair {
    net::Host* src = nullptr;
    net::Host* dst = nullptr;
  };

  PinnedPaths(net::Network& netw, const Config& cfg);

  /// Create a source/destination pair whose subflow k traverses bottleneck
  /// `paths[k]`. Use a single-element list for single-path flows.
  Pair add_pair(const std::vector<int>& paths);

  /// Forward-direction bottleneck link (the congested one).
  [[nodiscard]] net::Link& bottleneck(int i) { return *bneck_fwd_.at(i); }
  [[nodiscard]] int n_bottlenecks() const { return static_cast<int>(bneck_fwd_.size()); }

  [[nodiscard]] int n_hosts() const override { return static_cast<int>(hosts_.size()); }
  [[nodiscard]] net::Host& host(int i) override { return *hosts_.at(static_cast<std::size_t>(i)); }
  [[nodiscard]] int rack_of(int host) const override { return host; }

  /// Round-trip time over bottleneck `i`, excluding queueing and
  /// serialization (for picking K against the BDP).
  [[nodiscard]] sim::Time base_rtt(int i) const;

 private:
  net::Network& net_;
  Config cfg_;
  std::vector<net::Switch*> bneck_in_;    ///< A_j: ingress of bottleneck j
  std::vector<net::Switch*> bneck_out_;   ///< B_j: egress of bottleneck j
  std::vector<net::Link*> bneck_fwd_;
  std::vector<std::size_t> bneck_port_on_a_;  ///< A_j's port onto the bottleneck
  std::vector<std::size_t> bneck_port_on_b_;  ///< B_j's port back (reverse)
  std::vector<net::Host*> hosts_;             ///< in pair order: src, dst, src, ...
};

/// Id of bottleneck `j`'s forward link in a testbed built on a fresh
/// network: the constructor links the bottlenecks first, two links each.
/// A fault plan names it before the world exists (Fig. 7 closes L3).
[[nodiscard]] constexpr net::LinkId bottleneck_link_id(int j) {
  return static_cast<net::LinkId>(2 * j);
}

}  // namespace xmp::topo
