#pragma once

#include "net/node.hpp"

namespace xmp::topo {

/// Topology-agnostic view of "a set of hosts" that traffic patterns draw
/// from. FatTree and LeafSpine both implement it, so every workload
/// generator runs unchanged on either fabric.
class HostPool {
 public:
  virtual ~HostPool() = default;

  [[nodiscard]] virtual int n_hosts() const = 0;
  [[nodiscard]] virtual net::Host& host(int i) = 0;

  /// Identifier of the host's rack (edge switch / leaf). Used by patterns
  /// that exclude intra-rack pairs (paper footnote 8).
  [[nodiscard]] virtual int rack_of(int host) const = 0;
};

}  // namespace xmp::topo
