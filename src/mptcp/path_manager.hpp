#pragma once

#include <cstdint>
#include <vector>

#include "core/checkpoint.hpp"
#include "net/types.hpp"

namespace xmp::mptcp {

/// Path allocation for a connection's subflows: when failure detection
/// declares a subflow dead, the manager can re-home it — hand it a fresh
/// path tag disjoint from every live sibling's — instead of letting the
/// connection lose the pipe for good.
///
/// Purely deterministic: candidate tags come from mix64 over (flow,
/// subflow, attempt), probed until one avoids the in-use set, so a given
/// failure history always re-homes onto the same paths. The budget bounds
/// how often a connection may chase new paths before giving up (a subflow
/// that keeps dying is on a network with nothing left to offer).
class PathManager {
 public:
  struct Config {
    /// Total re-homes allowed across the connection's lifetime; 0 disables
    /// re-homing entirely (dead subflows are killed, the pre-existing
    /// behavior and the default).
    int max_rehomes = 0;
  };

  explicit PathManager(const Config& cfg) : cfg_{cfg} {}

  /// True if the budget still allows a re-home.
  [[nodiscard]] bool can_rehome() const { return used_ < cfg_.max_rehomes; }
  /// Re-homes performed so far.
  [[nodiscard]] int rehomes_used() const { return used_; }
  /// Checkpoint the consumed budget count.
  void checkpoint(core::ckpt::Io& io) { io.i64(used_); }

  /// Consume one budget unit and pick a tag for `subflow` distinct from
  /// `old_tag` and from every tag in `in_use`. Returns false (and picks
  /// nothing) when the budget is spent.
  bool pick_new_tag(net::FlowId flow, int subflow, std::uint16_t old_tag,
                    const std::vector<std::uint16_t>& in_use, std::uint16_t& out);

 private:
  Config cfg_;
  int used_ = 0;
};

}  // namespace xmp::mptcp
