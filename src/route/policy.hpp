#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/link.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace xmp::route {

/// How a switch spreads traffic over its equal-cost upward ports.
enum class PolicyKind {
  Pinned,   ///< (dst, path_tag, switch id) hash — one deterministic path per
            ///< tag; byte-identical to the pre-routing-layer behavior
  Ecmp,     ///< 5-tuple hash ignoring path_tag — subflows of one connection
            ///< can collide on a port (the classic ECMP failure mode)
  Wcmp,     ///< weighted ECMP: hash into cumulative port weights (defaults
            ///< to link rates, so degraded uplinks attract less traffic)
  Flowlet,  ///< per-flow sticky port, repicked after an idle gap
};

[[nodiscard]] const char* policy_name(PolicyKind k);
/// Parse "pinned" / "ecmp" / "wcmp" / "flowlet"; false on unknown names.
[[nodiscard]] bool parse_policy(const std::string& name, PolicyKind& out);

struct RouteConfig {
  PolicyKind kind = PolicyKind::Pinned;
  /// Flowlet policy: a flow is repicked onto a (possibly) different port
  /// once it has been idle at the switch for this long.
  sim::Time flowlet_gap = sim::Time::microseconds(100);
  /// Failure convergence delay: how long after a port-liveness change the
  /// forwarding table keeps using the stale entry (models control-plane
  /// reaction time; during the window traffic blackholes on the dead port).
  sim::Time reroute_delay = sim::Time::milliseconds(1);
};

/// The upward forwarding table of one switch: the port group of its
/// equal-cost uplinks plus the policy that picks among the live ones.
///
/// Implements net::Switch::PortSelector, so installing a table replaces the
/// switch's built-in hash. With every member alive, the Pinned policy
/// reproduces that hash bit for bit (the golden/determinism tests pin this);
/// once members die, every policy re-spreads over the survivors, and with
/// no survivors select_up_port returns kNoPort (counted as unroutable).
class SwitchTable final : public net::Switch::PortSelector {
 public:
  struct Member {
    std::size_t port = 0;        ///< port index on the owning switch
    net::Link* link = nullptr;   ///< egress link behind the port
    double weight = 1.0;         ///< WCMP share (defaults to the link rate)
    bool alive = true;
    std::uint64_t forwarded = 0; ///< packets sent through this member
  };

  /// Builds the member group from the switch's declared up-ports. A
  /// TagModulo switch (testbed topologies) keeps tag % n pinning.
  SwitchTable(sim::Scheduler& sched, net::Switch& sw, const RouteConfig& cfg);

  SwitchTable(const SwitchTable&) = delete;
  SwitchTable& operator=(const SwitchTable&) = delete;

  [[nodiscard]] std::size_t select_up_port(const net::Packet& p) override;

  /// Flip one member's liveness (convergence has happened); returns true if
  /// the table actually changed. Dead members receive no new traffic.
  bool set_member_alive(std::size_t member, bool alive);

  [[nodiscard]] net::Switch& owner() { return sw_; }
  [[nodiscard]] const std::vector<Member>& members() const { return members_; }
  [[nodiscard]] int alive_members() const { return static_cast<int>(alive_.size()); }
  /// Member index behind `link`, or members().size() if it is not a member.
  [[nodiscard]] std::size_t member_for_link(const net::Link* link) const;

  /// New flows hashed onto a busy port while an idle one existed
  /// (Ecmp/Wcmp only — the collision metric of the AMP baseline).
  [[nodiscard]] std::uint64_t collisions() const { return collisions_; }
  /// Flowlet gap expiries that actually moved a flow to a new port.
  [[nodiscard]] std::uint64_t repaths() const { return repaths_; }

  /// Checkpoint member liveness, per-member forwarding counts and the
  /// flow-assignment maps (in key order, for stable bytes). Loading
  /// expects a freshly built table over the same switch (port group and
  /// weights are build-time state).
  void checkpoint(core::ckpt::Io& io);

 private:
  [[nodiscard]] std::size_t pick_pinned(const net::Packet& p) const;
  [[nodiscard]] std::size_t pick_hash(const net::Packet& p, bool weighted);
  [[nodiscard]] std::size_t pick_flowlet(const net::Packet& p);
  void note_assignment(const net::Packet& p, std::size_t member);
  void rebuild();

  sim::Scheduler& sched_;
  net::Switch& sw_;
  RouteConfig cfg_;
  bool tag_modulo_;
  std::vector<Member> members_;
  std::vector<std::uint32_t> alive_;  ///< member indices, build order
  std::vector<double> cum_weight_;    ///< parallel to alive_ (WCMP)
  double total_weight_ = 0.0;

  struct FlowletEntry {
    std::int64_t last_ns = 0;
    std::uint32_t member = 0;
    std::uint64_t salt = 0;  ///< advanced per repick for a fresh hash
  };
  std::unordered_map<std::uint64_t, FlowletEntry> flowlets_;

  // Collision accounting (Ecmp/Wcmp): first-seen port per flow key and the
  // number of distinct flow keys assigned to each member.
  std::unordered_map<std::uint64_t, std::uint32_t> flow_port_;
  std::vector<std::uint32_t> flow_count_;
  std::uint64_t collisions_ = 0;
  std::uint64_t repaths_ = 0;
};

}  // namespace xmp::route
