#include "route/policy.hpp"

#include <cassert>

#include "net/types.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"

namespace xmp::route {

const char* policy_name(PolicyKind k) {
  switch (k) {
    case PolicyKind::Pinned:
      return "pinned";
    case PolicyKind::Ecmp:
      return "ecmp";
    case PolicyKind::Wcmp:
      return "wcmp";
    case PolicyKind::Flowlet:
      return "flowlet";
  }
  return "?";
}

bool parse_policy(const std::string& name, PolicyKind& out) {
  if (name == "pinned") {
    out = PolicyKind::Pinned;
  } else if (name == "ecmp") {
    out = PolicyKind::Ecmp;
  } else if (name == "wcmp") {
    out = PolicyKind::Wcmp;
  } else if (name == "flowlet") {
    out = PolicyKind::Flowlet;
  } else {
    return false;
  }
  return true;
}

SwitchTable::SwitchTable(sim::Scheduler& sched, net::Switch& sw, const RouteConfig& cfg)
    : sched_{sched},
      sw_{sw},
      cfg_{cfg},
      tag_modulo_{sw.up_port_policy() == net::Switch::UpPortPolicy::TagModulo} {
  for (const std::size_t port : sw.up_ports()) {
    Member m;
    m.port = port;
    m.link = &sw.port(port);
    m.weight = static_cast<double>(m.link->rate_bps());
    members_.push_back(m);
  }
  flow_count_.assign(members_.size(), 0);
  rebuild();
}

void SwitchTable::rebuild() {
  alive_.clear();
  cum_weight_.clear();
  total_weight_ = 0.0;
  for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(members_.size()); ++i) {
    if (!members_[i].alive) continue;
    alive_.push_back(i);
    total_weight_ += members_[i].weight;
    cum_weight_.push_back(total_weight_);
  }
}

bool SwitchTable::set_member_alive(std::size_t member, bool alive) {
  assert(member < members_.size());
  if (members_[member].alive == alive) return false;
  members_[member].alive = alive;
  rebuild();
  return true;
}

std::size_t SwitchTable::member_for_link(const net::Link* link) const {
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (members_[i].link == link) return i;
  }
  return members_.size();
}

std::size_t SwitchTable::select_up_port(const net::Packet& p) {
  if (alive_.empty()) return kNoPort;
  std::size_t m = 0;  // every PolicyKind below sets it
  switch (cfg_.kind) {
    case PolicyKind::Pinned:
      m = pick_pinned(p);
      break;
    case PolicyKind::Ecmp:
      m = pick_hash(p, /*weighted=*/false);
      break;
    case PolicyKind::Wcmp:
      m = pick_hash(p, /*weighted=*/true);
      break;
    case PolicyKind::Flowlet:
      m = pick_flowlet(p);
      break;
  }
  ++members_[m].forwarded;
  return members_[m].port;
}

std::size_t SwitchTable::pick_pinned(const net::Packet& p) const {
  // With every member alive, alive_[i] == i and this is bit-identical to
  // the switch's built-in hash; with dead members the same hash re-spreads
  // over the survivors.
  const std::size_t n = alive_.size();
  if (tag_modulo_) return alive_[p.path_tag % n];
  const std::uint64_t h = net::mix64((static_cast<std::uint64_t>(p.dst) << 32) ^
                                     (static_cast<std::uint64_t>(p.path_tag) << 8) ^ sw_.id());
  return alive_[h % n];
}

std::size_t SwitchTable::pick_hash(const net::Packet& p, bool weighted) {
  // The 5-tuple stand-in: endpoints plus the (flow, subflow) port pair —
  // and deliberately NOT path_tag, so two subflows of one connection can
  // land on the same port. That collision is the phenomenon ECMP mode is
  // for; Pinned mode is the paper's fix.
  const std::uint64_t h =
      net::mix64((static_cast<std::uint64_t>(p.src) << 32) ^ p.dst ^
                 (static_cast<std::uint64_t>(p.flow) << 40) ^
                 (static_cast<std::uint64_t>(p.subflow) << 20) ^
                 static_cast<std::uint64_t>(sw_.id()) * 0x9e3779b97f4a7c15ULL);
  std::size_t m;
  if (!weighted) {
    m = alive_[h % alive_.size()];
  } else {
    // Map the hash to [0, total_weight) and pick by cumulative weight, so a
    // member's share of flows tracks its share of capacity.
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    const double target = u * total_weight_;
    std::size_t i = 0;
    while (i + 1 < cum_weight_.size() && target >= cum_weight_[i]) ++i;
    m = alive_[i];
  }
  note_assignment(p, m);
  return m;
}

void SwitchTable::note_assignment(const net::Packet& p, std::size_t member) {
  if (p.type != net::PacketType::Data) return;
  const std::uint64_t key =
      (static_cast<std::uint64_t>(p.flow) << 16) | static_cast<std::uint64_t>(p.subflow);
  const auto [it, inserted] = flow_port_.try_emplace(key, static_cast<std::uint32_t>(member));
  if (!inserted) return;
  // A fresh flow hashed onto a port that already carries one while another
  // live port sat idle: the ECMP collision the paper's pinning avoids.
  if (flow_count_[member] > 0) {
    for (const std::uint32_t a : alive_) {
      if (a != member && flow_count_[a] == 0) {
        ++collisions_;
        if (auto* mt = obs::metrics(); mt != nullptr) [[unlikely]] mt->route_collisions.inc();
        break;
      }
    }
  }
  ++flow_count_[member];
}

std::size_t SwitchTable::pick_flowlet(const net::Packet& p) {
  const std::uint64_t key = (static_cast<std::uint64_t>(p.flow) << 17) |
                            (static_cast<std::uint64_t>(p.subflow) << 1) |
                            static_cast<std::uint64_t>(p.type == net::PacketType::Ack);
  // The clock of the shard dispatching the packet; the table's own
  // scheduler is the control strand, which lags inside a sharded epoch.
  const sim::Scheduler* cs = sim::current_scheduler();
  const std::int64_t now_ns = (cs != nullptr ? *cs : sched_).now().ns();
  const auto [it, inserted] = flowlets_.try_emplace(key);
  FlowletEntry& e = it->second;
  const bool expired = inserted || now_ns - e.last_ns > cfg_.flowlet_gap.ns();
  const bool dead = !inserted && !members_[e.member].alive;
  if (expired || dead) {
    const std::uint64_t h = net::mix64(
        key ^ net::mix64((static_cast<std::uint64_t>(sw_.id()) << 32) ^ ++e.salt));
    const auto m = alive_[h % alive_.size()];
    if (!inserted && m != e.member) {
      ++repaths_;
      if (auto* mt = obs::metrics(); mt != nullptr) [[unlikely]] mt->flowlet_repaths.inc();
    }
    e.member = m;
  }
  e.last_ns = now_ns;
  return e.member;
}

void SwitchTable::checkpoint(core::ckpt::Io& io) {
  if (!io.count(members_.size())) return;
  for (Member& m : members_) {
    io.b(m.alive);
    io.u64(m.forwarded);
  }
  if (io.loading()) rebuild();
  io.u64(collisions_);
  io.u64(repaths_);
  if (!io.count(flow_count_.size())) return;
  for (std::uint32_t& c : flow_count_) io.u32(c);
  io.sorted(flow_port_, [&](auto& port) { io.u32(port); });
  io.sorted(flowlets_, [&](FlowletEntry& e) {
    io.i64(e.last_ns);
    io.u32(e.member);
    io.u64(e.salt);
    if (e.member >= members_.size()) io.fail();
  });
}

}  // namespace xmp::route
