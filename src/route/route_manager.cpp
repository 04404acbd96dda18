#include "route/route_manager.hpp"

#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"

namespace xmp::route {

RouteManager::RouteManager(sim::Scheduler& sched, net::Network& netw, const RouteConfig& cfg)
    : sched_{sched}, netw_{netw}, cfg_{cfg} {}

void RouteManager::install_all() {
  for (net::Switch* sw : netw_.switches()) {
    if (!sw->up_ports().empty()) install(*sw);
  }
}

void RouteManager::install(net::Switch& sw) {
  auto table = std::make_unique<SwitchTable>(sched_, sw, cfg_);
  SwitchTable* t = table.get();
  tables_.push_back(std::move(table));
  by_switch_[&sw] = t;
  sw.set_port_selector(t);
  const auto& members = t->members();
  for (std::size_t i = 0; i < members.size(); ++i) {
    net::Link* link = members[i].link;
    member_of_[link] = {t, i};
    link->add_state_listener(this);
    // A link that failed before the table was installed converges
    // immediately: there was never a fresher entry to age out.
    if (link->is_down()) t->set_member_alive(i, false);
  }
}

SwitchTable* RouteManager::table_for(const net::Switch& sw) {
  const auto it = by_switch_.find(&sw);
  return it == by_switch_.end() ? nullptr : it->second;
}

void RouteManager::on_link_state(net::Link& link, bool /*down*/) {
  if (member_of_.find(&link) == member_of_.end()) return;
  // The timer applies whatever state the link holds when it fires, so a
  // repair during the window simply converges back to "alive" — flapping
  // never leaves a table permanently stale.
  converge_timers_.emplace_back(&link,
                                sched_.schedule_in(cfg_.reroute_delay, converge_timer(&link)));
}

sim::EventCallback RouteManager::converge_timer(net::Link* link) {
  return [this, link] {
    // Same-delay timers for one link fire in scheduling order, so the
    // oldest tracked entry is the one firing now.
    for (auto it = converge_timers_.begin(); it != converge_timers_.end(); ++it) {
      if (it->first == link) {
        converge_timers_.erase(it);
        break;
      }
    }
    converge(link);
  };
}

void RouteManager::converge(net::Link* link) {
  const auto it = member_of_.find(link);
  if (it == member_of_.end()) return;
  auto [table, member] = it->second;
  const bool down = link->is_down();
  if (!table->set_member_alive(member, !down)) return;  // already converged
  ++reroutes_;
  if (auto* mt = obs::metrics(); mt != nullptr) [[unlikely]] mt->route_reroutes.inc();
  if (auto* tr = obs::tracer(); tr != nullptr) [[unlikely]] {
    tr->reroute(sched_.now(), static_cast<std::uint32_t>(link->id()),
                static_cast<std::uint32_t>(table->owner().id()), table->alive_members(), down);
  }
}

void RouteManager::checkpoint(core::ckpt::Io& io) {
  io.u64(reroutes_);
  io.seq(converge_timers_, [&](std::pair<net::Link*, sim::EventId>& t) {
    net::LinkId id = t.first != nullptr ? t.first->id() : 0;
    io.u32(id);
    if (id >= netw_.links().size()) return io.fail();
    t.first = &netw_.link(id);
    io.event(sched_, t.second, converge_timer(t.first));
  });
  if (!io.count(tables_.size())) return;
  for (std::size_t i = 0; i < tables_.size() && io.ok(); ++i) tables_[i]->checkpoint(io);
}

std::uint64_t RouteManager::collisions() const {
  std::uint64_t n = 0;
  for (const auto& t : tables_) n += t->collisions();
  return n;
}

std::uint64_t RouteManager::repaths() const {
  std::uint64_t n = 0;
  for (const auto& t : tables_) n += t->repaths();
  return n;
}

}  // namespace xmp::route
