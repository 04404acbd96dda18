#include "faults/fault_controller.hpp"

#include <algorithm>

#include "net/types.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"

namespace xmp::faults {

LossProcess::LossProcess(const LossModel& model, std::uint64_t seed, net::LinkId link)
    : model_{model}, rng_{net::mix64(seed ^ (0x9e3779b97f4a7c15ULL + link))} {}

net::Link::FaultVerdict LossProcess::on_send(const net::Packet& /*p*/) {
  double p_loss = 0.0;
  if (model_.kind == LossModel::Kind::Bernoulli) {
    p_loss = model_.p_loss;
  } else {
    // Advance the two-state channel first, then draw the loss verdict from
    // the state the packet observes.
    if (bad_state_) {
      if (rng_.uniform01() < model_.p_bad_good) bad_state_ = false;
    } else {
      if (rng_.uniform01() < model_.p_good_bad) bad_state_ = true;
    }
    p_loss = bad_state_ ? model_.loss_bad : model_.loss_good;
  }
  if (p_loss > 0.0 && rng_.uniform01() < p_loss) return net::Link::FaultAction::Drop;
  if (model_.p_corrupt > 0.0 && rng_.uniform01() < model_.p_corrupt) {
    return net::Link::FaultAction::Corrupt;
  }
  return net::Link::FaultAction::Pass;
}

namespace {

// One salt per gray effect: distinct substreams per (seed, link, effect),
// so effects never share draws and toggling one cannot shift another.
constexpr std::array<std::uint64_t, GrayProcess::kEffects> kGraySalts = {
    0xd1342543de82ef95ULL,  // Delay
    0xaf251af3b0f025b5ULL,  // Reorder
    0x9e6c63d0a9de2b13ULL,  // Duplicate
    0xb7e151628aed2a6bULL,  // Overmark
};

}  // namespace

GrayProcess::GrayProcess(std::uint64_t seed, net::LinkId link) {
  for (int i = 0; i < kEffects; ++i) {
    slots_[static_cast<std::size_t>(i)].rng =
        sim::Rng{net::mix64(seed ^ (kGraySalts[static_cast<std::size_t>(i)] + link))};
  }
}

void GrayProcess::start(Effect e, const GrayModel& m) {
  Slot& sl = slot(e);
  sl.on = true;
  sl.model = m;
}

void GrayProcess::stop(Effect e) {
  Slot& sl = slot(e);
  sl.on = false;
  sl.model = GrayModel{};
}

bool GrayProcess::any_active() const {
  for (const Slot& sl : slots_) {
    if (sl.on) return true;
  }
  return false;
}

void GrayProcess::impair(net::Link::FaultVerdict& v) {
  Slot& d = slot(Effect::Delay);
  if (d.on) {
    std::int64_t extra_ns = d.model.delay.ns();
    if (d.model.jitter > sim::Time::zero()) {
      extra_ns += static_cast<std::int64_t>(d.rng.uniform01() *
                                            static_cast<double>(d.model.jitter.ns()));
    }
    v.delay = v.delay + sim::Time::nanoseconds(extra_ns);
  }
  Slot& r = slot(Effect::Reorder);
  if (r.on && r.rng.uniform01() < r.model.p) {
    // Hold this packet back; later sends overtake it through the queue.
    v.delay = v.delay + r.model.hold;
    v.reorder = true;
  }
  Slot& u = slot(Effect::Duplicate);
  if (u.on && u.rng.uniform01() < u.model.p) v.duplicate = true;
  Slot& o = slot(Effect::Overmark);
  if (o.on && o.rng.uniform01() < o.model.p) v.overmark = true;
}

void GrayProcess::checkpoint(core::ckpt::Io& io) {
  for (Slot& sl : slots_) {
    io.b(sl.on);
    io.f64(sl.model.factor);
    io.time(sl.model.delay);
    io.time(sl.model.jitter);
    io.f64(sl.model.p);
    io.time(sl.model.hold);
    io.rng(sl.rng);
  }
}

FaultController::FaultController(sim::Scheduler& sched, net::Network& net, FaultPlan plan,
                                 Config cfg)
    : sched_{sched}, net_{net}, plan_{std::move(plan)}, cfg_{cfg} {}

void FaultController::arm() {
  event_ids_.assign(plan_.events.size(), sim::kInvalidEventId);
  for (std::size_t i = 0; i < plan_.events.size(); ++i) {
    // Capture the index, not the event: the plan vector is stable for the
    // controller's lifetime and the capture stays pointer-sized.
    event_ids_[i] = sched_.schedule_at(plan_.events[i].at, [this, i] {
      event_ids_[i] = sim::kInvalidEventId;
      apply(plan_.events[i]);
    });
  }
}

void FaultController::apply(const FaultEvent& e) {
  ++events_applied_;
  if (auto* tr = obs::tracer(); tr != nullptr) [[unlikely]] {
    tr->fault(sched_.now(), static_cast<std::uint16_t>(e.kind),
              static_cast<std::uint32_t>(e.target));
  }
  if (auto* m = obs::metrics(); m != nullptr) [[unlikely]] m->fault_events.inc();
  switch (e.kind) {
    case FaultEvent::Kind::LinkDown:
      net_.link(static_cast<net::LinkId>(e.target)).set_down(true);
      break;
    case FaultEvent::Kind::LinkUp:
      net_.link(static_cast<net::LinkId>(e.target)).set_down(false);
      break;
    case FaultEvent::Kind::SwitchDown:
      set_switch_down(e.target, true);
      break;
    case FaultEvent::Kind::SwitchUp:
      set_switch_down(e.target, false);
      break;
    case FaultEvent::Kind::HostDown:
      set_host_down(e.target, true);
      break;
    case FaultEvent::Kind::HostUp:
      set_host_down(e.target, false);
      break;
    case FaultEvent::Kind::LossStart:
      start_loss(static_cast<net::LinkId>(e.target), e.loss);
      break;
    case FaultEvent::Kind::LossStop:
      stop_loss(static_cast<net::LinkId>(e.target));
      break;
    case FaultEvent::Kind::EcnBlackholeStart:
      set_blackhole(e.target, true);
      break;
    case FaultEvent::Kind::EcnBlackholeStop:
      set_blackhole(e.target, false);
      break;
    case FaultEvent::Kind::DegradeStart:
      net_.link(static_cast<net::LinkId>(e.target)).set_degrade(e.gray.factor);
      break;
    case FaultEvent::Kind::DegradeStop:
      net_.link(static_cast<net::LinkId>(e.target)).set_degrade(1.0);
      break;
    case FaultEvent::Kind::DelayStart:
      start_gray(static_cast<net::LinkId>(e.target), GrayProcess::Effect::Delay, e.gray);
      break;
    case FaultEvent::Kind::DelayStop:
      stop_gray(static_cast<net::LinkId>(e.target), GrayProcess::Effect::Delay);
      break;
    case FaultEvent::Kind::ReorderStart:
      start_gray(static_cast<net::LinkId>(e.target), GrayProcess::Effect::Reorder, e.gray);
      break;
    case FaultEvent::Kind::ReorderStop:
      stop_gray(static_cast<net::LinkId>(e.target), GrayProcess::Effect::Reorder);
      break;
    case FaultEvent::Kind::DuplicateStart:
      start_gray(static_cast<net::LinkId>(e.target), GrayProcess::Effect::Duplicate, e.gray);
      break;
    case FaultEvent::Kind::DuplicateStop:
      stop_gray(static_cast<net::LinkId>(e.target), GrayProcess::Effect::Duplicate);
      break;
    case FaultEvent::Kind::EcnOvermarkStart:
      start_gray(static_cast<net::LinkId>(e.target), GrayProcess::Effect::Overmark, e.gray);
      break;
    case FaultEvent::Kind::EcnOvermarkStop:
      stop_gray(static_cast<net::LinkId>(e.target), GrayProcess::Effect::Overmark);
      break;
  }
}

void FaultController::set_switch_down(int idx, bool down) {
  net::Switch& sw = *net_.switches().at(static_cast<std::size_t>(idx));
  for (std::size_t p = 0; p < sw.port_count(); ++p) {
    sw.port(p).set_down(down);
  }
  for (net::Link* l : net_.links_into(sw)) {
    l->set_down(down);
  }
}

void FaultController::set_host_down(int idx, bool down) {
  net::Host& h = net_.host(static_cast<std::size_t>(idx));
  if (h.uplink() != nullptr) h.uplink()->set_down(down);
  for (net::Link* l : net_.links_into(h)) {
    l->set_down(down);
  }
}

void FaultController::set_blackhole(int idx, bool blackholed) {
  net::Switch& sw = *net_.switches().at(static_cast<std::size_t>(idx));
  for (std::size_t p = 0; p < sw.port_count(); ++p) {
    sw.port(p).queue().set_marking_enabled(!blackholed);
  }
}

FaultController::Channel& FaultController::ensure_channel(net::LinkId link) {
  auto it = channels_.find(link);
  if (it == channels_.end()) {
    it = channels_.emplace(link, std::make_unique<Channel>()).first;
    net_.link(link).set_fault_hook(it->second.get());
  }
  return *it->second;
}

void FaultController::prune_channel(net::LinkId link) {
  const auto it = channels_.find(link);
  if (it == channels_.end()) return;
  if (it->second->loss == nullptr && it->second->gray == nullptr) {
    net_.link(link).set_fault_hook(nullptr);
    channels_.erase(it);
  }
}

void FaultController::start_loss(net::LinkId link, const LossModel& m) {
  // Replaces (and frees) any prior loss model; gray effects are untouched.
  ensure_channel(link).loss = std::make_unique<LossProcess>(m, cfg_.seed, link);
}

void FaultController::stop_loss(net::LinkId link) {
  const auto it = channels_.find(link);
  if (it == channels_.end()) return;
  it->second->loss.reset();
  prune_channel(link);
}

void FaultController::start_gray(net::LinkId link, GrayProcess::Effect effect,
                                 const GrayModel& m) {
  Channel& ch = ensure_channel(link);
  if (ch.gray == nullptr) ch.gray = std::make_unique<GrayProcess>(cfg_.seed, link);
  ch.gray->start(effect, m);
}

void FaultController::stop_gray(net::LinkId link, GrayProcess::Effect effect) {
  const auto it = channels_.find(link);
  if (it == channels_.end() || it->second->gray == nullptr) return;
  it->second->gray->stop(effect);
  // A fully idle process is destroyed: a later restart re-seeds its
  // substreams from scratch, which is plan-determined and thus replayable.
  if (!it->second->gray->any_active()) it->second->gray.reset();
  prune_channel(link);
}

void FaultController::checkpoint(core::ckpt::Io& io) {
  io.u64(events_applied_);
  if (!io.count(plan_.events.size())) return;
  event_ids_.resize(plan_.events.size(), sim::kInvalidEventId);
  for (std::size_t idx = 0; idx < plan_.events.size() && io.ok(); ++idx) {
    io.opt_event(sched_, event_ids_[idx], [this, idx] {
      event_ids_[idx] = sim::kInvalidEventId;
      apply(plan_.events[idx]);
    });
  }
  // Active per-link fault channels, in link-id order (the map is unordered).
  std::vector<net::LinkId> links;
  for (const auto& [link, ch] : channels_) links.push_back(link);
  std::sort(links.begin(), links.end());
  io.seq(links, [&](net::LinkId& link) {
    io.u32(link);
    if (link >= net_.links().size()) return io.fail();
    Channel& ch = ensure_channel(link);
    bool has_loss = ch.loss != nullptr;
    io.b(has_loss);
    if (has_loss) {
      LossModel m = ch.loss != nullptr ? ch.loss->model() : LossModel{};
      io.u8(m.kind);
      io.f64(m.p_loss);
      io.f64(m.p_corrupt);
      io.f64(m.p_good_bad);
      io.f64(m.p_bad_good);
      io.f64(m.loss_good);
      io.f64(m.loss_bad);
      if (io.loading()) ch.loss = std::make_unique<LossProcess>(m, cfg_.seed, link);
      ch.loss->checkpoint(io);
    }
    bool has_gray = ch.gray != nullptr;
    io.b(has_gray);
    if (has_gray) {
      if (io.loading()) ch.gray = std::make_unique<GrayProcess>(cfg_.seed, link);
      ch.gray->checkpoint(io);
    }
  });
}

}  // namespace xmp::faults
