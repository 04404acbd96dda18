#include "stats/probes.hpp"

#include <cassert>

namespace xmp::stats {

void DropBreakdown::add(const net::Link& l) {
  offered += l.offered();
  delivered += l.delivered();
  queue += l.drops().queue;
  admin_down += l.drops().admin_down;
  fault += l.drops().fault;
  corrupt += l.drops().corrupt;
  duplicated += l.duplicated();
  delayed += l.delayed();
  overmarked += l.overmarked();
}

DropBreakdown collect_drops(const std::vector<net::Link*>& links) {
  DropBreakdown d;
  for (const net::Link* l : links) d.add(*l);
  return d;
}

DropBreakdown collect_drops(const net::Network& net) {
  DropBreakdown d;
  for (const auto& l : net.links()) d.add(*l);
  return d;
}

RateProbe::RateProbe(sim::Scheduler& sched, sim::Time interval, std::function<double()> cumulative)
    : sched_{sched}, interval_{interval}, cumulative_{std::move(cumulative)} {
  assert(interval_ > sim::Time::zero());
}

RateProbe::~RateProbe() { stop(); }

void RateProbe::start() {
  if (timer_ != sim::kInvalidEventId) return;
  last_value_ = cumulative_();
  timer_ = sched_.schedule_in(interval_, [this] { tick(); });
}

void RateProbe::stop() {
  if (timer_ == sim::kInvalidEventId) return;
  sched_.cancel(timer_);
  timer_ = sim::kInvalidEventId;
}

void RateProbe::tick() {
  const double now_value = cumulative_();
  rates_.push_back((now_value - last_value_) / interval_.sec());
  times_.push_back(sched_.now());
  last_value_ = now_value;
  timer_ = sched_.schedule_in(interval_, [this] { tick(); });
}

GaugeProbe::GaugeProbe(sim::Scheduler& sched, sim::Time interval, std::function<double()> gauge)
    : sched_{sched}, interval_{interval}, gauge_{std::move(gauge)} {
  assert(interval_ > sim::Time::zero());
}

GaugeProbe::~GaugeProbe() { stop(); }

void GaugeProbe::start() {
  if (timer_ != sim::kInvalidEventId) return;
  timer_ = sched_.schedule_in(interval_, [this] { tick(); });
}

void GaugeProbe::stop() {
  if (timer_ == sim::kInvalidEventId) return;
  sched_.cancel(timer_);
  timer_ = sim::kInvalidEventId;
}

void GaugeProbe::tick() {
  samples_.push_back(gauge_());
  timer_ = sched_.schedule_in(interval_, [this] { tick(); });
}

void GaugeProbe::checkpoint(core::ckpt::Io& io) {
  io.seq(samples_, [&](double& x) { io.f64(x); });
  io.opt_event(sched_, timer_, [this] { tick(); });
}

void UtilizationWindow::open(const std::vector<net::Link*>& links) {
  links_ = links;
  busy_at_open_.clear();
  busy_at_open_.reserve(links_.size());
  for (const net::Link* l : links_) busy_at_open_.push_back(l->busy_time());
  opened_at_ = sched_.now();
}

void UtilizationWindow::checkpoint(core::ckpt::Io& io, const std::vector<net::Link*>& links) {
  if (io.loading()) links_ = links;
  io.time(opened_at_);
  io.seq(busy_at_open_, [&](sim::Time& t) { io.time(t); });
}

std::vector<double> UtilizationWindow::close() const {
  std::vector<double> util;
  const sim::Time span = sched_.now() - opened_at_;
  if (span <= sim::Time::zero()) return util;
  util.reserve(links_.size());
  for (std::size_t i = 0; i < links_.size(); ++i) {
    const sim::Time busy = links_[i]->busy_time() - busy_at_open_[i];
    util.push_back(busy.sec() / span.sec());
  }
  return util;
}

}  // namespace xmp::stats
