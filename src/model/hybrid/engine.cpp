#include "model/hybrid/engine.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/checkpoint.hpp"
#include "net/types.hpp"

namespace xmp::model::hybrid {

int Engine::add_link(net::Link* link, double mark_threshold) {
  assert(link != nullptr);
  const auto [it, inserted] = link_index_.try_emplace(link->id(), static_cast<int>(links_.size()));
  if (!inserted) return it->second;
  LinkState ls;
  ls.link = link;
  ls.mark_threshold = mark_threshold;
  ls.capacity_sps =
      static_cast<double>(link->rate_bps()) / 8.0 / static_cast<double>(net::kDataPacketBytes);
  ls.capacity_packets = static_cast<double>(link->queue().capacity());
  ls.last_bytes_sent = link->bytes_sent();
  links_.push_back(ls);
  return it->second;
}

int Engine::add_path(const std::vector<int>& links) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const int li : links) {
    assert(li >= 0 && static_cast<std::size_t>(li) < links_.size());
    h = net::mix64(h ^ static_cast<std::uint64_t>(li));
  }
  std::vector<int>& bucket = path_buckets_[h];
  for (const int pid : bucket) {
    if (paths_[static_cast<std::size_t>(pid)] == links) return pid;
  }
  const int pid = static_cast<int>(paths_.size());
  paths_.push_back(links);
  bucket.push_back(pid);
  return pid;
}

int Engine::add_aggregate(FluidAggregate agg) {
  assert(!agg.subflows.empty());
  for ([[maybe_unused]] const FluidSubflowState& sf : agg.subflows) {
    assert(sf.path >= 0 && static_cast<std::size_t>(sf.path) < paths_.size());
    assert(sf.base_rtt_s > 0.0);
  }
  aggs_.push_back(std::move(agg));
  return static_cast<int>(aggs_.size() - 1);
}

void Engine::start() {
  if (timer_ != sim::kInvalidEventId) return;
  // Re-baseline the odometers so traffic sent before start() (none, in
  // practice) is not mistaken for the first tick's drain or arrivals.
  for (LinkState& ls : links_) {
    ls.last_bytes_sent = ls.link->bytes_sent();
    ls.last_queue_bytes = ls.link->queue().len_bytes();
  }
  timer_ = sched_.schedule_in(cfg_.tick, [this] { tick(); });
}

int Engine::active_fluid_flows() const {
  int n = 0;
  for (const FluidAggregate& a : aggs_) {
    if (a.state == FluidAggregate::State::Fluid) ++n;
  }
  return n;
}

double Engine::fluid_throughput_bps() const {
  const double sec = sched_.now().sec();
  return sec > 0.0 ? stats_.fluid_bytes * 8.0 / sec : 0.0;
}

void Engine::push_coupling(LinkState& ls, std::size_t link_index) {
  // Foreground marking as a duty cycle: the fluid equilibrium backlog sits
  // above K by construction (q* = K + span·p), so the threshold compare
  // would mark every foreground packet; the real queue oscillates and
  // marks only a p fraction of rounds. Re-impose that sawtooth: mark all
  // arrivals during the first p_mark fraction of a fixed cycle, none
  // outside it, with the phase staggered per link so bursts are not
  // fleet-synchronized. The phase derives from stats_.ticks, which is
  // checkpointed, so a restored run resumes the same cycle position.
  const auto cycle = static_cast<std::uint64_t>(cfg_.mark_cycle_ticks);
  const std::uint64_t phase = (stats_.ticks + link_index * 7) % cycle;
  // Trim one tick off the burst: a round is marked when it merely touches
  // the burst, which inflates the experienced probability by ~RTT/cycle.
  const double burst_ticks = std::max(0.0, ls.p_mark * static_cast<double>(cycle) - 1.0);
  const bool burst = ls.p_mark >= 1.0 || static_cast<double>(phase) < burst_ticks;
  ls.link->queue().set_fluid_marking(burst);
  ls.link->set_fluid_share(std::min(cfg_.max_fluid_share, ls.fluid_share));
  ls.link->set_fluid_busy(sim::Time::seconds(ls.fluid_busy_s));
}

void Engine::tick() {
  const double dt = cfg_.tick.sec();
  ++stats_.ticks;
  // The tick reads and re-rates its links: start what is due first, so the
  // queue lengths and byte counts below are the settled ones.
  for (LinkState& ls : links_) ls.link->settle();

  // Pass 0: per-path queueing delay from the state at tick entry. The
  // effective RTT a fluid subflow experiences is its zero-load RTT plus the
  // drain time of every backlog (fluid + real packets) on its path —
  // material here: at K = 10 packets the queueing term is ~120 µs against
  // a ~300 µs base RTT.
  path_delay_s_.assign(paths_.size(), 0.0);
  path_rate_sps_.assign(paths_.size(), 0.0);
  for (std::size_t p = 0; p < paths_.size(); ++p) {
    double d = 0.0;
    for (const int li : paths_[p]) {
      const LinkState& ls = links_[static_cast<std::size_t>(li)];
      d += (ls.q_fluid + static_cast<double>(ls.link->queue().len_packets())) / ls.capacity_sps;
    }
    path_delay_s_[p] = d;
  }

  // Pass 1: fluid arrival rates, accumulated per path then fanned out to
  // links — O(subflows + paths·hops), independent of the flow count per
  // path, which is what makes 10^5 background flows tractable.
  for (const FluidAggregate& agg : aggs_) {
    if (agg.state != FluidAggregate::State::Fluid) continue;
    for (const FluidSubflowState& sf : agg.subflows) {
      const double t_eff = sf.base_rtt_s + path_delay_s_[static_cast<std::size_t>(sf.path)];
      path_rate_sps_[static_cast<std::size_t>(sf.path)] += sf.w / t_eff;
    }
  }
  for (LinkState& ls : links_) ls.arrival_sps = 0.0;
  for (std::size_t p = 0; p < paths_.size(); ++p) {
    const double r = path_rate_sps_[p];
    if (r <= 0.0) continue;
    for (const int li : paths_[p]) links_[static_cast<std::size_t>(li)].arrival_sps += r;
  }

  // Pass 2: per-link fluid queue evolution and marking probability. The
  // capacity available to fluid traffic is what the real transmitter did
  // not use since the last tick (packet → fluid coupling); the resulting
  // backlog and bandwidth share are pushed back into the queue and link
  // (fluid → packet coupling).
  double p_weighted = 0.0;
  double arrival_total = 0.0;
  for (std::size_t li = 0; li < links_.size(); ++li) {
    LinkState& ls = links_[li];
    const std::uint64_t sent = ls.link->bytes_sent();
    const double drained_bytes = static_cast<double>(sent - ls.last_bytes_sent);
    ls.last_bytes_sent = sent;
    // Packet arrivals over the tick = what drained + the queue's growth;
    // measured in bytes so ACKs weigh what they cost, not a full slot. Both
    // measurements are EWMA-smoothed: the raw per-tick values whipsaw with
    // the foreground window bursts (a tick is shorter than an RTT).
    const std::uint64_t qbytes = ls.link->queue().len_bytes();
    const double arrived_bytes =
        drained_bytes + static_cast<double>(static_cast<std::int64_t>(qbytes) -
                                            static_cast<std::int64_t>(ls.last_queue_bytes));
    ls.last_queue_bytes = qbytes;
    ls.pkt_drain_sps +=
        cfg_.rate_ewma * (drained_bytes / dt / static_cast<double>(net::kDataPacketBytes) -
                          ls.pkt_drain_sps);
    ls.pkt_arrival_sps +=
        cfg_.rate_ewma *
        (std::max(0.0, arrived_bytes / dt / static_cast<double>(net::kDataPacketBytes)) -
         ls.pkt_arrival_sps);
    // A work-conserving FIFO shared by both worlds serves proportionally to
    // arrivals under overload and leaves the residual otherwise. Deriving
    // the share from the fluid *throughput* instead would ratchet: the
    // packet drain could never grow past the residual it was last granted.
    const double total_arrival_sps = ls.arrival_sps + ls.pkt_arrival_sps;
    ls.fluid_share = total_arrival_sps > ls.capacity_sps
                         ? ls.arrival_sps / total_arrival_sps
                         : ls.arrival_sps / ls.capacity_sps;
    const double c_fluid = std::max(0.0, ls.capacity_sps - ls.pkt_drain_sps);
    const double backlog = ls.q_fluid + ls.arrival_sps * dt;
    const double served = std::min(backlog, c_fluid * dt);
    ls.q_fluid = std::min(backlog - served, ls.capacity_packets);
    ls.fluid_rate_sps = served / dt;
    // Utilization counts fluid load, but only in the part of the tick the
    // measured packet drain left free: `served` follows the smoothed drain,
    // which lags a burst, and both together must not exceed the tick.
    const double pkt_busy_s = drained_bytes * 8.0 / static_cast<double>(ls.link->rate_bps());
    ls.fluid_busy_s += std::min(served / ls.capacity_sps, std::max(0.0, dt - pkt_busy_s));
    // Per-round marking probability: a linear ramp of width `span` packets
    // above K. In equilibrium q settles at K + span·p*, which makes the
    // emergent p* coincide with the §2 closed form p = S/(C+S).
    const double q_tot = ls.q_fluid + static_cast<double>(ls.link->queue().len_packets());
    const double p_inst =
        std::clamp((q_tot - ls.mark_threshold) / cfg_.mark_span_packets, 0.0, 1.0);
    ls.p_mark += cfg_.mark_ewma * (p_inst - ls.p_mark);
    push_coupling(ls, li);
    p_weighted += ls.p_mark * ls.arrival_sps;
    arrival_total += ls.arrival_sps;
  }
  if (arrival_total > 0.0) stats_.mark_p_accum += p_weighted / arrival_total;

  // Pass 3: per-path end-to-end marking probability and refreshed delay
  // (semi-implicit: window updates see the post-update queues).
  path_p_.assign(paths_.size(), 0.0);
  path_serve_.assign(paths_.size(), 1.0);
  for (std::size_t p = 0; p < paths_.size(); ++p) {
    double keep = 1.0;
    double d = 0.0;
    double f = 1.0;
    for (const int li : paths_[p]) {
      const LinkState& ls = links_[static_cast<std::size_t>(li)];
      keep *= 1.0 - ls.p_mark;
      d += (ls.q_fluid + static_cast<double>(ls.link->queue().len_packets())) / ls.capacity_sps;
      // Fraction of this link's fluid arrivals actually served this tick;
      // below 1 only while the queue overflows (gross overload).
      if (ls.arrival_sps > 0.0) f = std::min(f, std::min(1.0, ls.fluid_rate_sps / ls.arrival_sps));
    }
    path_p_[p] = 1.0 - keep;
    path_delay_s_[p] = d;
    path_serve_[p] = f;
  }

  // Pass 4: per-aggregate dynamics — delivery, TraSh gain coupling (Eq. 9,
  // damped), then the BOS window ODE (Eq. 2 in expectation):
  //   E[Δw per round] = δ(1-P) - (w/β)P.
  for (std::size_t ai = 0; ai < aggs_.size(); ++ai) {
    FluidAggregate& agg = aggs_[ai];
    if (agg.state != FluidAggregate::State::Fluid) continue;

    double y = 0.0;
    double y_served = 0.0;
    double t_min = 1e30;
    for (const FluidSubflowState& sf : agg.subflows) {
      const double t_eff = sf.base_rtt_s + path_delay_s_[static_cast<std::size_t>(sf.path)];
      y += sf.w / t_eff;
      // Delivery is the *served* rate: the offered rate w/T scaled by the
      // path's bottleneck service fraction, so goodput never exceeds what
      // the links actually carried even when windows are floored above the
      // network's capacity.
      y_served += sf.w / t_eff * path_serve_[static_cast<std::size_t>(sf.path)];
      t_min = std::min(t_min, t_eff);
    }
    const double delivered = y_served * dt * static_cast<double>(net::kMssBytes);
    agg.delivered_bytes += delivered;
    stats_.fluid_bytes += delivered;

    if (agg.subflows.size() > 1 && y > 0.0) {
      const double lambda = std::min(1.0, cfg_.trash_relax * dt / t_min);
      for (FluidSubflowState& sf : agg.subflows) {
        const double t_eff = sf.base_rtt_s + path_delay_s_[static_cast<std::size_t>(sf.path)];
        const double x = sf.w / t_eff;
        const double target = t_eff * x / (t_min * y);
        sf.delta =
            std::max(cfg_.delta_floor, sf.delta + lambda * (target - sf.delta));
      }
    }

    for (FluidSubflowState& sf : agg.subflows) {
      const double t_eff = sf.base_rtt_s + path_delay_s_[static_cast<std::size_t>(sf.path)];
      const double big_p = path_p_[static_cast<std::size_t>(sf.path)];
      const double rounds = dt / t_eff;
      const double dw = (sf.delta * (1.0 - big_p) - sf.w / agg.beta * big_p) * rounds;
      sf.w = std::clamp(sf.w + dw, cfg_.min_window, cfg_.max_window);
    }

    if (agg.total_bytes >= 0) {
      const double remaining = static_cast<double>(agg.total_bytes) - agg.delivered_bytes;
      if (remaining <= 0.0) {
        agg.state = FluidAggregate::State::Done;
        ++stats_.fluid_completions;
      } else if (cfg_.promote_bytes > 0 &&
                 remaining <= static_cast<double>(cfg_.promote_bytes)) {
        promote(static_cast<int>(ai));
      }
    }
  }

  timer_ = sched_.schedule_in(cfg_.tick, [this] { tick(); });
}

void Engine::promote(int agg_index) {
  FluidAggregate& agg = aggs_[static_cast<std::size_t>(agg_index)];
  agg.state = FluidAggregate::State::Promoted;
  ++stats_.promotions;
  if (!on_promote_) return;
  PromotionInfo info;
  info.aggregate = agg_index;
  const double remaining = static_cast<double>(agg.total_bytes) - agg.delivered_bytes;
  info.remaining_bytes = std::max<std::int64_t>(1, std::llround(remaining));
  double wsum = 0.0;
  for (const FluidSubflowState& sf : agg.subflows) wsum += sf.w;
  info.cwnd_segments = wsum / static_cast<double>(agg.subflows.size());
  info.src_host = agg.src_host;
  info.dst_host = agg.dst_host;
  on_promote_(info);
}

void Engine::checkpoint(core::ckpt::Io& io) {
  // Structure (links, paths, aggregate shapes) was rebuilt from config
  // before a loading pass — the config fingerprint guarantees it matches.
  if (!io.count(links_.size())) return;
  for (LinkState& ls : links_) {
    io.f64(ls.q_fluid);
    io.f64(ls.p_mark);
    io.f64(ls.fluid_rate_sps);
    io.f64(ls.fluid_busy_s);
    io.f64(ls.fluid_share);
    io.f64(ls.pkt_drain_sps);
    io.f64(ls.pkt_arrival_sps);
    io.u64(ls.last_bytes_sent);
    io.u64(ls.last_queue_bytes);
  }
  if (!io.count(aggs_.size())) return;
  for (FluidAggregate& agg : aggs_) {
    io.u8(agg.state);
    io.f64(agg.delivered_bytes);
    if (!io.count(agg.subflows.size())) return;
    for (FluidSubflowState& sf : agg.subflows) {
      io.f64(sf.w);
      io.f64(sf.delta);
    }
  }
  io.u64(stats_.ticks);
  io.u64(stats_.promotions);
  io.u64(stats_.fluid_completions);
  io.f64(stats_.fluid_bytes);
  io.f64(stats_.mark_p_accum);
  io.opt_event(sched_, timer_, [this] { tick(); });
  if (io.saving()) return;
  // Coupling values are not serialized in the queue/link objects; re-derive
  // them now that stats_.ticks (the duty-cycle phase) is restored.
  for (std::size_t i = 0; i < links_.size(); ++i) push_coupling(links_[i], i);
}

}  // namespace xmp::model::hybrid
