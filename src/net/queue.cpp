#include "net/queue.hpp"

#include <cassert>
#include <cmath>

#include "obs/metrics.hpp"
#include "obs/timeline.hpp"

namespace xmp::net {

void Queue::observe_slow(sim::Time now) {
  auto* tr = obs::tracer();
  auto* m = obs::metrics();
  // Rate limit per queue so a busy link cannot flood the ring; the interval
  // comes from the tracer when present, else a fixed default for metrics.
  const sim::Time interval = tr != nullptr ? tr->config().queue_sample_interval
                                           : sim::Time::microseconds(50);
  if (last_sample_.ns() >= 0 && now - last_sample_ < interval) return;
  last_sample_ = now;
  if (tr != nullptr) {
    tr->queue_sample(now, owner_, static_cast<double>(fifo_.size()),
                     static_cast<double>(bytes_));
  }
  if (m != nullptr) m->queue_depth.add(fifo_.size());
}

void Queue::note_mark_slow(sim::Time now) {
  ++mark_run_;
  if (auto* tr = obs::tracer(); tr != nullptr) {
    tr->ecn_mark(now, owner_, static_cast<double>(fifo_.size()));
  }
  if (auto* m = obs::metrics(); m != nullptr) m->ecn_marks.inc();
}

void Queue::note_gap_slow() {
  if (auto* m = obs::metrics(); m != nullptr) m->mark_runs.add(mark_run_);
  mark_run_ = 0;
}

void Queue::advance_occupancy_clock(sim::Time now) {
  if (now > last_change_) {
    occupancy_area_ = occupancy_area(now);
    last_change_ = now;
  }
}

std::uint64_t Queue::occupancy_area(sim::Time now) const {
  if (now <= last_change_) return occupancy_area_;
  return occupancy_area_ + fifo_.size() * static_cast<std::uint64_t>((now - last_change_).ns());
}

double Queue::mean_occupancy(sim::Time now) const {
  if (now <= sim::Time::zero()) return 0.0;
  return static_cast<double>(occupancy_area(now)) / static_cast<double>(now.ns());
}

bool Queue::dequeue(Packet& out, sim::Time now) {
  if (fifo_.empty()) return false;
  advance_occupancy_clock(now);
  observe(now);
  out = std::move(fifo_.front());
  fifo_.pop_front();
  assert(bytes_ >= out.size_bytes);
  bytes_ -= out.size_bytes;
  on_dequeue(out, now);
  return true;
}

void Queue::checkpoint(core::ckpt::Io& io) {
  // The packets in FIFO order; loading more than the cap fails.
  std::uint64_t n = fifo_.size();
  io.u64(n);
  if (io.saving()) {
    for (Packet p : fifo_) net::checkpoint(io, p);
  } else {
    fifo_.clear();
    if (n > capacity_) io.fail();
    for (std::uint64_t i = 0; i < n && io.ok(); ++i) {
      Packet p;
      net::checkpoint(io, p);
      fifo_.push_back(std::move(p));
    }
  }
  io.u64(bytes_);
  io.u64(counters_.enqueued);
  io.u64(counters_.dropped);
  io.u64(counters_.marked);
  io.b(marking_enabled_);
  io.u64(occupancy_area_);
  io.time(last_change_);
  io.u64(peak_);
  io.time(last_sample_);
  io.u64(mark_run_);
  checkpoint_extra(io);
}

bool Queue::push_tail(Packet&& p, sim::Time now) {
  advance_occupancy_clock(now);
  observe(now);
  if (fifo_.size() >= capacity_) {
    ++counters_.dropped;
    return false;
  }
  bytes_ += p.size_bytes;
  fifo_.push_back(std::move(p));
  if (fifo_.size() > peak_) peak_ = fifo_.size();
  ++counters_.enqueued;
  return true;
}

bool DropTailQueue::enqueue(Packet&& p, sim::Time now) {
  return push_tail(std::move(p), now);
}

bool EcnThresholdQueue::enqueue(Packet&& p, sim::Time now) {
  // Paper §2.1 rule 1: mark the *arriving* packet when the instantaneous
  // queue length is larger than K — or when a hybrid run's fluid engine
  // has this egress inside a marking burst (its duty-cycle rendering of
  // the congestion the fluid background flows would cause here).
  if ((fifo_.size() > k_ || fluid_marking_) && p.ecn == Ecn::Ect && marking_enabled_) {
    p.ecn = Ecn::Ce;
    ++counters_.marked;
    note_mark(now);
  } else if (p.ecn == Ecn::Ect) {
    note_gap();
  }
  return push_tail(std::move(p), now);
}

void RedQueue::set_random01(double (* /*fn*/)(std::uint64_t), std::uint64_t seed) {
  rng_state_ = seed | 1;
}

double RedQueue::random01() {
  // xorshift64*: deterministic, decoupled from workload RNG streams.
  rng_state_ ^= rng_state_ >> 12;
  rng_state_ ^= rng_state_ << 25;
  rng_state_ ^= rng_state_ >> 27;
  return static_cast<double>((rng_state_ * 0x2545f4914f6cdd1dULL) >> 11) * 0x1.0p-53;
}

bool RedQueue::enqueue(Packet&& p, sim::Time now) {
  avg_ = (1.0 - p_.wq) * avg_ + p_.wq * static_cast<double>(fifo_.size());

  bool congested = false;
  // Strict comparison so that min_th == max_th == K with wq = 1 reproduces
  // the paper's "instantaneous length larger than K" rule exactly.
  if (avg_ > p_.max_th) {
    congested = true;
  } else if (avg_ > p_.min_th) {
    const double pb = p_.max_p * (avg_ - p_.min_th) / (p_.max_th - p_.min_th);
    // Floyd's count correction spreads marks more uniformly.
    const double pa =
        pb / std::max(1e-9, 1.0 - static_cast<double>(count_since_mark_) * pb);
    ++count_since_mark_;
    if (random01() < pa) congested = true;
  } else {
    count_since_mark_ = 0;
  }

  if (congested) {
    count_since_mark_ = 0;
    // An ECN blackhole (marking disabled) degrades RED to its drop mode.
    if (p_.ecn && p.ecn == Ecn::Ect && marking_enabled_) {
      p.ecn = Ecn::Ce;
      ++counters_.marked;
      note_mark(now);
    } else {
      ++counters_.dropped;
      return false;
    }
  } else if (p.ecn == Ecn::Ect) {
    note_gap();
  }
  return push_tail(std::move(p), now);
}

void RedQueue::checkpoint_extra(core::ckpt::Io& io) {
  io.f64(avg_);
  io.u64(count_since_mark_);
  io.u64(rng_state_);
}

std::unique_ptr<Queue> make_queue(const QueueConfig& cfg, FifoPool* pool) {
  switch (cfg.kind) {
    case QueueConfig::Kind::DropTail:
      return std::make_unique<DropTailQueue>(cfg.capacity_packets, pool);
    case QueueConfig::Kind::EcnThreshold:
      return std::make_unique<EcnThresholdQueue>(cfg.capacity_packets, cfg.mark_threshold, pool);
    case QueueConfig::Kind::Red:
      return std::make_unique<RedQueue>(cfg.capacity_packets, cfg.red, pool);
  }
  return nullptr;  // unreachable
}

}  // namespace xmp::net
