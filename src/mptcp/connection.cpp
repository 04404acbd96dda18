#include "mptcp/connection.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "mptcp/lia_cc.hpp"
#include "mptcp/olia_cc.hpp"
#include "mptcp/xmp_cc.hpp"
#include "net/types.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "transport/cc/reno.hpp"
#include "transport/flow.hpp"

namespace xmp::mptcp {

/// Aggregates over the connection's *started* subflows with RTT samples.
class MptcpConnection::Context final : public CouplingContext {
 public:
  explicit Context(const MptcpConnection& conn) : conn_{conn} {}

  double total_rate() const override {
    double sum = 0.0;
    for_each_measured([&](const transport::TcpSender& s) { sum += s.instant_rate(); });
    return sum;
  }

  sim::Time min_srtt() const override {
    sim::Time best = sim::Time::infinity();
    for_each_measured([&](const transport::TcpSender& s) {
      if (s.srtt() < best) best = s.srtt();
    });
    return best == sim::Time::infinity() ? sim::Time::zero() : best;
  }

  double total_cwnd() const override {
    double sum = 0.0;
    for (const auto& sf : conn_.subflows_) {
      if (sf.started && !sf.dead) sum += sf.sender->cwnd();
    }
    return sum;
  }

  double lia_alpha() const override {
    // RFC 6356: alpha = cwnd_total * max_r(cwnd_r/rtt_r^2) / (Σ_r cwnd_r/rtt_r)^2
    double max_term = 0.0;
    double denom = 0.0;
    int measured = 0;
    for_each_measured([&](const transport::TcpSender& s) {
      const double rtt = s.srtt().sec();
      max_term = std::max(max_term, s.cwnd() / (rtt * rtt));
      denom += s.cwnd() / rtt;
      ++measured;
    });
    if (measured == 0 || denom <= 0.0) return 1.0;
    return total_cwnd() * max_term / (denom * denom);
  }

  int subflow_count() const override {
    int n = 0;
    for (const auto& sf : conn_.subflows_) {
      if (sf.started && !sf.dead) ++n;
    }
    return n;
  }

  double olia_alpha(const transport::TcpSender& self) const override {
    // Partition paths into B (best quality ℓ²/rtt) and M (largest cwnd);
    // "collected" = B \ M. (Khalili et al. §3.)
    constexpr double kEps = 1e-9;
    double best_quality = -1.0;
    double max_cwnd = -1.0;
    for_each_measured([&](const transport::TcpSender& s) {
      const auto* olia = dynamic_cast<const OliaCc*>(&s.cc());
      if (olia == nullptr) return;
      best_quality = std::max(best_quality, olia->quality() / s.srtt().sec());
      max_cwnd = std::max(max_cwnd, s.cwnd());
    });
    if (best_quality < 0.0) return 0.0;

    int n_collected = 0;
    int n_max = 0;
    bool self_collected = false;
    bool self_max = false;
    for_each_measured([&](const transport::TcpSender& s) {
      const auto* olia = dynamic_cast<const OliaCc*>(&s.cc());
      if (olia == nullptr) return;
      const bool in_best = olia->quality() / s.srtt().sec() >= best_quality - kEps;
      const bool in_max = s.cwnd() >= max_cwnd - kEps;
      const bool collected = in_best && !in_max;
      if (collected) ++n_collected;
      if (in_max) ++n_max;
      if (&s == &self) {
        self_collected = collected;
        self_max = in_max;
      }
    });
    const int n = std::max(subflow_count(), 1);
    if (self_collected && n_collected > 0) return 1.0 / (n * n_collected);
    if (self_max && n_collected > 0 && n_max > 0) return -1.0 / (n * n_max);
    return 0.0;
  }

 private:
  /// Dead subflows are excluded so their stale cwnd/rate never pollutes
  /// the TraSh y_s / T_s aggregates (a dead path must not attract shifted
  /// traffic nor depress the survivors' δ).
  template <typename Fn>
  void for_each_measured(Fn&& fn) const {
    for (const auto& sf : conn_.subflows_) {
      if (sf.started && !sf.dead && sf.sender->has_rtt_sample()) fn(*sf.sender);
    }
  }

  const MptcpConnection& conn_;
};

MptcpConnection::MptcpConnection(sim::Scheduler& sched, net::Host& src, net::Host& dst,
                                 const Config& cfg)
    : MptcpConnection{sched, sched, src, dst, cfg} {}

MptcpConnection::MptcpConnection(sim::Scheduler& src_sched, sim::Scheduler& dst_sched,
                                 net::Host& src, net::Host& dst, const Config& cfg)
    : sched_{src_sched},
      src_{src},
      dst_{dst},
      cfg_{cfg},
      path_mgr_{PathManager::Config{cfg.max_rehomes}} {
  assert(cfg_.n_subflows >= 1);
  ctx_ = std::make_unique<Context>(*this);
  source_ = std::make_unique<transport::FixedSource>(net::segments_for_bytes(cfg_.size_bytes),
                                                     [this] { on_source_done(); });

  for (int i = 0; i < cfg_.n_subflows; ++i) {
    const std::uint16_t tag =
        cfg_.path_tag_fn
            ? cfg_.path_tag_fn(i)
            : static_cast<std::uint16_t>(
                  net::mix64((static_cast<std::uint64_t>(cfg_.id) << 16) ^ static_cast<std::uint64_t>(i)));

    const bool ecn_scheme =
        cfg_.coupling == Coupling::Xmp || cfg_.coupling == Coupling::UncoupledBos;

    transport::SenderConfig sc;
    sc.ecn_capable = ecn_scheme;
    sc.min_cwnd = ecn_scheme ? 2.0 : 1.0;
    if (cfg_.tune_sender) cfg_.tune_sender(sc);

    transport::ReceiverConfig rc;
    rc.codec = ecn_scheme ? transport::EcnCodec::XmpCounter : transport::EcnCodec::None;

    Subflow sf;
    sf.receiver = std::make_unique<transport::TcpReceiver>(
        dst_sched, dst_, src_.id(), cfg_.id, static_cast<std::uint16_t>(i), tag, rc);
    sf.sender = std::make_unique<transport::TcpSender>(
        src_sched, src_, dst_.id(), cfg_.id, static_cast<std::uint16_t>(i), tag, *source_,
        make_subflow_cc(), sc);
    // Reinjection needs siblings; death detection works even solo.
    if (cfg_.n_subflows > 1 || cfg_.dead_after_rtos > 0) sf.sender->set_observer(this);
    subflows_.push_back(std::move(sf));
  }
  start_timers_.assign(subflows_.size(), sim::kInvalidEventId);
}

MptcpConnection::~MptcpConnection() = default;

const CouplingContext& MptcpConnection::context() const { return *ctx_; }

std::unique_ptr<transport::CongestionControl> MptcpConnection::make_subflow_cc() {
  switch (cfg_.coupling) {
    case Coupling::Xmp:
      return std::make_unique<XmpCc>(*ctx_, cfg_.bos);
    case Coupling::Lia:
      return std::make_unique<LiaCc>(*ctx_);
    case Coupling::Olia:
      return std::make_unique<OliaCc>(*ctx_);
    case Coupling::UncoupledBos:
      return std::make_unique<transport::BosCc>(cfg_.bos);
    case Coupling::UncoupledReno:
      return std::make_unique<transport::RenoCc>();
  }
  return nullptr;  // unreachable
}

void MptcpConnection::start() {
  if (started_) return;
  started_ = true;
  start_time_ = sched_.now();
  for (int i = 0; i < static_cast<int>(subflows_.size()); ++i) {
    sim::Time offset = sim::Time::zero();
    if (i < static_cast<int>(cfg_.subflow_start_offsets.size())) {
      offset = cfg_.subflow_start_offsets[i];
    }
    if (offset == sim::Time::zero()) {
      start_subflow(i);
    } else {
      start_timers_[static_cast<std::size_t>(i)] = sched_.schedule_in(offset, [this, i] {
        start_timers_[static_cast<std::size_t>(i)] = sim::kInvalidEventId;
        start_subflow(i);
      });
    }
  }
}

void MptcpConnection::start_subflow(int idx) {
  if (finished_ || aborted_) return;  // transfer already completed or torn down
  Subflow& sf = subflows_.at(idx);
  if (sf.started || sf.dead) return;
  sf.started = true;
  sf.sender->start();
}

void MptcpConnection::on_sender_delivered(const transport::TcpSender& /*s*/,
                                          std::int64_t /*segments*/) {}

void MptcpConnection::on_sender_timeout(const transport::TcpSender& s) {
  if (finished_ || aborted_) return;
  // Opportunistic reinjection: on the *first* timeout of a stall, put the
  // stalled subflow's outstanding segments back into the pool and wake the
  // siblings. Further backoffs of the same stall must not refund again;
  // go-back-N blocks new grants for the stalled subflow, so this single
  // refund covers everything it will ever have outstanding.
  if (subflows_.size() > 1 && s.rto_backoff() == 1) {
    const std::int64_t stuck = s.inflight();
    if (stuck > 0) {
      source_->refund(stuck);
      if (auto* tr = obs::tracer(); tr != nullptr) [[unlikely]] {
        tr->reinjection(sched_.now(), cfg_.id, static_cast<std::uint8_t>(s.subflow()), stuck);
      }
      if (auto* m = obs::metrics(); m != nullptr) [[unlikely]] m->reinjections.inc();
      for (auto& sf : subflows_) {
        if (sf.started && !sf.dead && sf.sender.get() != &s) sf.sender->pump();
      }
    }
  }
  if (cfg_.dead_after_rtos > 0 && s.rto_backoff() >= cfg_.dead_after_rtos) {
    for (int i = 0; i < static_cast<int>(subflows_.size()); ++i) {
      if (subflows_[i].sender.get() == &s) {
        // Re-homing beats killing while the budget lasts: the path died,
        // not the endpoint, so move the subflow to a surviving path.
        if (!try_rehome(i)) kill_subflow(i);
        break;
      }
    }
  }
}

bool MptcpConnection::try_rehome(int idx) {
  Subflow& sf = subflows_.at(idx);
  if (sf.dead || finished_ || aborted_) return false;
  std::vector<std::uint16_t> in_use;
  for (int i = 0; i < static_cast<int>(subflows_.size()); ++i) {
    if (i != idx && !subflows_[i].dead) in_use.push_back(subflows_[i].sender->path_tag());
  }
  std::uint16_t tag = 0;
  if (!path_mgr_.pick_new_tag(cfg_.id, idx, sf.sender->path_tag(), in_use, tag)) return false;
  // The receiver acks on the tag of the data it last received, so acks
  // follow the data onto the new path without a write to its side.
  sf.sender->rehome(tag);
  if (auto* tr = obs::tracer(); tr != nullptr) [[unlikely]] {
    tr->path_rehome(sched_.now(), cfg_.id, static_cast<std::uint8_t>(idx), tag,
                    path_mgr_.rehomes_used());
  }
  if (auto* m = obs::metrics(); m != nullptr) [[unlikely]] m->path_rehomes.inc();
  return true;
}

void MptcpConnection::kill_subflow(int idx) {
  Subflow& sf = subflows_.at(idx);
  if (sf.dead || finished_ || aborted_) return;
  sf.dead = true;
  sf.sender->halt();
  if (auto* tr = obs::tracer(); tr != nullptr) [[unlikely]] {
    tr->subflow_dead(sched_.now(), cfg_.id, static_cast<std::uint8_t>(idx), live_subflows());
  }
  if (auto* m = obs::metrics(); m != nullptr) [[unlikely]] m->subflow_deaths.inc();
  if (live_subflows() == 0) {
    // Nothing left to carry the data: tear the connection down instead of
    // retrying into the void forever.
    aborted_ = true;
    finish_time_ = sched_.now();
    if (on_abort_) on_abort_();
    return;
  }
  // Wake the survivors: the first-backoff refund already returned this
  // subflow's unacked segments to the pool, they just need takers.
  for (auto& other : subflows_) {
    if (other.started && !other.dead) other.sender->pump();
  }
}

int MptcpConnection::live_subflows() const {
  int n = 0;
  for (const auto& sf : subflows_) {
    if (!sf.dead) ++n;
  }
  return n;
}

void MptcpConnection::on_source_done() {
  if (aborted_) return;
  finished_ = true;
  finish_time_ = sched_.now();
  if (on_complete_) on_complete_();
}

void MptcpConnection::checkpoint(core::ckpt::Io& io) {
  io.b(started_);
  io.b(finished_);
  io.b(aborted_);
  io.time(start_time_);
  io.time(finish_time_);
  path_mgr_.checkpoint(io);
  source_->checkpoint(io);
  if (!io.count(subflows_.size())) return;
  for (std::size_t i = 0; i < subflows_.size() && io.ok(); ++i) {
    Subflow& sf = subflows_[i];
    io.b(sf.started);
    io.b(sf.dead);
    const int idx = static_cast<int>(i);
    io.opt_event(sched_, start_timers_[i], [this, idx] {
      start_timers_[static_cast<std::size_t>(idx)] = sim::kInvalidEventId;
      start_subflow(idx);
    });
    sf.sender->checkpoint(io);
    sf.receiver->checkpoint(io);
  }
}

std::int64_t MptcpConnection::delivered_bytes() const {
  if (finished_) return cfg_.size_bytes;
  const std::int64_t bytes = source_->delivered() * net::kMssBytes;
  return bytes < cfg_.size_bytes ? bytes : cfg_.size_bytes;
}

double MptcpConnection::goodput_bps() const {
  if (!finished_ || finish_time_ <= start_time_) return 0.0;
  return static_cast<double>(cfg_.size_bytes) * 8.0 / (finish_time_ - start_time_).sec();
}

}  // namespace xmp::mptcp
