#include "faults/invariant_checker.hpp"

#include <cmath>
#include <cstdio>

namespace xmp::faults {

InvariantChecker::InvariantChecker(sim::Scheduler& sched, Config cfg)
    : sched_{sched}, cfg_{cfg} {}

InvariantChecker::~InvariantChecker() { stop(); }

void InvariantChecker::watch_network(net::Network& net) { networks_.push_back(&net); }

void InvariantChecker::watch_connection(mptcp::MptcpConnection& conn) {
  connections_.push_back(&conn);
}

void InvariantChecker::watch_sender(const transport::TcpSender& s) { senders_.push_back(&s); }

void InvariantChecker::watch_receiver(const transport::TcpReceiver& r) {
  receivers_.push_back(&r);
}

void InvariantChecker::add_sender_enumerator(
    std::function<void(const SenderVisitor&)> enumerate) {
  enumerators_.push_back(std::move(enumerate));
}

void InvariantChecker::add_connection_enumerator(
    std::function<void(const ConnectionVisitor&)> enumerate) {
  conn_enumerators_.push_back(std::move(enumerate));
}

void InvariantChecker::start() {
  if (timer_ != sim::kInvalidEventId) return;
  if (restored_tick_) {
    timer_ = sched_.arm_at(sim::Time::nanoseconds(restored_tick_->t_ns), restored_tick_->seq,
                           [this] { tick(); });
    restored_tick_.reset();
  } else {
    timer_ = sched_.schedule_in(cfg_.interval, [this] { tick(); });
  }
}

void InvariantChecker::stop() {
  if (timer_ != sim::kInvalidEventId) {
    sched_.cancel(timer_);
    timer_ = sim::kInvalidEventId;
  }
}

void InvariantChecker::tick() {
  timer_ = sim::kInvalidEventId;
  check_now();
  timer_ = sched_.schedule_in(cfg_.interval, [this] { tick(); });
}

void InvariantChecker::fail(const std::string& what) {
  if (violations_.size() >= cfg_.max_violations) return;
  Violation v;
  v.at = sched_.now();
  v.what = what;
  violations_.push_back(std::move(v));
}

void InvariantChecker::check_now() {
  for (net::Network* n : networks_) {
    for (const auto& l : n->links()) check_link(*l);
  }
  for (const transport::TcpSender* s : senders_) check_sender(*s);
  for (const transport::TcpReceiver* r : receivers_) check_receiver(*r);
  for (mptcp::MptcpConnection* c : connections_) check_connection(*c);
  const SenderVisitor visit = [this](const transport::TcpSender& s) { check_sender(s); };
  for (const auto& enumerate : enumerators_) enumerate(visit);
  const ConnectionVisitor visit_conn = [this](const mptcp::MptcpConnection& c) {
    check_connection(c);
  };
  for (const auto& enumerate : conn_enumerators_) enumerate(visit_conn);
}

void InvariantChecker::check_link(const net::Link& l) {
  ++checks_run_;
  // Duplication manufactures packets inside the link, so clones join the
  // offered side; the gray hold buffer is one more place a live packet can
  // legitimately sit. queued() and live_in_flight() are the settled
  // view: reading them starts no transmission.
  const std::uint64_t accounted =
      l.delivered() + l.drops().total() + l.queued() + l.live_in_flight() + l.held();
  if (l.offered() + l.duplicated() != accounted) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "link %u: conservation broken: offered=%llu + duplicated=%llu != "
                  "delivered=%llu + drops=%llu + queued=%zu + in_flight=%zu + held=%zu",
                  l.id(), static_cast<unsigned long long>(l.offered()),
                  static_cast<unsigned long long>(l.duplicated()),
                  static_cast<unsigned long long>(l.delivered()),
                  static_cast<unsigned long long>(l.drops().total()), l.queued(),
                  l.live_in_flight(), l.held());
    fail(buf);
  }
  ++checks_run_;
  if (l.queue().len_packets() > l.queue().capacity()) {
    fail("link " + std::to_string(l.id()) + ": queue over capacity");
  }
  ++checks_run_;
  if (l.queue().len_packets() == 0 && l.queue().len_bytes() != 0) {
    fail("link " + std::to_string(l.id()) + ": empty queue holds bytes");
  }
}

void InvariantChecker::check_sender(const transport::TcpSender& s) {
  ++checks_run_;
  const double w = s.cwnd();
  if (!std::isfinite(w) || w < 1.0 || w > cfg_.cwnd_max) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "flow %u/%u: cwnd out of range: %g", s.flow(), s.subflow(),
                  w);
    fail(buf);
  }
  ++checks_run_;
  if (s.snd_una() > s.snd_nxt()) {
    fail("flow " + std::to_string(s.flow()) + "/" + std::to_string(s.subflow()) +
         ": snd_una > snd_nxt");
  }
}

void InvariantChecker::check_receiver(const transport::TcpReceiver& r) {
  ++checks_run_;
  std::int64_t& last = last_progress_[(std::uint64_t{r.flow()} << 32) | r.subflow()];
  if (r.rcv_nxt() < last) {
    fail("receiver: rcv_nxt moved backwards (duplicate in-order delivery)");
  }
  last = r.rcv_nxt();
}

void InvariantChecker::check_connection(const mptcp::MptcpConnection& c) {
  for (int i = 0; i < c.n_subflows(); ++i) {
    check_sender(c.subflow_sender(i));
    check_receiver(c.subflow_receiver(i));
  }
  ++checks_run_;
  const std::int64_t delivered = c.delivered_bytes();
  std::int64_t& last = last_progress_[(std::uint64_t{c.id()} << 32) | kConnectionMark];
  if (delivered < last || delivered > c.size_bytes()) {
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "connection %u: delivered_bytes non-monotone or over size: %lld (last %lld)",
                  c.id(), static_cast<long long>(delivered), static_cast<long long>(last));
    fail(buf);
  }
  last = delivered;
  ++checks_run_;
  if (c.complete() && delivered != c.size_bytes()) {
    fail("connection " + std::to_string(c.id()) + ": complete but short delivery");
  }
  ++checks_run_;
  if (c.complete() && c.aborted()) {
    fail("connection " + std::to_string(c.id()) + ": both complete and aborted");
  }
}

std::string InvariantChecker::report() const {
  std::string out;
  for (const Violation& v : violations_) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "[t=%.6fs] ", v.at.sec());
    out += buf;
    out += v.what;
    out += '\n';
  }
  return out;
}

void InvariantChecker::checkpoint(core::ckpt::Io& io) {
  // A restored checker that was not started yet still owes its saved tick.
  core::ckpt::EventKey tick{};
  if (restored_tick_) tick = *restored_tick_;
  bool armed = restored_tick_.has_value() ||
               (timer_ != sim::kInvalidEventId && sched_.key_of(timer_, tick));
  io.b(armed);
  if (armed) io.key(sched_, tick);
  if (io.loading()) restored_tick_ = armed ? std::optional{tick} : std::nullopt;
  io.u64(checks_run_);
  io.seq(violations_, [&](Violation& v) {
    io.time(v.at);
    io.str(v.what);
  });
  io.sorted(last_progress_, [&](std::int64_t& mark) { io.i64(mark); });
}

}  // namespace xmp::faults
