#include "faults/invariant_checker.hpp"

#include <algorithm>
#include <cassert>
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
  // legitimately sit.
  const std::uint64_t accounted = l.delivered() + l.drops().total() +
                                  l.queue().len_packets() + l.live_in_flight() + l.held();
  if (l.offered() + l.duplicated() != accounted) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "link %u: conservation broken: offered=%llu + duplicated=%llu != "
                  "delivered=%llu + drops=%llu + queued=%zu + in_flight=%zu + held=%zu",
                  l.id(), static_cast<unsigned long long>(l.offered()),
                  static_cast<unsigned long long>(l.duplicated()),
                  static_cast<unsigned long long>(l.delivered()),
                  static_cast<unsigned long long>(l.drops().total()), l.queue().len_packets(),
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

void InvariantChecker::save_state(core::ckpt::Saver& s) const {
  const bool armed = timer_ != sim::kInvalidEventId;
  s.b(armed);
  if (armed) {
    sim::Scheduler::PendingKey k;
    [[maybe_unused]] const bool live = sched_.key_of(timer_, k);
    assert(live && "invariant checker timer id stale");
    s.i64(k.t_ns);
    s.u64(k.seq);
  }
  s.u64(checks_run_);
  s.u64(violations_.size());
  for (const Violation& v : violations_) {
    s.time(v.at);
    s.str(v.what);
  }
  // The map is unordered; serialize in key order for stable bytes.
  std::vector<std::uint64_t> keys;
  keys.reserve(last_progress_.size());
  for (const auto& [k, mark] : last_progress_) keys.push_back(k);
  std::sort(keys.begin(), keys.end());
  s.u64(keys.size());
  for (const std::uint64_t k : keys) {
    s.u64(k);
    s.i64(last_progress_.at(k));
  }
}

void InvariantChecker::restore_state(core::ckpt::Loader& l) {
  restored_tick_.reset();
  if (l.b()) {
    sim::Scheduler::PendingKey k;
    k.t_ns = l.i64();
    k.seq = l.u64();
    // A key the restored clock already passed, or never handed out, would
    // arm an event behind the clock.
    if (k.seq >= sched_.next_seq() || sched_.passed(sim::Time::nanoseconds(k.t_ns), k.seq)) {
      l.fail();
    } else {
      restored_tick_ = k;
    }
  }
  checks_run_ = l.u64();
  violations_.clear();
  const std::uint64_t nv = l.u64();
  for (std::uint64_t i = 0; i < nv && l.ok(); ++i) {
    Violation v;
    v.at = l.time();
    v.what = l.str();
    violations_.push_back(std::move(v));
  }
  last_progress_.clear();
  const std::uint64_t nm = l.u64();
  for (std::uint64_t i = 0; i < nm && l.ok(); ++i) {
    const std::uint64_t k = l.u64();
    last_progress_[k] = l.i64();
  }
}

}  // namespace xmp::faults
