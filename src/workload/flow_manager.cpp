#include "workload/flow_manager.hpp"

#include <cassert>
#include <string>

#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"

namespace xmp::workload {

namespace {

void note_flow_done(const FlowRecord& rec, bool aborted) {
  auto* tr = obs::tracer();
  auto* m = obs::metrics();
  if (tr == nullptr && m == nullptr) return;
  if (aborted) {
    if (tr != nullptr) tr->flow_abort(rec.finish, rec.id);
    return;
  }
  const double fct_us = (rec.finish - rec.start).us();
  const double goodput_mbps =
      fct_us > 0.0 ? static_cast<double>(rec.bytes) * 8.0 / fct_us : 0.0;
  if (tr != nullptr) tr->flow_done(rec.finish, rec.id, fct_us, goodput_mbps);
  if (m != nullptr) m->fct_us.add(static_cast<std::uint64_t>(fct_us));
}

}  // namespace

sim::Time FlowManager::now_time() const {
  sim::Scheduler* cs = sim::current_scheduler();
  return cs != nullptr ? cs->now() : sched_.now();
}

std::size_t FlowManager::new_record(int src_idx, int dst_idx, std::int64_t bytes, bool large) {
  FlowRecord rec;
  rec.id = next_id_++;
  rec.src_host = src_idx;
  rec.dst_host = dst_idx;
  rec.bytes = bytes;
  rec.large = large;
  rec.start = now_time();
  records_.push_back(rec);
  if (auto* tr = obs::tracer(); tr != nullptr) [[unlikely]] {
    tr->flow_start(rec.start, rec.id, bytes, large);
    tr->name_flow(rec.id, "flow " + std::to_string(rec.id) + " h" +
                              std::to_string(src_idx) + "->h" + std::to_string(dst_idx) +
                              (large ? " (large)" : " (small)"));
  }
  return records_.size() - 1;
}

void FlowManager::finish_record(std::size_t idx, std::function<void()>& on_done) {
  FlowRecord& rec = records_[idx];
  rec.finish = now_time();
  rec.completed = true;
  if (rec.large) {
    [[maybe_unused]] const std::size_t prev =
        active_large_.fetch_sub(1, std::memory_order_relaxed);
    assert(prev > 0);
  }
  note_flow_done(rec, /*aborted=*/false);
  if (on_done) on_done();
}

transport::Flow::Config FlowManager::single_config(net::FlowId id, std::int64_t bytes,
                                                   bool large) const {
  transport::Flow::Config fc;
  fc.id = id;
  fc.size_bytes = bytes;
  fc.cc.kind = large && spec_.kind == SchemeSpec::Kind::Dctcp ? transport::CcConfig::Kind::Dctcp
                                                              : transport::CcConfig::Kind::Reno;
  return fc;
}

mptcp::MptcpConnection::Config FlowManager::multi_config(net::FlowId id,
                                                         std::int64_t bytes) const {
  mptcp::MptcpConnection::Config mc;
  mc.id = id;
  mc.size_bytes = bytes;
  mc.n_subflows = spec_.subflows;
  mc.bos.beta = spec_.beta;
  mc.dead_after_rtos = spec_.dead_after_rtos;
  mc.max_rehomes = spec_.max_rehomes;
  switch (spec_.kind) {
    case SchemeSpec::Kind::Xmp:
      mc.coupling = mptcp::Coupling::Xmp;
      break;
    case SchemeSpec::Kind::Lia:
      mc.coupling = mptcp::Coupling::Lia;
      break;
    case SchemeSpec::Kind::Olia:
      mc.coupling = mptcp::Coupling::Olia;
      break;
    default:
      assert(false && "unexpected multipath scheme");
  }
  return mc;
}

void FlowManager::start_large_flow(net::Host& src, net::Host& dst, int src_idx, int dst_idx,
                                   std::int64_t bytes, std::function<void()> on_done,
                                   CallbackTag tag, double initial_cwnd) {
  const std::size_t rec = new_record(src_idx, dst_idx, bytes, /*large=*/true);
  tags_.push_back(tag);
  const net::FlowId id = records_[rec].id;
  active_large_.fetch_add(1, std::memory_order_relaxed);

  if (!spec_.multipath()) {
    auto fc = single_config(id, bytes, /*large=*/true);
    if (initial_cwnd > 0.0) {
      fc.tune_sender = [initial_cwnd](transport::SenderConfig& sc) {
        sc.initial_cwnd = initial_cwnd;
      };
    }
    auto flow =
        std::make_unique<transport::Flow>(sched_for(src_idx), sched_for(dst_idx), src, dst, fc);
    flow->set_on_complete(
        [this, rec, done = std::move(on_done)]() mutable { finish_record(rec, done); });
    flow->start();
    singles_.push_back(LargeSingle{rec, std::move(flow)});
    return;
  }

  auto mc = multi_config(id, bytes);
  if (initial_cwnd > 0.0) {
    mc.tune_sender = [initial_cwnd](transport::SenderConfig& sc) {
      sc.initial_cwnd = initial_cwnd;
    };
  }
  auto conn = std::make_unique<mptcp::MptcpConnection>(sched_for(src_idx), sched_for(dst_idx),
                                                       src, dst, mc);
  const std::size_t slot = multis_.size();  // stable: multis_ never shrinks
  multis_.push_back(LargeMulti{rec, std::move(conn), std::move(on_done)});
  mptcp::MptcpConnection& c = *multis_[slot].conn;
  c.set_on_complete([this, slot] { finish_multi(slot, /*aborted=*/false); });
  c.set_on_abort([this, slot] { finish_multi(slot, /*aborted=*/true); });
  c.start();
}

void FlowManager::finish_multi(std::size_t slot, bool aborted) {
  LargeMulti& m = multis_.at(slot);
  FlowRecord& rec = records_[m.record];
  rec.finish = now_time();
  rec.completed = !aborted;
  rec.aborted = aborted;
  [[maybe_unused]] const std::size_t prev =
      active_large_.fetch_sub(1, std::memory_order_relaxed);
  assert(prev > 0);
  if (aborted) aborted_large_.fetch_add(1, std::memory_order_relaxed);
  note_flow_done(rec, aborted);
  // The caller's completion hook fires for aborts too: an aborted transfer
  // is *over* (workload round-robins must not wait for it forever).
  if (m.on_done) m.on_done();
}

void FlowManager::start_small_flow(net::Host& src, net::Host& dst, int src_idx, int dst_idx,
                                   std::int64_t bytes, std::function<void()> on_done,
                                   CallbackTag tag) {
  const std::size_t rec = new_record(src_idx, dst_idx, bytes, /*large=*/false);
  tags_.push_back(tag);

  // Small flows always use plain TCP.
  auto flow = std::make_unique<transport::Flow>(
      sched_for(src_idx), sched_for(dst_idx), src, dst,
      single_config(records_[rec].id, bytes, /*large=*/false));
  flow->set_on_complete(
      [this, rec, done = std::move(on_done)]() mutable { finish_record(rec, done); });
  flow->start();
  smalls_.push_back(Small{rec, std::move(flow)});
}

void FlowManager::save_state(core::ckpt::Saver& s) const {
  s.u64(next_id_);
  s.u64(active_large_.load(std::memory_order_relaxed));
  s.u64(aborted_large_.load(std::memory_order_relaxed));
  assert(tags_.size() == records_.size());
  s.u64(records_.size());
  // Within each kind, object order follows record creation order, so the
  // walk below visits singles_/multis_/smalls_ exactly once each, in order.
  std::size_t si = 0;
  std::size_t mi = 0;
  std::size_t smi = 0;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const FlowRecord& r = records_[i];
    s.u32(r.id);
    s.i64(r.src_host);
    s.i64(r.dst_host);
    s.i64(r.bytes);
    s.b(r.large);
    s.time(r.start);
    s.time(r.finish);
    s.b(r.completed);
    s.b(r.aborted);
    const CallbackTag& t = tags_[i];
    s.u8(t.kind);
    s.i64(t.a);
    s.i64(t.b);
    s.i64(t.c);
    if (r.large && spec_.multipath()) {
      multis_[mi++].conn->save_state(s);
    } else if (r.large) {
      singles_[si++].flow->save_state(s);
    } else {
      smalls_[smi++].flow->save_state(s);
    }
  }
}

void FlowManager::restore_state(core::ckpt::Loader& l, int n_hosts,
                                const std::function<net::Host&(int)>& host, const BindFn& bind) {
  next_id_ = static_cast<net::FlowId>(l.u64());
  active_large_.store(l.u64(), std::memory_order_relaxed);
  aborted_large_.store(l.u64(), std::memory_order_relaxed);
  const std::uint64_t n = l.u64();
  for (std::uint64_t i = 0; i < n && l.ok(); ++i) {
    FlowRecord rec;
    rec.id = l.u32();
    const std::int64_t src = l.i64();
    const std::int64_t dst = l.i64();
    if (src < 0 || src >= n_hosts || dst < 0 || dst >= n_hosts) {
      l.fail();  // a CRC-valid payload naming a host this world lacks
      return;
    }
    rec.src_host = static_cast<int>(src);
    rec.dst_host = static_cast<int>(dst);
    rec.bytes = l.i64();
    rec.large = l.b();
    rec.start = l.time();
    rec.finish = l.time();
    rec.completed = l.b();
    rec.aborted = l.b();
    CallbackTag tag;
    tag.kind = l.u8();
    tag.a = l.i64();
    tag.b = l.i64();
    tag.c = l.i64();
    records_.push_back(rec);
    tags_.push_back(tag);
    const std::size_t ridx = records_.size() - 1;
    std::function<void()> done = bind && tag.kind != CallbackTag::kNone ? bind(tag) : nullptr;

    if (rec.large && spec_.multipath()) {
      auto conn = std::make_unique<mptcp::MptcpConnection>(
          sched_for(rec.src_host), sched_for(rec.dst_host), host(rec.src_host),
          host(rec.dst_host), multi_config(rec.id, rec.bytes));
      const std::size_t slot = multis_.size();
      multis_.push_back(LargeMulti{ridx, std::move(conn), std::move(done)});
      mptcp::MptcpConnection& c = *multis_[slot].conn;
      c.set_on_complete([this, slot] { finish_multi(slot, /*aborted=*/false); });
      c.set_on_abort([this, slot] { finish_multi(slot, /*aborted=*/true); });
      c.restore_state(l);
    } else {
      auto flow = std::make_unique<transport::Flow>(
          sched_for(rec.src_host), sched_for(rec.dst_host), host(rec.src_host),
          host(rec.dst_host), single_config(rec.id, rec.bytes, rec.large));
      flow->set_on_complete(
          [this, ridx, d = std::move(done)]() mutable { finish_record(ridx, d); });
      flow->restore_state(l);
      if (rec.large) {
        singles_.push_back(LargeSingle{ridx, std::move(flow)});
      } else {
        smalls_.push_back(Small{ridx, std::move(flow)});
      }
    }
  }
}

void FlowManager::for_each_partial_large(
    const std::function<void(const FlowRecord&, std::int64_t)>& fn) const {
  for (const auto& s : singles_) {
    if (!records_[s.record].completed) fn(records_[s.record], s.flow->delivered_bytes());
  }
  for (const auto& m : multis_) {
    if (!records_[m.record].completed) fn(records_[m.record], m.conn->delivered_bytes());
  }
}

void FlowManager::for_each_active_large_sender(
    const std::function<void(const FlowRecord&, const transport::TcpSender&)>& fn) const {
  for (const auto& s : singles_) {
    if (!records_[s.record].completed) fn(records_[s.record], s.flow->sender());
  }
  for (const auto& m : multis_) {
    if (records_[m.record].completed || records_[m.record].aborted) continue;
    for (int i = 0; i < m.conn->n_subflows(); ++i) {
      if (!m.conn->subflow_dead(i)) fn(records_[m.record], m.conn->subflow_sender(i));
    }
  }
}

std::uint64_t FlowManager::subflow_rehomes() const {
  std::uint64_t n = 0;
  for (const auto& m : multis_) n += static_cast<std::uint64_t>(m.conn->rehomes());
  return n;
}

void FlowManager::for_each_active_connection(
    const std::function<void(mptcp::MptcpConnection&)>& fn) const {
  for (const auto& m : multis_) {
    if (!records_[m.record].completed && !records_[m.record].aborted) fn(*m.conn);
  }
}

}  // namespace xmp::workload
