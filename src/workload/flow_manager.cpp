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

const FlowShape* FlowManager::shape_of(int src_idx) const {
  const auto it = shapes_.find(src_idx);
  return it == shapes_.end() ? nullptr : &it->second;
}

transport::Flow::Config FlowManager::single_config(net::FlowId id, std::int64_t bytes,
                                                   bool large, int src_idx) const {
  transport::Flow::Config fc;
  fc.id = id;
  fc.size_bytes = bytes;
  const SchemeSpec& s = scheme_of(src_idx);
  if (large && s.kind == SchemeSpec::Kind::Dctcp) {
    fc.cc.kind = transport::CcConfig::Kind::Dctcp;
  } else if (large && s.kind == SchemeSpec::Kind::Bos) {
    fc.cc.kind = transport::CcConfig::Kind::Bos;
    fc.cc.bos.beta = s.beta;
  }
  if (large && shape_of(src_idx) != nullptr) {
    fc.path_tag = 0;
    fc.path_tag_explicit = true;
  }
  return fc;
}

mptcp::MptcpConnection::Config FlowManager::multi_config(net::FlowId id, std::int64_t bytes,
                                                         int src_idx) const {
  const SchemeSpec& s = scheme_of(src_idx);
  mptcp::MptcpConnection::Config mc;
  mc.id = id;
  mc.size_bytes = bytes;
  mc.n_subflows = s.subflows;
  mc.bos.beta = s.beta;
  mc.dead_after_rtos = s.dead_after_rtos;
  mc.max_rehomes = s.max_rehomes;
  switch (s.kind) {
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
  if (const FlowShape* shape = shape_of(src_idx); shape != nullptr) {
    mc.subflow_start_offsets = shape->offsets;
    mc.path_tag_fn = [](int i) { return static_cast<std::uint16_t>(i); };
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

  if (!scheme_of(src_idx).multipath()) {
    auto fc = single_config(id, bytes, /*large=*/true, src_idx);
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

  auto mc = multi_config(id, bytes, src_idx);
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
      single_config(records_[rec].id, bytes, /*large=*/false, src_idx));
  flow->set_on_complete(
      [this, rec, done = std::move(on_done)]() mutable { finish_record(rec, done); });
  flow->start();
  smalls_.push_back(Small{rec, std::move(flow)});
}

void FlowManager::checkpoint(core::ckpt::Io& io, int n_hosts,
                             const std::function<net::Host&(int)>& host, const BindFn& bind) {
  io.u64(next_id_);
  std::size_t active = active_large_.load(std::memory_order_relaxed);
  std::size_t aborted = aborted_large_.load(std::memory_order_relaxed);
  io.u64(active);
  io.u64(aborted);
  active_large_.store(active, std::memory_order_relaxed);
  aborted_large_.store(aborted, std::memory_order_relaxed);
  assert(tags_.size() == records_.size());
  std::uint64_t n = records_.size();
  io.u64(n);
  // Within each kind, object order follows record creation order, so the
  // walk below visits singles_/multis_/smalls_ exactly once each, in order.
  std::size_t si = 0;
  std::size_t mi = 0;
  std::size_t smi = 0;
  for (std::size_t i = 0; i < n && io.ok(); ++i) {
    if (io.loading()) {
      records_.emplace_back();
      tags_.emplace_back();
    }
    FlowRecord& r = records_[i];
    io.u32(r.id);
    io.i64(r.src_host);
    io.i64(r.dst_host);
    io.i64(r.bytes);
    io.b(r.large);
    io.time(r.start);
    io.time(r.finish);
    io.b(r.completed);
    io.b(r.aborted);
    CallbackTag& t = tags_[i];
    io.u8(t.kind);
    io.i64(t.a);
    io.i64(t.b);
    io.i64(t.c);
    if (io.loading()) {
      // A CRC-valid payload may name a host this world lacks.
      if (!io.ok() || r.src_host < 0 || r.src_host >= n_hosts || r.dst_host < 0 ||
          r.dst_host >= n_hosts) {
        return io.fail();
      }
      std::function<void()> done = bind && t.kind != CallbackTag::kNone ? bind(t) : nullptr;
      if (r.large && scheme_of(r.src_host).multipath()) {
        auto conn = std::make_unique<mptcp::MptcpConnection>(
            sched_for(r.src_host), sched_for(r.dst_host), host(r.src_host), host(r.dst_host),
            multi_config(r.id, r.bytes, r.src_host));
        const std::size_t slot = multis_.size();
        conn->set_on_complete([this, slot] { finish_multi(slot, /*aborted=*/false); });
        conn->set_on_abort([this, slot] { finish_multi(slot, /*aborted=*/true); });
        multis_.push_back(LargeMulti{i, std::move(conn), std::move(done)});
      } else {
        auto flow = std::make_unique<transport::Flow>(
            sched_for(r.src_host), sched_for(r.dst_host), host(r.src_host), host(r.dst_host),
            single_config(r.id, r.bytes, r.large, r.src_host));
        flow->set_on_complete([this, i, d = std::move(done)]() mutable { finish_record(i, d); });
        if (r.large) {
          singles_.push_back(LargeSingle{i, std::move(flow)});
        } else {
          smalls_.push_back(Small{i, std::move(flow)});
        }
      }
    }
    if (r.large && scheme_of(r.src_host).multipath()) {
      multis_[mi++].conn->checkpoint(io);
    } else if (r.large) {
      singles_[si++].flow->checkpoint(io);
    } else {
      smalls_[smi++].flow->checkpoint(io);
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

void FlowManager::for_each_large_subflow(
    const std::function<void(const FlowRecord&, int, const transport::TcpSender&)>& fn) const {
  for (const auto& s : singles_) fn(records_[s.record], 0, s.flow->sender());
  for (const auto& m : multis_) {
    for (int i = 0; i < m.conn->n_subflows(); ++i) {
      fn(records_[m.record], i, m.conn->subflow_sender(i));
    }
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
