#include "net/handoff.hpp"

#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "net/link.hpp"

namespace xmp::net {

ShardFabric::ShardFabric(int n_shards) : n_{n_shards} {
  scheds_.reserve(static_cast<std::size_t>(n_));
  pools_.reserve(static_cast<std::size_t>(n_));
  for (int i = 0; i < n_; ++i) {
    scheds_.push_back(std::make_unique<sim::Scheduler>());
    pools_.push_back(std::make_unique<FifoPool>());
  }
  channels_.resize(static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_));
  boundary_.resize(static_cast<std::size_t>(n_));
  for (HandoffChannel& ch : channels_) ch.write_ = &write_;
}

void ShardFabric::note_cross_link(int src_shard, int dst_shard, sim::Time prop_delay,
                                  LinkId id) {
  if (prop_delay <= sim::Time::zero()) {
    std::fprintf(stderr,
                 "fatal: cross-shard link %llu (shard %d -> shard %d) has zero propagation "
                 "delay; conservative sync requires lookahead > 0\n",
                 static_cast<unsigned long long>(id), src_shard, dst_shard);
    std::exit(2);
  }
  if (prop_delay.ns() < min_cross_delay_ns_) min_cross_delay_ns_ = prop_delay.ns();
}

void ShardFabric::add_boundary_link(int src_shard, int dst_shard, Link& link) {
  note_cross_link(src_shard, dst_shard, link.prop_delay(), link.id());
  link.set_remote_handoff(&channel(src_shard, dst_shard), &sched(dst_shard), pool(dst_shard));
  boundary_.at(static_cast<std::size_t>(src_shard)).push_back(&link);
}

void ShardFabric::settle_boundary(int src, sim::Time b) {
  for (Link* l : boundary_[static_cast<std::size_t>(src)]) l->settle_before(b);
}

void ShardFabric::flip() {
#ifndef NDEBUG
  for (const HandoffChannel& ch : channels_) assert(ch.bufs_[write_ ^ 1].empty());
#endif
  write_ ^= 1;
}

std::uint64_t ShardFabric::parked_by(int src) const {
  std::uint64_t n = 0;
  for (int dst = 0; dst < n_; ++dst) {
    n += channels_[static_cast<std::size_t>(src * n_ + dst)].bufs_[write_].size();
  }
  return n;
}

std::uint64_t ShardFabric::drain_into(int dst) {
  std::uint64_t handed_off = 0;
  for (int src = 0; src < n_; ++src) {
    if (src == dst) continue;
    auto& items = channel(src, dst).bufs_[write_ ^ 1];
    for (RemotePacket& rp : items) {
      // The link reserves the delivery's key on the destination shard now
      // and arms it once the packet reaches the head of its arrivals.
      rp.link->accept_remote_arrival(std::move(rp.pkt), rp.deliver_t_ns, rp.link_epoch);
    }
    handed_off += items.size();
    items.clear();
  }
  return handed_off;
}

std::uint64_t ShardFabric::total_dispatched() const {
  std::uint64_t sum = 0;
  for (const auto& s : scheds_) sum += s->dispatched();
  return sum;
}

}  // namespace xmp::net
