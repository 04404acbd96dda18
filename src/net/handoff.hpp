#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "net/fifo.hpp"
#include "net/packet.hpp"
#include "net/types.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace xmp::net {

class Link;

/// One cross-shard packet parked between the moment its boundary link put
/// it on the wire (inside the source shard's epoch) and the barrier that
/// schedules its delivery on the destination shard.
struct RemotePacket {
  Link* link = nullptr;
  Packet pkt;
  std::int64_t deliver_t_ns = 0;  ///< absolute arrival time at the sink
  std::uint64_t link_epoch = 0;   ///< link admin epoch at transmission time
};

/// Handoff buffers for one ordered (src_shard, dst_shard) pair. Strictly
/// single-producer, single-consumer, with no locks or atomics: pushes go to
/// the buffer the fabric's write index selects, and only the source shard's
/// thread pushes, during an epoch; drains read the other buffer, on the
/// destination shard's thread. The epoch barrier that flips the index is
/// the synchronization point, so a destination can drain the previous
/// epoch's packets while its sources already park the next epoch's.
class HandoffChannel {
 public:
  void push(RemotePacket&& rp) { bufs_[*write_].push_back(std::move(rp)); }

  /// Visit the packets `link` parked here, in both buffers: on the wire
  /// and not yet drained. Only while every shard is quiesced.
  template <class F>
  void for_each_parked(const Link* link, F&& f) const {
    for (const auto& buf : bufs_) {
      for (const RemotePacket& rp : buf) {
        if (rp.link == link) f(rp);
      }
    }
  }

 private:
  friend class ShardFabric;
  std::array<std::vector<RemotePacket>, 2> bufs_;
  const std::uint8_t* write_ = nullptr;  ///< the fabric's write index
};

/// The sharded substrate of one experiment: a private Scheduler and FIFO
/// pool per logical shard, the (src, dst) handoff-channel matrix, and the
/// lookahead bound derived from the slowest-coupling pair of shards.
///
/// Logical shards are a property of the *topology* (one per Fat-Tree pod /
/// leaf), never of the worker-thread count, so results cannot depend on how
/// many threads execute the shards.
class ShardFabric {
 public:
  explicit ShardFabric(int n_shards);

  ShardFabric(const ShardFabric&) = delete;
  ShardFabric& operator=(const ShardFabric&) = delete;

  [[nodiscard]] int n_shards() const { return n_; }
  [[nodiscard]] sim::Scheduler& sched(int shard) { return *scheds_.at(static_cast<std::size_t>(shard)); }
  /// Node storage of every packet FIFO the shard pushes and pops; touched
  /// only by the thread running the shard (or with every shard quiesced).
  /// It must outlive the links built on it.
  [[nodiscard]] FifoPool& pool(int shard) { return *pools_.at(static_cast<std::size_t>(shard)); }
  [[nodiscard]] HandoffChannel& channel(int src, int dst) {
    return channels_.at(static_cast<std::size_t>(src * n_ + dst));
  }

  /// Record a boundary link during topology construction: maintains the
  /// minimum cross-shard propagation delay. A zero cross-shard
  /// delay would make the conservative lookahead zero (epochs could never
  /// advance), so it is rejected with a one-line diagnostic and exit 2.
  void note_cross_link(int src_shard, int dst_shard, sim::Time prop_delay, LinkId id);

  /// Make `link`, sent on by `src_shard` into `dst_shard`, a boundary link:
  /// note_cross_link(), wire it to channel (src, dst), and add it to the
  /// source's end-of-epoch sweep. Links are added in link-id order.
  void add_boundary_link(int src_shard, int dst_shard, Link& link);

  /// End-of-epoch sweep of shard `src`, after its run_before(b) and on the
  /// thread that ran it: every boundary link it sends on, in link-id order,
  /// starts the transmissions due before `b`, which parks them in their
  /// channels. A packet started at t >= epoch start arrives at or after
  /// b, so the barrier drain still delivers it in time.
  void settle_boundary(int src, sim::Time b);

  /// Conservative-sync lookahead: the minimum cross-shard propagation
  /// delay. Events a shard executes strictly before `epoch_start +
  /// lookahead()` cannot be affected by any packet another shard sends
  /// during the same epoch.
  [[nodiscard]] sim::Time lookahead() const { return sim::Time::nanoseconds(min_cross_delay_ns_); }
  [[nodiscard]] bool has_cross_links() const {
    return min_cross_delay_ns_ != std::numeric_limits<std::int64_t>::max();
  }

  /// Publish every packet parked so far for draining: the write buffers
  /// become the drain side, and pushes from now on park in the other
  /// buffer. The drain side must be empty (drained) when this is called.
  /// Only while every shard is quiesced.
  void flip();

  /// Packets shard `src` parked since the last flip(), over its outbound
  /// channels. Read on the thread that ran `src`, where they are cached.
  [[nodiscard]] std::uint64_t parked_by(int src) const;

  /// Drain of one destination: schedule every packet on the drain side for
  /// shard `dst` on its scheduler, walking channels (src, dst) in ascending
  /// src order and each channel FIFO. It touches only dst's scheduler, the
  /// receive side of the links feeding dst and the drain side of their
  /// channels, so distinct destinations may drain concurrently, each on the
  /// thread that runs `dst`, even while the sources run the next epoch.
  /// Returns the number of packets handed off.
  std::uint64_t drain_into(int dst);

  /// Sum of events dispatched across all shard schedulers.
  [[nodiscard]] std::uint64_t total_dispatched() const;

 private:
  int n_;
  std::vector<std::unique_ptr<sim::Scheduler>> scheds_;
  std::vector<std::unique_ptr<FifoPool>> pools_;
  std::vector<HandoffChannel> channels_;  ///< n*n, row-major [src][dst]
  std::vector<std::vector<Link*>> boundary_;  ///< by source shard, link-id order
  std::uint8_t write_ = 0;               ///< which buffer pushes go to
  std::int64_t min_cross_delay_ns_ = std::numeric_limits<std::int64_t>::max();
};

}  // namespace xmp::net
