#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "mptcp/connection.hpp"
#include "net/network.hpp"
#include "transport/flow.hpp"
#include "workload/scheme.hpp"

namespace xmp::workload {

/// Completion record of one transfer.
struct FlowRecord {
  net::FlowId id = 0;
  int src_host = -1;  ///< topology host index
  int dst_host = -1;
  std::int64_t bytes = 0;
  bool large = true;
  sim::Time start = sim::Time::zero();
  sim::Time finish = sim::Time::zero();
  bool completed = false;
  bool aborted = false;  ///< every subflow died with data undelivered

  [[nodiscard]] double goodput_bps() const {
    if (!completed || finish <= start) return 0.0;
    return static_cast<double>(bytes) * 8.0 / (finish - start).sec();
  }
};

/// Why a flow exists. Serialized with the flow's record so a restored run
/// can re-bind the owning workload generator's completion callback (plain
/// std::function callbacks cannot be checkpointed). `kind` identifies the
/// generator hook; `a`/`b`/`c` carry its captured arguments.
struct CallbackTag {
  static constexpr std::uint8_t kNone = 0;
  static constexpr std::uint8_t kPermutation = 1;     ///< (unused)
  static constexpr std::uint8_t kRandom = 2;          ///< a = src, b = dst
  static constexpr std::uint8_t kIncastRequest = 3;   ///< a = job, b = server, c = client
  static constexpr std::uint8_t kIncastResponse = 4;  ///< a = job
  static constexpr std::uint8_t kHybridFg = 5;        ///< a = foreground slot
  static constexpr std::uint8_t kHybridPromoted = 6;  ///< a = fluid flow index

  std::uint8_t kind = kNone;
  std::int64_t a = 0;
  std::int64_t b = 0;
  std::int64_t c = 0;
};

/// A large flow's own transport in place of its manager's SchemeSpec: a
/// pinned testbed's `flow` line (DESIGN.md §13). Subflow i takes path tag
/// i, so it crosses the i-th path of its host pair.
struct FlowShape {
  SchemeSpec scheme;
  std::vector<sim::Time> offsets;  ///< per-subflow start offsets; empty = all at start
};

/// Creates, owns and tracks every transfer of an experiment.
///
/// Large flows follow the configured SchemeSpec (single-path Flow for
/// TCP/DCTCP, MptcpConnection otherwise); small flows are always plain TCP
/// as in the paper. Flow ids are unique across the manager's lifetime.
class FlowManager {
 public:
  /// `id_base` partitions the flow-id space when several managers share a
  /// network (coexistence runs): ids are demux keys at the hosts, so two
  /// managers must never hand out the same id.
  FlowManager(sim::Scheduler& sched, SchemeSpec spec, net::FlowId id_base = 1)
      : sched_{sched}, spec_{spec}, next_id_{id_base} {}

  /// Resolve the shard scheduler owning topology host `i`. When set, new
  /// transfers place their sender on the source host's scheduler and their
  /// receiver on the destination's; unset (testbeds) keeps every endpoint
  /// on the constructor scheduler.
  void set_schedulers(std::function<sim::Scheduler&(int host_idx)> fn) {
    sched_lookup_ = std::move(fn);
  }

  /// Large flows from source host `h` take `shapes[h]` instead of the
  /// manager's SchemeSpec; a restore looks them up the same way.
  void set_shapes(std::map<int, FlowShape> shapes) { shapes_ = std::move(shapes); }

  /// Start a large flow now. `on_done` (optional) fires at completion,
  /// after the record is finalized; `tag` records how to re-create it after
  /// a checkpoint restore. `initial_cwnd` (segments, per subflow for
  /// multipath schemes; 0 keeps the scheme default) seeds the congestion
  /// window — the hybrid engine uses it to carry a promoted fluid flow's
  /// converged window into the packet domain instead of slow-starting from
  /// scratch. It only matters at construction: a checkpoint restore rebuilds
  /// the flow with scheme defaults and then overwrites the live sender
  /// state, cwnd included.
  void start_large_flow(net::Host& src, net::Host& dst, int src_idx, int dst_idx,
                        std::int64_t bytes, std::function<void()> on_done = nullptr,
                        CallbackTag tag = {}, double initial_cwnd = 0.0);

  /// Start a small plain-TCP flow now (incast requests/responses).
  void start_small_flow(net::Host& src, net::Host& dst, int src_idx, int dst_idx,
                        std::int64_t bytes, std::function<void()> on_done = nullptr,
                        CallbackTag tag = {});

  /// Checkpoint every record, tag and live transfer (in creation order).
  /// Loading rebuilds each transfer before restoring it: `host` maps a
  /// topology host index in [0, n_hosts) to the Host object (a saved index
  /// outside that range fails the pass), and `bind` turns a saved
  /// CallbackTag back into the owning generator's completion callback (null
  /// tag -> null callback); saving uses neither. Loading expects a freshly
  /// constructed manager with the same spec/id_base and, where it was set,
  /// set_schedulers() already applied.
  using BindFn = std::function<std::function<void()>(const CallbackTag&)>;
  void checkpoint(core::ckpt::Io& io, int n_hosts, const std::function<net::Host&(int)>& host,
                  const BindFn& bind);

  [[nodiscard]] const std::vector<FlowRecord>& records() const { return records_; }
  [[nodiscard]] const SchemeSpec& scheme() const { return spec_; }
  [[nodiscard]] std::size_t active_large_flows() const {
    return active_large_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t aborted_large_flows() const {
    return aborted_large_.load(std::memory_order_relaxed);
  }
  /// Subflow re-homes performed across all multipath connections.
  [[nodiscard]] std::uint64_t subflow_rehomes() const;

  /// Visit every in-progress multipath connection (invariant probing).
  void for_each_active_connection(
      const std::function<void(mptcp::MptcpConnection&)>& fn) const;

  /// Visit every in-progress large flow's subflow senders (RTT probing).
  void for_each_active_large_sender(
      const std::function<void(const FlowRecord&, const transport::TcpSender&)>& fn) const;

  /// Visit every subflow sender of every large flow, finished or not, with
  /// the subflow's index (testbed series sampling).
  void for_each_large_subflow(
      const std::function<void(const FlowRecord&, int, const transport::TcpSender&)>& fn) const;

  /// Visit every *unfinished* large flow with the bytes it has delivered so
  /// far — used to include partial goodput at the end of a fixed-horizon
  /// run instead of silently censoring slow flows.
  void for_each_partial_large(
      const std::function<void(const FlowRecord&, std::int64_t delivered_bytes)>& fn) const;

 private:
  std::size_t new_record(int src_idx, int dst_idx, std::int64_t bytes, bool large);
  /// The shape of large flows from `src_idx`, or null for the manager's
  /// SchemeSpec.
  [[nodiscard]] const FlowShape* shape_of(int src_idx) const;
  [[nodiscard]] const SchemeSpec& scheme_of(int src_idx) const {
    const FlowShape* shape = shape_of(src_idx);
    return shape != nullptr ? shape->scheme : spec_;
  }
  /// Flow/connection configs derived from the scheme — shared between the
  /// start_* paths and checkpoint reconstruction so both build identical
  /// objects.
  [[nodiscard]] transport::Flow::Config single_config(net::FlowId id, std::int64_t bytes,
                                                      bool large, int src_idx) const;
  [[nodiscard]] mptcp::MptcpConnection::Config multi_config(net::FlowId id, std::int64_t bytes,
                                                            int src_idx) const;
  void finish_record(std::size_t idx, std::function<void()>& on_done);
  void finish_multi(std::size_t slot, bool aborted);
  /// Local simulated time: the scheduler currently dispatching (sharded
  /// completions land on the endpoint's shard), else the constructor's.
  [[nodiscard]] sim::Time now_time() const;
  [[nodiscard]] sim::Scheduler& sched_for(int host_idx) const {
    return sched_lookup_ ? sched_lookup_(host_idx) : sched_;
  }

  sim::Scheduler& sched_;
  SchemeSpec spec_;
  net::FlowId next_id_;
  std::function<sim::Scheduler&(int)> sched_lookup_;
  std::map<int, FlowShape> shapes_;  ///< by source host
  // Concurrent finishes on different shards touch disjoint records_ rows but
  // share these tallies; with several shards new_record/push_back only run
  // on the control strand (at start or at a barrier), and a one-shard run
  // has one thread, so the vector never reallocates under a parallel
  // reader.
  std::atomic<std::size_t> active_large_{0};
  std::atomic<std::size_t> aborted_large_{0};

  struct LargeSingle {
    std::size_t record;
    std::unique_ptr<transport::Flow> flow;
  };
  struct LargeMulti {
    std::size_t record;
    std::unique_ptr<mptcp::MptcpConnection> conn;
    std::function<void()> on_done;
  };
  struct Small {
    std::size_t record;
    std::unique_ptr<transport::Flow> flow;
  };
  std::vector<LargeSingle> singles_;
  std::vector<LargeMulti> multis_;
  std::vector<Small> smalls_;
  std::vector<FlowRecord> records_;
  std::vector<CallbackTag> tags_;  ///< parallel to records_
};

}  // namespace xmp::workload
