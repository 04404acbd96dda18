#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "mptcp/coupling.hpp"
#include "mptcp/path_manager.hpp"
#include "net/network.hpp"
#include "transport/cc/bos.hpp"
#include "transport/receiver.hpp"
#include "transport/segment_source.hpp"
#include "transport/sender.hpp"

namespace xmp::mptcp {

/// Which coupled controller drives the subflows.
enum class Coupling {
  Xmp,            ///< BOS + TraSh (the paper's scheme)
  Lia,            ///< RFC 6356 Linked Increases (baseline)
  Olia,           ///< Opportunistic LIA (paper's future-work reference [19])
  UncoupledBos,   ///< each subflow runs standalone BOS (fairness strawman)
  UncoupledReno,  ///< each subflow runs plain Reno (fairness strawman)
};

/// An MPTCP connection: one logical transfer striped over several subflows,
/// each on its own network path.
///
/// Data is a shared connection-level pool of segments; subflows pull from
/// it as their windows open, so scheduling is implicit "fill the fastest
/// pipe first". Buffers are unlimited (as configured throughout the paper),
/// so connection-level reassembly never throttles subflows.
///
/// Opportunistic reinjection (as in the MPTCP v0.86 stack the paper builds
/// on): when a subflow's retransmission timer fires, the data outstanding
/// on it is duplicated back into the pool so sibling subflows can carry it
/// — a stalled path delays only its own duplicates, not the transfer.
class MptcpConnection : private transport::SenderObserver {
 public:
  struct Config {
    net::FlowId id = 0;
    std::int64_t size_bytes = 0;
    int n_subflows = 2;
    Coupling coupling = Coupling::Xmp;
    transport::BosCc::Params bos;  ///< β (and fallback δ) for XMP subflows
    /// Per-subflow establishment offsets relative to start(); missing
    /// entries mean "immediately" (paper Fig. 6 staggers these).
    std::vector<sim::Time> subflow_start_offsets;
    /// Path selector per subflow index; default hashes (flow id, index).
    std::function<std::uint16_t(int)> path_tag_fn;
    /// Optional extra tuning applied to every subflow's sender config.
    std::function<void(transport::SenderConfig&)> tune_sender;
    /// Declare a subflow dead after this many consecutive RTOs without
    /// forward progress: its unacked data is reinjected onto the surviving
    /// subflows and it is excluded from the coupling aggregates. 0 disables
    /// failover (the pre-fault-injection behavior, and the default so that
    /// fault-free runs are bit-identical to older builds).
    int dead_after_rtos = 0;
    /// Before killing a detected-dead subflow, re-home it onto a fresh path
    /// tag up to this many times across the connection (PathManager). 0
    /// keeps the kill-only behavior (and byte-identical old runs).
    int max_rehomes = 0;
  };

  MptcpConnection(sim::Scheduler& sched, net::Host& src, net::Host& dst, const Config& cfg);

  /// Sharded variant: senders, source pool and start-offset timers live on
  /// the source host's shard scheduler; receivers (delayed-ACK timers) on
  /// the destination's. With the same scheduler twice this is exactly the
  /// serial constructor.
  MptcpConnection(sim::Scheduler& src_sched, sim::Scheduler& dst_sched, net::Host& src,
                  net::Host& dst, const Config& cfg);

  ~MptcpConnection();

  MptcpConnection(const MptcpConnection&) = delete;
  MptcpConnection& operator=(const MptcpConnection&) = delete;

  /// Begin the transfer; subflows start at their configured offsets.
  void start();

  void set_on_complete(std::function<void()> fn) { on_complete_ = std::move(fn); }
  /// Fired once if every subflow dies before the transfer completes.
  void set_on_abort(std::function<void()> fn) { on_abort_ = std::move(fn); }

  [[nodiscard]] bool complete() const { return finished_; }
  /// True once all subflows are dead with data still undelivered.
  [[nodiscard]] bool aborted() const { return aborted_; }
  [[nodiscard]] sim::Time start_time() const { return start_time_; }
  [[nodiscard]] sim::Time finish_time() const { return finish_time_; }
  [[nodiscard]] double goodput_bps() const;
  [[nodiscard]] std::int64_t size_bytes() const { return cfg_.size_bytes; }
  /// Bytes delivered so far (== size_bytes() once complete).
  [[nodiscard]] std::int64_t delivered_bytes() const;
  [[nodiscard]] net::FlowId id() const { return cfg_.id; }

  [[nodiscard]] int n_subflows() const { return static_cast<int>(subflows_.size()); }
  [[nodiscard]] transport::TcpSender& subflow_sender(int i) { return *subflows_.at(i).sender; }
  [[nodiscard]] const transport::TcpSender& subflow_sender(int i) const {
    return *subflows_.at(i).sender;
  }
  [[nodiscard]] transport::TcpReceiver& subflow_receiver(int i) {
    return *subflows_.at(i).receiver;
  }
  [[nodiscard]] const transport::TcpReceiver& subflow_receiver(int i) const {
    return *subflows_.at(i).receiver;
  }
  [[nodiscard]] bool subflow_dead(int i) const { return subflows_.at(i).dead; }
  /// Subflows not (yet) declared dead, whether or not they have started.
  [[nodiscard]] int live_subflows() const;
  /// Subflow re-homes performed so far (<= Config::max_rehomes).
  [[nodiscard]] int rehomes() const { return path_mgr_.rehomes_used(); }

  [[nodiscard]] const CouplingContext& context() const;

  /// Checkpoint connection progress, the shared source pool, the re-home
  /// budget, every subflow's sender/receiver, and pending start-offset
  /// timers. The completion/abort callbacks are not saved — the owner
  /// re-binds them after restore.
  void checkpoint(core::ckpt::Io& io);

 private:
  struct Subflow {
    std::unique_ptr<transport::TcpSender> sender;
    std::unique_ptr<transport::TcpReceiver> receiver;
    bool started = false;
    bool dead = false;  ///< declared failed; excluded from coupling aggregates
  };

  class Context;  // CouplingContext over this connection's subflows

  // transport::SenderObserver
  void on_sender_delivered(const transport::TcpSender& s, std::int64_t segments) override;
  void on_sender_timeout(const transport::TcpSender& s) override;

  void start_subflow(int idx);
  /// Move a stalled subflow onto a fresh path; false when the re-home
  /// budget is spent (caller falls back to kill_subflow).
  bool try_rehome(int idx);
  void kill_subflow(int idx);
  void on_source_done();
  [[nodiscard]] std::unique_ptr<transport::CongestionControl> make_subflow_cc();

  sim::Scheduler& sched_;
  net::Host& src_;
  net::Host& dst_;
  Config cfg_;
  PathManager path_mgr_;
  std::unique_ptr<Context> ctx_;
  std::unique_ptr<transport::FixedSource> source_;
  std::vector<Subflow> subflows_;
  /// Pending start-offset timers, one slot per subflow (invalid once fired);
  /// tracked so checkpoints can re-arm staggered establishment.
  std::vector<sim::EventId> start_timers_;
  sim::Time start_time_ = sim::Time::zero();
  sim::Time finish_time_ = sim::Time::zero();
  bool started_ = false;
  bool finished_ = false;
  bool aborted_ = false;
  std::function<void()> on_complete_;
  std::function<void()> on_abort_;
};

}  // namespace xmp::mptcp
