#pragma once

#include <functional>
#include <memory>

#include "net/network.hpp"
#include "transport/cc/bos.hpp"
#include "transport/cc/dctcp.hpp"
#include "transport/cc/reno.hpp"
#include "transport/receiver.hpp"
#include "transport/sender.hpp"

namespace xmp::transport {

/// Single-path congestion-control scheme selection.
struct CcConfig {
  enum class Kind { Reno, Dctcp, Bos };
  Kind kind = Kind::Reno;
  DctcpCc::Params dctcp;
  BosCc::Params bos;
};

/// Instantiate the policy object for a scheme.
[[nodiscard]] std::unique_ptr<CongestionControl> make_cc(const CcConfig& cfg);

/// Default sender knobs implied by a scheme (ECN capability, cwnd floor).
[[nodiscard]] SenderConfig sender_config_for(const CcConfig& cfg);

/// Default receiver knobs implied by a scheme (ECN echo codec).
[[nodiscard]] ReceiverConfig receiver_config_for(const CcConfig& cfg);

/// A single-path one-way transfer: source pool + sender at `src`, receiver
/// at `dst`. This is the paper's "small flow" as well as the DCTCP/TCP
/// large-flow baseline.
class Flow {
 public:
  struct Config {
    net::FlowId id = 0;
    std::int64_t size_bytes = 0;
    CcConfig cc;
    /// Path selector; by default derived from the flow id (per-flow ECMP).
    std::uint16_t path_tag = 0;
    bool path_tag_explicit = false;
    /// Optional overrides applied on top of the scheme defaults.
    std::function<void(SenderConfig&)> tune_sender;
    std::function<void(ReceiverConfig&)> tune_receiver;
  };

  Flow(sim::Scheduler& sched, net::Host& src, net::Host& dst, const Config& cfg);

  /// Sharded variant: the sender (and its timers) live on the source
  /// host's shard scheduler, the receiver (and its delayed-ACK timer) on
  /// the destination's. With the same scheduler twice this is exactly the
  /// serial constructor.
  Flow(sim::Scheduler& src_sched, sim::Scheduler& dst_sched, net::Host& src, net::Host& dst,
       const Config& cfg);

  Flow(const Flow&) = delete;
  Flow& operator=(const Flow&) = delete;

  /// Begin transmission now.
  void start();

  void set_on_complete(std::function<void()> fn) { on_complete_ = std::move(fn); }

  [[nodiscard]] bool complete() const { return finished_; }
  [[nodiscard]] sim::Time start_time() const { return start_time_; }
  [[nodiscard]] sim::Time finish_time() const { return finish_time_; }
  /// Average goodput over the flow lifetime, bits per second (0 until done).
  [[nodiscard]] double goodput_bps() const;
  [[nodiscard]] std::int64_t size_bytes() const { return size_bytes_; }
  /// Bytes delivered so far (== size_bytes() once complete).
  [[nodiscard]] std::int64_t delivered_bytes() const;

  /// Checkpoint progress plus the source pool, sender, and receiver. The
  /// completion callback is not saved — the owner (FlowManager) re-binds it
  /// after restore from its own record of why the flow exists.
  void checkpoint(core::ckpt::Io& io);

  [[nodiscard]] TcpSender& sender() { return *sender_; }
  [[nodiscard]] const TcpSender& sender() const { return *sender_; }
  [[nodiscard]] TcpReceiver& receiver() { return *receiver_; }
  [[nodiscard]] net::FlowId id() const { return id_; }

 private:
  void on_source_done();

  sim::Scheduler& sched_;
  net::FlowId id_;
  std::int64_t size_bytes_;
  std::unique_ptr<FixedSource> source_;
  std::unique_ptr<TcpSender> sender_;
  std::unique_ptr<TcpReceiver> receiver_;
  sim::Time start_time_ = sim::Time::zero();
  sim::Time finish_time_ = sim::Time::zero();
  bool started_ = false;
  bool finished_ = false;
  std::function<void()> on_complete_;
};

}  // namespace xmp::transport
