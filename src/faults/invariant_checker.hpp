#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/checkpoint.hpp"
#include "mptcp/connection.hpp"
#include "net/network.hpp"
#include "sim/scheduler.hpp"
#include "transport/receiver.hpp"
#include "transport/sender.hpp"

namespace xmp::faults {

/// One detected invariant violation, with enough context to debug it.
struct Violation {
  sim::Time at = sim::Time::zero();
  std::string what;
};

/// Opt-in runtime invariant probe: periodically sweeps the watched objects
/// and checks properties that must hold in *any* simulation state, faulty
/// or not. Zero-cost when not constructed; when armed it costs one probe
/// event per interval, touching only public accessors (no behavior change).
///
/// Checks per sweep:
///  - per-link packet conservation (duplicated = gray-failure clones,
///    held = gray-failure hold buffer):
///      offered + duplicated == delivered + drops.total() + queued
///                              + live_in_flight + held
///  - queue sanity: length <= capacity; empty in packets => empty in bytes
///  - sender sanity: cwnd finite, within [1 MSS, cwnd_max]; snd_una <= snd_nxt
///  - receiver progress is monotone (rcv_nxt never moves backwards — the
///    "no duplicate in-order delivery" property: a segment is delivered to
///    the application at most once)
///  - connection accounting: delivered_bytes monotone and <= size;
///    complete() => delivered_bytes == size; aborted() and complete() are
///    mutually exclusive
class InvariantChecker {
 public:
  struct Config {
    sim::Time interval = sim::Time::milliseconds(1);
    /// Upper bound on any sender cwnd, in segments (proxy for rwnd — the
    /// sim models unlimited receive buffers, so this guards against
    /// runaway growth / NaN poisoning rather than flow control).
    double cwnd_max = 1e7;
    /// Stop recording after this many violations (the first few are the
    /// informative ones; a broken run would otherwise OOM the log).
    std::size_t max_violations = 64;
  };

  InvariantChecker(sim::Scheduler& sched, Config cfg);
  explicit InvariantChecker(sim::Scheduler& sched) : InvariantChecker(sched, Config{}) {}
  ~InvariantChecker();

  InvariantChecker(const InvariantChecker&) = delete;
  InvariantChecker& operator=(const InvariantChecker&) = delete;

  /// Sweep every link of the network each probe tick.
  void watch_network(net::Network& net);
  /// Sweep the connection, all its subflow senders and receivers.
  void watch_connection(mptcp::MptcpConnection& conn);
  /// Sweep a standalone sender / receiver pair.
  void watch_sender(const transport::TcpSender& s);
  void watch_receiver(const transport::TcpReceiver& r);
  /// Register a callback that visits dynamically created senders (e.g.
  /// FlowManager's active flows) — called once per sweep.
  using SenderVisitor = std::function<void(const transport::TcpSender&)>;
  void add_sender_enumerator(std::function<void(const SenderVisitor&)> enumerate);
  /// Same, for dynamically created MPTCP connections.
  using ConnectionVisitor = std::function<void(const mptcp::MptcpConnection&)>;
  void add_connection_enumerator(std::function<void(const ConnectionVisitor&)> enumerate);

  /// Begin periodic sweeps (idempotent). After a loading checkpoint() the first
  /// tick is the saved one, under its saved key.
  void start();
  void stop();

  /// Run one sweep immediately (also called by the periodic timer).
  void check_now();

  [[nodiscard]] const std::vector<Violation>& violations() const { return violations_; }
  [[nodiscard]] bool clean() const { return violations_.empty(); }
  /// Total individual checks evaluated (for "the probe actually ran").
  [[nodiscard]] std::uint64_t checks_run() const { return checks_run_; }

  /// One line per violation, for test failure messages.
  [[nodiscard]] std::string report() const;

  /// Checkpoint the armed tick's key, the counters, the violations and the
  /// progress marks (in key order). Loading leaves the tick to start(), so
  /// a state that is only consumed arms nothing.
  void checkpoint(core::ckpt::Io& io);

 private:
  void tick();
  void fail(const std::string& what);
  void check_link(const net::Link& l);
  void check_sender(const transport::TcpSender& s);
  void check_receiver(const transport::TcpReceiver& r);
  void check_connection(const mptcp::MptcpConnection& c);

  sim::Scheduler& sched_;
  Config cfg_;
  std::vector<net::Network*> networks_;
  std::vector<mptcp::MptcpConnection*> connections_;
  std::vector<const transport::TcpSender*> senders_;
  std::vector<const transport::TcpReceiver*> receivers_;
  std::vector<std::function<void(const SenderVisitor&)>> enumerators_;
  std::vector<std::function<void(const ConnectionVisitor&)>> conn_enumerators_;

  /// Last observed progress marks, for monotonicity checks, keyed by
  /// (flow id << 32) | subflow for receivers and | kConnectionMark for
  /// connections: ids, unlike addresses, survive a checkpoint.
  static constexpr std::uint64_t kConnectionMark = 0xffff'ffffULL;
  std::unordered_map<std::uint64_t, std::int64_t> last_progress_;

  sim::EventId timer_ = sim::kInvalidEventId;
  /// The restored tick's key, armed by the next start().
  std::optional<core::ckpt::EventKey> restored_tick_;
  std::vector<Violation> violations_;
  std::uint64_t checks_run_ = 0;
};

}  // namespace xmp::faults
