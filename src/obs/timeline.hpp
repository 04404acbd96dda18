#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace xmp::obs {

/// What one timeline event describes. Every kind belongs to exactly one
/// filter category (see cat:: below and TimelineTracer::category_of).
enum class EventKind : std::uint8_t {
  Cwnd,         ///< per-subflow congestion window update (a = segments)
  Srtt,         ///< per-subflow smoothed RTT update (a = µs)
  Gain,         ///< per-subflow δ-gain refresh at round end (a = δ)
  EcnMark,      ///< queue applied a CE mark (id = link, a = qlen seen)
  QueueSample,  ///< activity-driven queue sample (id = link, a = packets, b = bytes)
  LinkState,    ///< administrative transition (id = link, aux: 1 = down, 0 = up)
  Fault,        ///< fault-plan event applied (aux = FaultEvent::Kind, id = target)
  SubflowDead,  ///< subflow declared dead (a = surviving subflows)
  Reinjection,  ///< outstanding data refunded to the pool (a = segments)
  FlowStart,    ///< transfer created (a = size bytes, aux: 1 = large)
  FlowDone,     ///< transfer completed (a = FCT µs, b = goodput Mbps)
  FlowAbort,    ///< every subflow died with data undelivered
  Rto,          ///< retransmission timeout fired (a = backoff exponent)
  Drop,         ///< packet dropped at a link (id = link, aux = cause)
  SchedSample,  ///< scheduler sample (a = pending, b = dispatched)
  Reroute,      ///< routing table converged on a port-liveness change
                ///< (id = link, a = switch id, b = alive ports after, aux: 1 = down)
  PathRehome,   ///< MPTCP subflow re-homed onto a fresh path
                ///< (id = flow, a = new path tag, aux = rehome attempt)
  JobSpawn,     ///< sweep orchestrator forked a job child (id = job, a = attempt)
  JobOutcome,   ///< job attempt finished (id = job, aux = JobOutcomeCode,
                ///< a = attempt, b = exit code or signal number)
  JobRetry,     ///< failed job scheduled for respawn (id = job, a = attempt,
                ///< b = backoff seconds)
  JobExhausted, ///< job gave up after its last retry (id = job, a = attempts)
  ShardEpoch,   ///< the engine released an epoch (id = epoch index,
                ///< a = epoch end µs)
  ShardBarrier, ///< the engine completed a barrier (id = epoch index,
                ///< a = handoff packets drained at this barrier)
  CkptWrite,    ///< checkpoint published (id = checkpoint seq, a = bytes)
  CkptRestore,  ///< run resumed from a checkpoint (id = checkpoint seq,
                ///< a = bytes, b = checkpoint sim-time µs)
  Impair,       ///< gray-failure impairment applied (id = link, aux = ImpairKind)
};
/// The highest EventKind; a restored event above it is malformed.
inline constexpr EventKind kLastEventKind = EventKind::Impair;

/// Which gray-failure effect an EventKind::Impair records (aux field).
enum class ImpairKind : std::uint16_t { Delay = 0, Reorder = 1, Duplicate = 2, Overmark = 3 };

/// How one orchestrated job attempt ended (TimelineEvent::aux for
/// EventKind::JobOutcome).
enum class JobOutcomeCode : std::uint16_t {
  Ok = 0,             ///< exit 0 with a parseable result file
  Exit = 1,           ///< non-zero exit code (b = code)
  Signal = 2,         ///< killed by a signal other than the watchdog (b = signo)
  Timeout = 3,        ///< watchdog SIGKILL after --job-timeout
  MissingResult = 4,  ///< exit 0 but no/unparseable result file
};

/// Filter categories (--trace-filter). A category can cover several kinds.
namespace cat {
inline constexpr std::uint32_t kCwnd = 1u << 0;
inline constexpr std::uint32_t kSrtt = 1u << 1;
inline constexpr std::uint32_t kGain = 1u << 2;
inline constexpr std::uint32_t kEcn = 1u << 3;
inline constexpr std::uint32_t kQueue = 1u << 4;
inline constexpr std::uint32_t kFault = 1u << 5;  ///< faults + link state + deaths
inline constexpr std::uint32_t kFlow = 1u << 6;   ///< start/done/abort + reinjection
inline constexpr std::uint32_t kDrop = 1u << 7;   ///< drops + RTOs
inline constexpr std::uint32_t kSched = 1u << 8;
inline constexpr std::uint32_t kRoute = 1u << 9;    ///< reroutes + path re-homes
inline constexpr std::uint32_t kHarness = 1u << 10; ///< sweep-job lifecycle (orchestrator)
inline constexpr std::uint32_t kAll = 0xffffffffu;
}  // namespace cat

/// Drop causes carried in TimelineEvent::aux for EventKind::Drop.
enum class DropCause : std::uint16_t { Queue = 0, AdminDown = 1, Fault = 2, Corrupt = 3 };

/// One fixed-size record in the tracer ring. 32 bytes; no pointers, no
/// ownership — safe to snapshot and export after the simulation ends.
struct TimelineEvent {
  std::int64_t t_ns = 0;
  double a = 0.0;
  double b = 0.0;
  std::uint32_t id = 0;  ///< flow id, link id, or fault target (per kind)
  EventKind kind = EventKind::Cwnd;
  std::uint8_t subflow = 0;
  std::uint16_t aux = 0;
};

/// Records typed sim-time events into a preallocated ring and exports them
/// as CSV (trace::CsvWriter) or Chrome trace-event JSON loadable in
/// Perfetto / chrome://tracing, with per-flow, per-subflow and per-link
/// track naming.
///
/// The tracer is passive: it never schedules simulator events and never
/// mutates simulation state, so enabling it cannot perturb a run (the
/// queue/scheduler samples piggyback on existing activity). When the ring
/// fills, the oldest events are overwritten and counted in dropped() — a
/// trace is always the *tail* of the run.
class TimelineTracer {
 public:
  struct Config {
    std::size_t capacity = 1u << 18;           ///< events (32 B each)
    std::uint32_t categories = cat::kAll;      ///< cat:: bitmask
    /// Minimum spacing between QueueSample events of one queue. Samples are
    /// taken on enqueue/dequeue activity, so an idle queue emits nothing.
    sim::Time queue_sample_interval = sim::Time::microseconds(50);
    /// Emit a SchedSample every this many dispatches (power of two).
    std::uint64_t sched_sample_stride = 1u << 16;
  };

  explicit TimelineTracer(const Config& cfg);
  TimelineTracer() : TimelineTracer(Config{}) {}

  TimelineTracer(const TimelineTracer&) = delete;
  TimelineTracer& operator=(const TimelineTracer&) = delete;

  [[nodiscard]] bool wants(std::uint32_t category) const {
    return (cfg_.categories & category) != 0;
  }
  [[nodiscard]] const Config& config() const { return cfg_; }
  /// Mask applied to Scheduler::dispatched() to decide when to sample.
  [[nodiscard]] std::uint64_t sched_sample_mask() const { return cfg_.sched_sample_stride - 1; }

  // --- hot-path recorders (all: gate on category, then one ring write) ---
  void cwnd(sim::Time t, std::uint32_t flow, std::uint8_t sf, double segments) {
    record(EventKind::Cwnd, cat::kCwnd, t, flow, sf, 0, segments, 0.0);
  }
  void srtt(sim::Time t, std::uint32_t flow, std::uint8_t sf, double us) {
    record(EventKind::Srtt, cat::kSrtt, t, flow, sf, 0, us, 0.0);
  }
  void gain(sim::Time t, std::uint32_t flow, std::uint8_t sf, double delta) {
    record(EventKind::Gain, cat::kGain, t, flow, sf, 0, delta, 0.0);
  }
  void ecn_mark(sim::Time t, std::uint32_t link, double qlen) {
    record(EventKind::EcnMark, cat::kEcn, t, link, 0, 0, qlen, 0.0);
  }
  void queue_sample(sim::Time t, std::uint32_t link, double packets, double bytes) {
    record(EventKind::QueueSample, cat::kQueue, t, link, 0, 0, packets, bytes);
  }
  void link_state(sim::Time t, std::uint32_t link, bool down) {
    record(EventKind::LinkState, cat::kFault, t, link, 0, down ? 1 : 0, 0.0, 0.0);
  }
  void fault(sim::Time t, std::uint16_t kind, std::uint32_t target) {
    record(EventKind::Fault, cat::kFault, t, target, 0, kind, 0.0, 0.0);
  }
  void subflow_dead(sim::Time t, std::uint32_t flow, std::uint8_t sf, int survivors) {
    record(EventKind::SubflowDead, cat::kFault, t, flow, sf, 0,
           static_cast<double>(survivors), 0.0);
  }
  void reinjection(sim::Time t, std::uint32_t flow, std::uint8_t sf, std::int64_t segments) {
    record(EventKind::Reinjection, cat::kFlow, t, flow, sf, 0,
           static_cast<double>(segments), 0.0);
  }
  void flow_start(sim::Time t, std::uint32_t flow, std::int64_t bytes, bool large) {
    record(EventKind::FlowStart, cat::kFlow, t, flow, 0, large ? 1 : 0,
           static_cast<double>(bytes), 0.0);
  }
  void flow_done(sim::Time t, std::uint32_t flow, double fct_us, double goodput_mbps) {
    record(EventKind::FlowDone, cat::kFlow, t, flow, 0, 0, fct_us, goodput_mbps);
  }
  void flow_abort(sim::Time t, std::uint32_t flow) {
    record(EventKind::FlowAbort, cat::kFlow, t, flow, 0, 0, 0.0, 0.0);
  }
  void rto(sim::Time t, std::uint32_t flow, std::uint8_t sf, int backoff) {
    record(EventKind::Rto, cat::kDrop, t, flow, sf, 0, static_cast<double>(backoff), 0.0);
  }
  void drop(sim::Time t, std::uint32_t link, DropCause cause) {
    record(EventKind::Drop, cat::kDrop, t, link, 0, static_cast<std::uint16_t>(cause), 0.0,
           0.0);
  }
  void impair(sim::Time t, std::uint32_t link, ImpairKind kind) {
    record(EventKind::Impair, cat::kFault, t, link, 0, static_cast<std::uint16_t>(kind), 0.0,
           0.0);
  }
  void sched_sample(sim::Time t, std::size_t pending, std::uint64_t dispatched) {
    record(EventKind::SchedSample, cat::kSched, t, 0, 0, 0, static_cast<double>(pending),
           static_cast<double>(dispatched));
  }
  void reroute(sim::Time t, std::uint32_t link, std::uint32_t switch_id, int alive_after,
               bool down) {
    record(EventKind::Reroute, cat::kRoute, t, link, 0, down ? 1 : 0,
           static_cast<double>(switch_id), static_cast<double>(alive_after));
  }
  void path_rehome(sim::Time t, std::uint32_t flow, std::uint8_t sf, std::uint16_t new_tag,
                   int attempt) {
    record(EventKind::PathRehome, cat::kRoute, t, flow, sf,
           static_cast<std::uint16_t>(attempt), static_cast<double>(new_tag), 0.0);
  }
  // Job-lifecycle events from the sweep orchestrator. `t` is wall-clock
  // time since the campaign started (the harness has no simulation clock).
  void job_spawn(sim::Time t, std::uint32_t job, int attempt) {
    record(EventKind::JobSpawn, cat::kHarness, t, job, 0, 0, static_cast<double>(attempt), 0.0);
  }
  void job_outcome(sim::Time t, std::uint32_t job, JobOutcomeCode code, int attempt, int detail) {
    record(EventKind::JobOutcome, cat::kHarness, t, job, 0,
           static_cast<std::uint16_t>(code), static_cast<double>(attempt),
           static_cast<double>(detail));
  }
  void job_retry(sim::Time t, std::uint32_t job, int attempt, double backoff_s) {
    record(EventKind::JobRetry, cat::kHarness, t, job, 0, 0, static_cast<double>(attempt),
           backoff_s);
  }
  void job_exhausted(sim::Time t, std::uint32_t job, int attempts) {
    record(EventKind::JobExhausted, cat::kHarness, t, job, 0, 0,
           static_cast<double>(attempts), 0.0);
  }
  // Sharded-engine epoch lifecycle (t is simulated time of the boundary).
  void shard_epoch(sim::Time t, std::uint32_t epoch, double end_us) {
    record(EventKind::ShardEpoch, cat::kHarness, t, epoch, 0, 0, end_us, 0.0);
  }
  void shard_barrier(sim::Time t, std::uint32_t epoch, std::uint64_t drained) {
    record(EventKind::ShardBarrier, cat::kHarness, t, epoch, 0, 0,
           static_cast<double>(drained), 0.0);
  }
  // Checkpoint lifecycle. ckpt_write carries sim time of the snapshot;
  // ckpt_restore is recorded by whoever resumes (orchestrator: wall clock).
  void ckpt_write(sim::Time t, std::uint64_t seq, std::uint64_t bytes) {
    record(EventKind::CkptWrite, cat::kHarness, t, static_cast<std::uint32_t>(seq), 0, 0,
           static_cast<double>(bytes), 0.0);
  }
  void ckpt_restore(sim::Time t, std::uint64_t seq, std::uint64_t bytes, double ckpt_us) {
    record(EventKind::CkptRestore, cat::kHarness, t, static_cast<std::uint32_t>(seq), 0, 0,
           static_cast<double>(bytes), ckpt_us);
  }

  // --- track naming (setup path; last call per id wins) ---
  void name_flow(std::uint32_t flow, std::string name) { flow_names_[flow] = std::move(name); }
  void name_link(std::uint32_t link, std::string name) { link_names_[link] = std::move(name); }

  // --- inspection ---
  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] std::size_t capacity() const { return cfg_.capacity; }
  /// Events overwritten because the ring was full.
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// Visit the retained events oldest-first.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const std::size_t start = (head_ + cfg_.capacity - count_) % cfg_.capacity;
    for (std::size_t i = 0; i < count_; ++i) {
      fn(ring_[(start + i) % cfg_.capacity]);
    }
  }

  /// Replace the ring contents with a checkpointed event stream (oldest
  /// first, already filtered by the saved run's category mask). The ring is
  /// rebuilt in canonical layout — events at [0, n), head at n % capacity —
  /// so a restored tracer appends exactly where the saved one would have.
  /// Excess events beyond capacity keep only the tail, as the live ring
  /// would have.
  void restore_snapshot(const std::vector<TimelineEvent>& events, std::uint64_t dropped) {
    dropped_ = dropped;
    const std::size_t n = events.size();
    const std::size_t keep = n > cfg_.capacity ? cfg_.capacity : n;
    dropped_ += n - keep;
    for (std::size_t i = 0; i < keep; ++i) ring_[i] = events[n - keep + i];
    count_ = keep;
    head_ = keep % cfg_.capacity;
  }

  // --- export ---
  /// Flat CSV: t_ns,kind,id,subflow,aux,a,b — one row per event. Both
  /// exports return whether the file was published.
  bool export_csv(const std::string& path) const;
  /// Chrome trace-event JSON (the Perfetto-compatible legacy format):
  /// counter tracks for cwnd/srtt/gain (per flow process, one series per
  /// subflow), qlen (per link process) and the scheduler; instant events
  /// for marks, drops, faults, deaths and flow lifecycle.
  bool export_chrome_json(const std::string& path) const;

  /// Deterministically merge several tracers' retained events into one
  /// tracer (for export). Each input stream is time-ordered on its own;
  /// the merge orders by (t_ns, stream index, position within stream), so
  /// the result depends only on stream contents and order — never on how
  /// many threads produced them. Track-name maps are unioned (later
  /// streams win on collision). The result has capacity == total events
  /// and category mask kAll, so nothing is re-filtered or overwritten, and
  /// its dropped() is the sum of the streams' drop counts.
  [[nodiscard]] static std::unique_ptr<TimelineTracer> merged(
      const std::vector<const TimelineTracer*>& streams);

  [[nodiscard]] static const char* kind_name(EventKind k);
  /// Category of a kind (exactly one bit of cat::).
  [[nodiscard]] static std::uint32_t category_of(EventKind k);
  /// Parse a --trace-filter list ("cwnd,gain,queue"); known names are the
  /// lowercase cat:: constants plus "all". Returns false (and sets *error)
  /// on an unknown token; an empty string means kAll.
  [[nodiscard]] static bool parse_filter(const std::string& filter, std::uint32_t& mask,
                                         std::string* error);

 private:
  void record(EventKind kind, std::uint32_t category, sim::Time t, std::uint32_t id,
              std::uint8_t subflow, std::uint16_t aux, double a, double b) {
    if ((cfg_.categories & category) == 0) return;
    TimelineEvent& e = ring_[head_];
    e.t_ns = t.ns();
    e.a = a;
    e.b = b;
    e.id = id;
    e.kind = kind;
    e.subflow = subflow;
    e.aux = aux;
    head_ = head_ + 1 == cfg_.capacity ? 0 : head_ + 1;
    if (count_ < cfg_.capacity) {
      ++count_;
    } else {
      ++dropped_;  // overwrote the oldest event
    }
  }

  /// The i-th retained event, oldest first (i < size()).
  [[nodiscard]] const TimelineEvent& at(std::size_t i) const {
    return ring_[(head_ + cfg_.capacity - count_ + i) % cfg_.capacity];
  }

  Config cfg_;
  std::vector<TimelineEvent> ring_;
  std::size_t head_ = 0;   ///< next write position
  std::size_t count_ = 0;  ///< live events (<= capacity)
  std::uint64_t dropped_ = 0;
  std::map<std::uint32_t, std::string> flow_names_;
  std::map<std::uint32_t, std::string> link_names_;
};

}  // namespace xmp::obs
