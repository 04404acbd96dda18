#pragma once

// Hybrid fluid/packet engine (DESIGN.md §14).
//
// Long-lived background flows evolve as per-RTT fluid ODEs — the paper's §2
// window dynamics (Eq. 2/3) plus the TraSh gain coupling (Eq. 9) — while
// designated foreground flows remain packet-accurate on the unchanged
// event-driven fast path. The two worlds meet at every link:
//
//   fluid → packet:  each egress queue is driven through marking bursts
//     (Queue::set_fluid_marking) whose duty cycle equals the fluid marking
//     probability — the sawtooth the fluid model averaged out, re-imposed
//     so packet flows are marked in a p fraction of rounds rather than
//     always (the fluid backlog itself sits above K at equilibrium) — and
//     each transmitter is slowed by the fluid bandwidth share
//     (Link::set_fluid_share), computed as proportional FIFO sharing of
//     fluid and measured packet arrivals, so packet flows contend for the
//     link the way they would against real background packets.
//
//   packet → fluid:  every tick measures the bytes the transmitter actually
//     serialized since the previous tick; that drain is subtracted from the
//     capacity available to the fluid aggregate, so fluid flows back off
//     when packet flows ramp up.
//
// The fluid tick runs on the ordinary Scheduler, so determinism, the
// metrics/trace layers and checkpointing (HYBR section) all compose: a
// hybrid run is an ordinary run with one extra periodic event.

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "net/link.hpp"
#include "sim/scheduler.hpp"

namespace xmp::model::hybrid {

/// One fluid subflow: a pinned path through the topology plus the BOS
/// per-round state (window w, TraSh gain δ).
struct FluidSubflowState {
  int path = -1;           ///< index into the engine's deduped path table
  double base_rtt_s = 0.0; ///< zero-load round-trip time of the path
  double w = 10.0;         ///< congestion window, segments
  double delta = 1.0;      ///< TraSh gain δ
};

/// One background flow: a single- or multi-path aggregate of fluid subflows.
struct FluidAggregate {
  enum class State : std::uint8_t {
    Fluid,     ///< evolving as an ODE
    Promoted,  ///< handed to the packet domain for its final bytes
    Done,      ///< drained fully inside the fluid model
  };

  std::vector<FluidSubflowState> subflows;
  double beta = 4.0;             ///< XMP window-reduction factor
  std::int64_t total_bytes = -1; ///< -1 = unbounded (steady-state background)
  double delivered_bytes = 0.0;
  State state = State::Fluid;
  int src_host = -1;  ///< topology host indices, used at promotion
  int dst_host = -1;
};

/// Everything the promotion callback needs to start the packet-domain tail
/// of a finishing fluid flow.
struct PromotionInfo {
  int aggregate = -1;            ///< index into the engine's aggregate table
  std::int64_t remaining_bytes = 0;
  double cwnd_segments = 0.0;    ///< converged fluid window, per subflow
  int src_host = -1;
  int dst_host = -1;
};

/// Cumulative hybrid-engine counters (reported in summaries; checkpointed).
struct EngineStats {
  std::uint64_t ticks = 0;
  std::uint64_t promotions = 0;
  std::uint64_t fluid_completions = 0;  ///< finite flows fully drained as fluid
  double fluid_bytes = 0.0;             ///< bytes delivered by fluid flows
  /// Σ over ticks of the arrival-weighted mean marking probability; divide
  /// by `ticks` for the run's average congestion level.
  double mark_p_accum = 0.0;
};

/// The hybrid engine. Build it after the topology (add_link / add_aggregate),
/// then start() once; every `tick` interval it advances all fluid state by
/// one step and refreshes the per-link coupling terms.
class Engine {
 public:
  struct Config {
    sim::Time tick = sim::Time::microseconds(200);
    /// Marking-probability ramp width (packets): p = clamp((q - K)/span).
    /// In equilibrium the fluid queue settles at K + span·p*, so the
    /// emergent p* matches the §2 closed form exactly; span trades
    /// convergence speed against queue-length bias.
    double mark_span_packets = 4.0;
    /// Period (ticks) of the foreground marking duty cycle: each link marks
    /// all packet arrivals for the first p_mark fraction of every cycle.
    /// A round is marked when it *touches* a burst, so the probability a
    /// foreground flow actually experiences is p + RTT/period; longer
    /// cycles shrink that overshoot (and the burst is trimmed by one tick
    /// for the same reason) at the cost of slower response to load shifts.
    int mark_cycle_ticks = 100;
    /// EWMA weight for the per-tick marking probability. The instantaneous
    /// packet queue length feeds the congestion signal; unsmoothed, its
    /// sawtooth makes the fluid windows chase noise and the link runs
    /// under capacity. The fixed point is unchanged — only convergence is
    /// damped.
    double mark_ewma = 0.25;
    /// EWMA weight for the measured packet drain/arrival rates. A tick is
    /// shorter than a foreground RTT, so the raw per-tick drain whipsaws
    /// between line rate and zero with the window bursts; unsmoothed it
    /// drives the fluid capacity — and with it the fluid windows — into a
    /// limit cycle.
    double rate_ewma = 0.1;
    /// Promote a finite fluid flow to the packet domain when its remaining
    /// bytes drop to this threshold (0 = never promote, finish as fluid).
    std::int64_t promote_bytes = 0;
    double max_fluid_share = 0.95;  ///< keep the packet path schedulable
    double min_window = 2.0;        ///< paper footnote 5: 2-segment floor
    double max_window = 1.0e6;
    double delta_floor = 1.0e-3;    ///< as in model::solve_multipath
    double trash_relax = 0.5;       ///< TraSh damping per RTT
  };

  Engine(sim::Scheduler& sched, const Config& cfg) : sched_{sched}, cfg_{cfg} {}

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Register a link the fluid traffic may traverse; `mark_threshold` is its
  /// queue's ECN threshold K in packets. Idempotent per link — returns the
  /// existing index when called twice.
  int add_link(net::Link* link, double mark_threshold);

  /// Intern a path (hop-ordered engine link indices from add_link); paths
  /// are deduplicated, so 10^5 flows over a k=8 fat tree share a few
  /// thousand path entries and the per-tick cost is O(subflows + paths).
  int add_path(const std::vector<int>& links);

  /// Register a background flow. All paths referenced by its subflows must
  /// already be interned. Returns the aggregate index.
  int add_aggregate(FluidAggregate agg);

  /// Called when a finite fluid flow crosses the promotion threshold. The
  /// callee starts the packet-domain tail (FlowManager::start_large_flow
  /// with PromotionInfo::cwnd_segments as the initial window).
  void set_on_promote(std::function<void(const PromotionInfo&)> fn) {
    on_promote_ = std::move(fn);
  }

  /// Arm the periodic fluid tick (idempotent). Call on a fresh start only —
  /// a loading checkpoint() re-arms the saved timer itself.
  void start();

  [[nodiscard]] const EngineStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t n_links() const { return links_.size(); }
  [[nodiscard]] std::size_t n_aggregates() const { return aggs_.size(); }
  [[nodiscard]] int active_fluid_flows() const;
  [[nodiscard]] const FluidAggregate& aggregate(int i) const {
    return aggs_.at(static_cast<std::size_t>(i));
  }

  /// Per-link fluid state, for validation tests and summaries.
  [[nodiscard]] double link_mark_p(int i) const {
    return links_.at(static_cast<std::size_t>(i)).p_mark;
  }
  [[nodiscard]] double link_fluid_queue(int i) const {
    return links_.at(static_cast<std::size_t>(i)).q_fluid;
  }
  [[nodiscard]] double link_fluid_rate_sps(int i) const {
    return links_.at(static_cast<std::size_t>(i)).fluid_rate_sps;
  }

  /// Aggregate fluid throughput over the whole run so far, bits per second.
  [[nodiscard]] double fluid_throughput_bps() const;

  /// Checkpoint the dynamic fluid state + the tick timer (HYBR section
  /// payload). The static structure (links, paths, aggregate shapes) is
  /// rebuilt from config before restore, exactly like the topology itself.
  void checkpoint(core::ckpt::Io& io);

 private:
  struct LinkState {
    net::Link* link = nullptr;
    double mark_threshold = 0.0;   ///< K, packets
    double capacity_sps = 0.0;     ///< full-size data packets per second
    double capacity_packets = 0.0; ///< queue capacity, packets
    // --- dynamic (checkpointed) ---
    double q_fluid = 0.0;          ///< virtual fluid backlog, packets
    double p_mark = 0.0;           ///< per-round marking probability
    double fluid_rate_sps = 0.0;   ///< fluid throughput through this link
    double fluid_busy_s = 0.0;     ///< transmitter time the fluid load took up
    /// Fluid fraction of the link's service capacity under proportional
    /// FIFO sharing of fluid and measured packet arrivals (see tick()).
    double fluid_share = 0.0;
    double pkt_drain_sps = 0.0;    ///< EWMA-smoothed measured packet drain
    double pkt_arrival_sps = 0.0;  ///< EWMA-smoothed measured packet arrivals
    std::uint64_t last_bytes_sent = 0;  ///< transmitter odometer at last tick
    std::uint64_t last_queue_bytes = 0; ///< egress queue depth at last tick
    // --- per-tick scratch ---
    double arrival_sps = 0.0;
  };

  void tick();
  /// Push the marking duty-cycle phase, bandwidth share and fluid busy time
  /// into the net-layer objects (after every tick and after a restore). The
  /// burst phase is a pure function of stats_.ticks and the link index, so
  /// it checkpoints for free and is staggered across links.
  void push_coupling(LinkState& ls, std::size_t link_index);
  void promote(int agg_index);

  sim::Scheduler& sched_;
  Config cfg_;
  std::vector<LinkState> links_;
  std::unordered_map<std::uint32_t, int> link_index_;  ///< LinkId -> index
  std::vector<std::vector<int>> paths_;
  std::unordered_map<std::uint64_t, std::vector<int>> path_buckets_;  ///< hash -> path ids
  std::vector<FluidAggregate> aggs_;
  std::function<void(const PromotionInfo&)> on_promote_;
  EngineStats stats_;
  sim::EventId timer_ = sim::kInvalidEventId;

  // Per-tick scratch, sized to paths_ (kept hot across ticks).
  std::vector<double> path_delay_s_;
  std::vector<double> path_rate_sps_;
  std::vector<double> path_p_;
  std::vector<double> path_serve_;  ///< min over hops of served/arrival
};

}  // namespace xmp::model::hybrid
