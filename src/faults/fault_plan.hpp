#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/types.hpp"
#include "sim/time.hpp"

namespace xmp::faults {

/// Stochastic per-link loss / corruption process. All randomness is drawn
/// from a per-link xoshiro stream seeded by (fault seed, link id), so a
/// (plan, seed) pair reproduces bit-identically regardless of traffic.
struct LossModel {
  enum class Kind : std::uint8_t {
    Bernoulli,       ///< i.i.d. loss with probability `p_loss`
    GilbertElliott,  ///< two-state bursty channel (good/bad)
  };

  Kind kind = Kind::Bernoulli;
  double p_loss = 0.0;     ///< Bernoulli: per-packet loss probability
  double p_corrupt = 0.0;  ///< survivors are corrupted with this probability

  // Gilbert–Elliott parameters (per-packet state transitions).
  double p_good_bad = 0.0;  ///< P(good -> bad)
  double p_bad_good = 0.1;  ///< P(bad -> good)
  double loss_good = 0.0;   ///< loss probability while in the good state
  double loss_bad = 0.5;    ///< loss probability while in the bad state

  [[nodiscard]] static LossModel bernoulli(double p, double corrupt = 0.0);
  [[nodiscard]] static LossModel gilbert(double p_gb, double p_bg, double loss_bad,
                                         double loss_good = 0.0, double corrupt = 0.0);
};

/// Parameters of one gray-failure (degraded-but-not-dead) effect. Which
/// fields matter depends on the FaultEvent kind; unused fields keep their
/// defaults so plans hash and compare deterministically.
struct GrayModel {
  /// DegradeStart: residual capacity fraction in (0, 1) — a slow-drain port
  /// serializing at factor x nominal rate.
  double factor = 1.0;
  /// DelayStart: base latency added to every packet at link entry.
  sim::Time delay = sim::Time::zero();
  /// DelayStart: per-packet uniform jitter bound on top of `delay`, drawn
  /// from the link's fault RNG stream (0 = constant inflation).
  sim::Time jitter = sim::Time::zero();
  /// Reorder/Duplicate/EcnOvermark: per-packet probability of the effect.
  double p = 0.0;
  /// ReorderStart: how long a selected packet is held back while later
  /// packets overtake it.
  sim::Time hold = sim::Time::zero();
};

/// One primitive fault event. Composite directives (flap, `until=`) are
/// expanded into primitives by the FaultPlan builder / parser.
struct FaultEvent {
  enum class Kind : std::uint8_t {
    LinkDown,
    LinkUp,
    SwitchDown,  ///< downs every link attached to the switch (both directions)
    SwitchUp,
    HostDown,  ///< downs the host's uplink and its ingress links
    HostUp,
    LossStart,  ///< install `loss` on the link
    LossStop,
    EcnBlackholeStart,  ///< switch keeps forwarding but stops CE-marking
    EcnBlackholeStop,
    // --- gray failures: the link degrades without going down ---
    DegradeStart,  ///< slow drain: capacity scaled by gray.factor
    DegradeStop,
    DelayStart,  ///< every packet held gray.delay (+ jitter) at link entry
    DelayStop,
    ReorderStart,  ///< a gray.p fraction held gray.hold, so later packets pass
    ReorderStop,
    DuplicateStart,  ///< a gray.p fraction cloned (both copies transmitted)
    DuplicateStop,
    EcnOvermarkStart,  ///< forced CE on a gray.p fraction of ECT survivors
    EcnOvermarkStop,
  };

  Kind kind = Kind::LinkDown;
  sim::Time at = sim::Time::zero();
  /// Link id for Link*/Loss*/gray events; index into Network::switches()
  /// for Switch*/EcnBlackhole* events; index into Network::hosts() for Host*.
  int target = 0;
  LossModel loss;  ///< LossStart only
  GrayModel gray;  ///< Degrade/Delay/Reorder/Duplicate/EcnOvermark Start only

  [[nodiscard]] static const char* kind_name(Kind k);
};

/// Declarative, seedable schedule of fault events — the single source of
/// truth for what goes wrong during a run. Plans are plain data: building,
/// copying and hashing them never touches a network.
///
/// Text form (xmpsim `--faults=`): statements separated by `;`, fields by
/// `,`, times in seconds:
///
///   down,link=3,at=0.5            permanent link failure
///   down,link=3,at=0.5,until=0.7  transient (auto up at 0.7)
///   up,link=3,at=0.9              explicit repair
///   flap,link=3,at=0.5,period=0.1,count=4   4 down/up cycles, 50% duty
///   down,switch=2,at=0.5[,until=..]         whole-switch failure
///   down,host=7,at=0.5[,until=..]           host failure
///   loss,link=2,at=0,p=0.01[,corrupt=0.002][,until=..]      Bernoulli
///   gilbert,link=2,at=0,pgb=0.001,pbg=0.1,pbad=0.3[,pgood=0][,corrupt=..]
///   blackhole,switch=5,at=0.2[,until=..]    ECN marking disabled
///   degrade,link=2,at=0.1,factor=0.3[,until=..]     slow drain (30% rate)
///   delay,link=2,at=0.1,dt=1e-4[,jitter=5e-5][,until=..]    latency + jitter
///   reorder,link=2,at=0.1,p=0.05,dt=2e-4[,until=..] hold-and-release
///   duplicate,link=2,at=0.1,p=0.01[,until=..]       clone a p fraction
///   overmark,link=2,at=0.1,p=0.2[,until=..]         forced CE on survivors
struct FaultPlan {
  std::vector<FaultEvent> events;

  [[nodiscard]] bool empty() const { return events.empty(); }
  [[nodiscard]] std::size_t size() const { return events.size(); }

  // --- builders (return *this for chaining) ---
  FaultPlan& link_down(net::LinkId link, sim::Time at);
  FaultPlan& link_up(net::LinkId link, sim::Time at);
  /// `count` down/up cycles of length `period` (down for the first half).
  FaultPlan& link_flap(net::LinkId link, sim::Time at, sim::Time period, int count);
  FaultPlan& switch_down(int sw, sim::Time at);
  FaultPlan& switch_up(int sw, sim::Time at);
  FaultPlan& host_down(int host, sim::Time at);
  FaultPlan& host_up(int host, sim::Time at);
  FaultPlan& loss(net::LinkId link, const LossModel& m, sim::Time at,
                  sim::Time until = sim::Time::infinity());
  FaultPlan& blackhole(int sw, sim::Time at, sim::Time until = sim::Time::infinity());
  // --- gray failures ---
  FaultPlan& degrade(net::LinkId link, double factor, sim::Time at,
                     sim::Time until = sim::Time::infinity());
  FaultPlan& delay(net::LinkId link, sim::Time dt, sim::Time jitter, sim::Time at,
                   sim::Time until = sim::Time::infinity());
  FaultPlan& reorder(net::LinkId link, double p, sim::Time hold, sim::Time at,
                     sim::Time until = sim::Time::infinity());
  FaultPlan& duplicate(net::LinkId link, double p, sim::Time at,
                       sim::Time until = sim::Time::infinity());
  FaultPlan& overmark(net::LinkId link, double p, sim::Time at,
                      sim::Time until = sim::Time::infinity());

  /// Parse the text form; on failure returns false and, if `error` is
  /// non-null, stores a one-line diagnostic.
  static bool parse(const std::string& text, FaultPlan& out, std::string* error = nullptr);

  /// Canonical text form (round-trips through parse for primitive events).
  [[nodiscard]] std::string to_string() const;
};

}  // namespace xmp::faults
