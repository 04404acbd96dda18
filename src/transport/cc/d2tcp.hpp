#pragma once

#include "transport/cc/dctcp.hpp"
#include "sim/time.hpp"

namespace xmp::transport {

/// D²TCP — Deadline-Aware Datacenter TCP (Vamanan et al., SIGCOMM 2012),
/// one of the paper's related-work baselines (§6, [30]). Extension beyond
/// the paper's evaluation.
///
/// D²TCP gamma-corrects DCTCP's congestion estimate with a deadline
/// imminence factor d: the penalty applied on congestion is p = alpha^d,
/// cwnd <- cwnd * (1 - p/2). Far-deadline flows (d < 1) back off more than
/// DCTCP would; near-deadline flows (d > 1) back off less, trading
/// bandwidth toward flows that are about to miss their deadline.
///   d = Tc / D, clamped to [0.5, 2.0]
/// where D is the time remaining to the deadline and Tc the time the flow
/// still needs at its current rate.
class D2tcpCc final : public DctcpCc {
 public:
  struct DeadlineParams {
    sim::Time deadline = sim::Time::zero();  ///< absolute; zero = no deadline
    std::int64_t total_segments = 0;         ///< flow size
  };

  D2tcpCc(const Params& dctcp_params, const DeadlineParams& dp)
      : DctcpCc{dctcp_params}, dp_{dp} {}

  void on_congestion_signal(TcpSender& s, const AckEvent& ev) override;

  [[nodiscard]] const char* name() const override { return "d2tcp"; }

  /// The current deadline-imminence factor (1.0 when no deadline is set or
  /// nothing is known yet).
  [[nodiscard]] double imminence(const TcpSender& s, sim::Time now) const;

  void checkpoint(core::ckpt::Io& io) override {
    DctcpCc::checkpoint(io);
    io.i64(cwr_seq_);
  }

 private:
  DeadlineParams dp_;
  std::int64_t cwr_seq_ = -1;
};

}  // namespace xmp::transport
