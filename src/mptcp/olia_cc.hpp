#pragma once

#include "mptcp/coupling.hpp"
#include "transport/cc/reno.hpp"

namespace xmp::mptcp {

/// OLIA — Opportunistic Linked Increases (Khalili et al., CoNEXT 2012).
///
/// The paper cites OLIA ([19]) as the fix for LIA's non-Pareto-optimality
/// and names adopting it as future work; we implement it as an extension
/// baseline. Congestion avoidance on path r increases cwnd_r per acked
/// segment by
///   cwnd_r/rtt_r^2 / (Σ_p cwnd_p/rtt_p)^2  +  α_r / cwnd_r
/// where α_r rebalances between the best-quality paths and the largest-
/// window paths. Loss response is Reno halving. Like LIA it is loss-driven
/// (not ECN-capable).
class OliaCc final : public transport::RenoCc {
 public:
  explicit OliaCc(const CouplingContext& ctx) : ctx_{ctx} {}

  [[nodiscard]] const char* name() const override { return "olia"; }

  void on_loss(transport::TcpSender& s, bool timeout) override;
  void on_ack(transport::TcpSender& s, const transport::AckEvent& ev) override;

  /// Path quality estimate ℓ_r²: segments sent between the two most recent
  /// losses (OLIA's inter-loss interval proxy).
  [[nodiscard]] double quality() const;

  void checkpoint(core::ckpt::Io& io) override {
    RenoCc::checkpoint(io);
    io.f64(since_last_loss_);
    io.f64(between_last_two_);
  }

 protected:
  void increase_ca(transport::TcpSender& s, std::int64_t newly_acked) override;

 private:
  const CouplingContext& ctx_;
  // Segments acked since the last loss / between the previous two losses.
  double since_last_loss_ = 0;
  double between_last_two_ = 0;
};

}  // namespace xmp::mptcp
