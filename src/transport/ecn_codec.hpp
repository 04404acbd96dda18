#pragma once

#include <cstdint>

#include "net/packet.hpp"

namespace xmp::transport {

/// How a receiver feeds congestion marks back to its sender.
enum class EcnCodec : std::uint8_t {
  None,        ///< sender is not ECN-capable (plain TCP, LIA)
  Classic,     ///< RFC 3168: sticky ECE until the sender's CWR arrives
  Dctcp,       ///< DCTCP's delayed-ACK state machine (ECE mirrors CE state)
  XmpCounter,  ///< XMP §2.1: ECE+CWR encode the exact count of CEs (0..3)
};

/// Receiver-side ECN echo state. Decides when a CE arrival forces an
/// immediate ack and stamps outgoing acks.
class EcnEchoState {
 public:
  explicit EcnEchoState(EcnCodec codec) : codec_{codec} {}

  /// Record an arriving data packet. Returns true when the codec requires
  /// an immediate acknowledgement (DCTCP: CE state changed — the pending
  /// delayed ack must be flushed *before* absorbing this packet's state).
  bool on_data(const net::Packet& p) {
    switch (codec_) {
      case EcnCodec::None:
        return false;
      case EcnCodec::Classic:
        if (p.ecn == net::Ecn::Ce) ece_latched_ = true;
        if (p.cwr) ece_latched_ = false;  // sender acknowledged the signal
        return false;
      case EcnCodec::Dctcp: {
        const bool ce = p.ecn == net::Ecn::Ce;
        if (ce != ce_state_) {
          pending_state_change_ = true;
          ce_state_ = ce;
          return true;
        }
        return false;
      }
      case EcnCodec::XmpCounter:
        if (p.ecn == net::Ecn::Ce) ++ce_pending_;
        return false;
    }
    return false;
  }

  /// Stamp an outgoing ack and reset per-ack state.
  void fill_ack(net::Packet& ack) {
    switch (codec_) {
      case EcnCodec::None:
        break;
      case EcnCodec::Classic:
        ack.ece = ece_latched_;
        break;
      case EcnCodec::Dctcp:
        // The flushed ack (sent on state change, before the new packet is
        // counted) must carry the *previous* state; subsequent acks carry
        // the current state.
        ack.ece = pending_state_change_ ? !ce_state_ : ce_state_;
        pending_state_change_ = false;
        break;
      case EcnCodec::XmpCounter: {
        const std::uint8_t n = ce_pending_ > 3 ? std::uint8_t{3} : static_cast<std::uint8_t>(ce_pending_);
        ack.ce_echo = n;
        ce_pending_ -= n;
        break;
      }
    }
  }

  /// Called by the receiver when a state-change flush was requested but no
  /// ack was pending (nothing to flush): the next ack then simply carries
  /// the current state.
  void drop_pending_state_change() { pending_state_change_ = false; }

  [[nodiscard]] EcnCodec codec() const { return codec_; }

  void checkpoint(core::ckpt::Io& io) {
    io.b(ece_latched_);
    io.b(ce_state_);
    io.b(pending_state_change_);
    io.u32(ce_pending_);
  }

 private:
  EcnCodec codec_;
  bool ece_latched_ = false;        // Classic
  bool ce_state_ = false;           // DCTCP
  bool pending_state_change_ = false;
  std::uint32_t ce_pending_ = 0;    // XMP
};

}  // namespace xmp::transport
