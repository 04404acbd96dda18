#pragma once

#include <cstdint>

#include "core/checkpoint.hpp"
#include "net/types.hpp"
#include "sim/time.hpp"

namespace xmp::net {

/// ECN codepoint in the (modelled) IP header.
enum class Ecn : std::uint8_t {
  NotEct,  ///< sender not ECN-capable; congested queues drop instead of mark
  Ect,     ///< ECN-capable transport
  Ce,      ///< Congestion Experienced (set by a queue)
};

enum class PacketType : std::uint8_t { Data, Ack };

/// A simulated packet. Headers only — payload bytes are modelled by
/// `size_bytes` and the segment sequence number, never materialized.
///
/// One Packet is one MSS-sized TCP segment (type Data) or one pure ACK
/// (type Ack). Sequence numbers count segments, not bytes.
struct Packet {
  std::uint64_t uid = 0;   ///< globally unique, for tracing
  FlowId flow = 0;
  std::uint16_t subflow = 0;
  std::uint16_t path_tag = 0;  ///< selects among equal-cost upward paths
  PacketType type = PacketType::Data;
  Ecn ecn = Ecn::NotEct;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  std::uint32_t size_bytes = kDataPacketBytes;

  // --- transport header ---
  std::int64_t seq = 0;   ///< Data: segment index within the subflow
  std::int64_t ack = 0;   ///< Ack: cumulative ack (next expected segment)
  std::uint8_t ce_echo = 0;  ///< XMP codec: count of CEs echoed (0..3)
  bool ece = false;          ///< classic / DCTCP echo flag
  bool cwr = false;          ///< Data: sender reduced its window (RFC 3168)
  bool retransmit = false;   ///< Data: this is a retransmission
  /// Payload corrupted by an injected fault: the packet still occupies the
  /// wire but fails its checksum at the receiving end of the link and is
  /// discarded there (counted separately from queue drops).
  bool corrupt = false;

  /// Timestamp option: Data carries send time, Ack echoes it back so the
  /// sender can take microsecond-granularity RTT samples.
  sim::Time ts = sim::Time::zero();
};

/// Checkpoint fields of one in-flight/queued packet (field by field rather
/// than memcpy, so padding bytes never leak into checkpoint files).
inline void checkpoint(core::ckpt::Io& io, Packet& p) {
  io.u64(p.uid);
  io.u32(p.flow);
  io.u16(p.subflow);
  io.u16(p.path_tag);
  io.u8(p.type);
  io.u8(p.ecn);
  io.u32(p.src);
  io.u32(p.dst);
  io.u32(p.size_bytes);
  io.i64(p.seq);
  io.i64(p.ack);
  io.u8(p.ce_echo);
  io.b(p.ece);
  io.b(p.cwr);
  io.b(p.retransmit);
  io.b(p.corrupt);
  io.time(p.ts);
}

}  // namespace xmp::net
