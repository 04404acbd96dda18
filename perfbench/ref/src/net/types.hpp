#pragma once

#include <cstdint>

namespace xmp::net {

using NodeId = std::uint32_t;
using FlowId = std::uint32_t;
using LinkId = std::uint32_t;

inline constexpr NodeId kInvalidNode = UINT32_MAX;

/// Maximum segment size (payload bytes carried by one data packet).
inline constexpr std::uint32_t kMssBytes = 1460;
/// Wire size of a full data packet (MSS + TCP/IP headers + framing).
inline constexpr std::uint32_t kDataPacketBytes = 1500;
/// Wire size of a pure acknowledgement.
inline constexpr std::uint32_t kAckPacketBytes = 60;

/// Convert a transfer size in bytes to a number of MSS segments (>= 1).
[[nodiscard]] constexpr std::int64_t segments_for_bytes(std::int64_t bytes) {
  return bytes <= 0 ? 1 : (bytes + kMssBytes - 1) / kMssBytes;
}

/// 64-bit mixer used for deterministic path selection (ECMP-like spreading).
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

}  // namespace xmp::net
