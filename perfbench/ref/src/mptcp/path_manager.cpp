#include "mptcp/path_manager.hpp"

#include <algorithm>

namespace xmp::mptcp {

bool PathManager::pick_new_tag(net::FlowId flow, int subflow, std::uint16_t old_tag,
                               const std::vector<std::uint16_t>& in_use, std::uint16_t& out) {
  if (!can_rehome()) return false;
  ++used_;
  const std::uint64_t base = (static_cast<std::uint64_t>(flow) << 24) ^
                             (static_cast<std::uint64_t>(subflow) << 16) ^
                             (static_cast<std::uint64_t>(used_) << 40) ^ old_tag;
  // Tag spaces in play are tiny (up-port groups take tag % n or a hash of
  // the tag), so collisions with a sibling's tag are likely on the first
  // probe; a few salted re-probes find a disjoint one. If every probe
  // collides (more subflows than paths), the last candidate stands — a
  // shared path still beats a dead one.
  std::uint16_t tag = old_tag;
  for (std::uint64_t probe = 0; probe < 16; ++probe) {
    tag = static_cast<std::uint16_t>(net::mix64(base ^ (probe * 0x9e3779b97f4a7c15ULL)));
    if (tag != old_tag && std::find(in_use.begin(), in_use.end(), tag) == in_use.end()) break;
  }
  out = tag;
  return true;
}

}  // namespace xmp::mptcp
