#include "sim/time.hpp"

#include <cstdio>

namespace xmp::sim {

std::string Time::to_string() const {
  char buf[48];
  if (ns_ == INT64_MAX) return "+inf";
  if (ns_ < 10'000) {
    std::snprintf(buf, sizeof buf, "%lldns", static_cast<long long>(ns_));
  } else if (ns_ < 10'000'000) {
    std::snprintf(buf, sizeof buf, "%.3fus", us());
  } else if (ns_ < 10'000'000'000LL) {
    std::snprintf(buf, sizeof buf, "%.3fms", ms());
  } else {
    std::snprintf(buf, sizeof buf, "%.3fs", sec());
  }
  return buf;
}

}  // namespace xmp::sim
