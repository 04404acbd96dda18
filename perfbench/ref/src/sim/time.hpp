#pragma once

#include <cstdint>
#include <compare>
#include <string>

namespace xmp::sim {

/// Virtual simulation time with nanosecond resolution.
///
/// A strong type rather than a bare integer so that durations, rates and
/// byte counts cannot be mixed up at call sites. All arithmetic is exact
/// integer arithmetic; factory helpers taking doubles round to the nearest
/// nanosecond.
class Time {
 public:
  constexpr Time() = default;

  [[nodiscard]] static constexpr Time nanoseconds(std::int64_t ns) { return Time{ns}; }
  [[nodiscard]] static constexpr Time microseconds(std::int64_t us) { return Time{us * 1000}; }
  [[nodiscard]] static constexpr Time milliseconds(std::int64_t ms) { return Time{ms * 1'000'000}; }
  [[nodiscard]] static constexpr Time seconds(double s) {
    return Time{static_cast<std::int64_t>(s * 1e9 + (s >= 0 ? 0.5 : -0.5))};
  }
  [[nodiscard]] static constexpr Time zero() { return Time{0}; }
  /// Sentinel later than any schedulable event.
  [[nodiscard]] static constexpr Time infinity() { return Time{INT64_MAX}; }

  [[nodiscard]] constexpr std::int64_t ns() const { return ns_; }
  [[nodiscard]] constexpr double us() const { return static_cast<double>(ns_) / 1e3; }
  [[nodiscard]] constexpr double ms() const { return static_cast<double>(ns_) / 1e6; }
  [[nodiscard]] constexpr double sec() const { return static_cast<double>(ns_) / 1e9; }

  constexpr auto operator<=>(const Time&) const = default;

  constexpr Time operator+(Time other) const { return Time{ns_ + other.ns_}; }
  constexpr Time operator-(Time other) const { return Time{ns_ - other.ns_}; }
  constexpr Time& operator+=(Time other) { ns_ += other.ns_; return *this; }
  constexpr Time& operator-=(Time other) { ns_ -= other.ns_; return *this; }
  constexpr Time operator*(std::int64_t k) const { return Time{ns_ * k}; }
  constexpr Time operator/(std::int64_t k) const { return Time{ns_ / k}; }

  [[nodiscard]] std::string to_string() const;

 private:
  constexpr explicit Time(std::int64_t ns) : ns_{ns} {}
  std::int64_t ns_ = 0;
};

/// Time needed to serialize `bytes` onto a link of `bits_per_second`.
[[nodiscard]] constexpr Time transmission_time(std::int64_t bytes, std::int64_t bits_per_second) {
  // ns = bytes * 8 * 1e9 / bps, computed without overflow for realistic inputs
  // (bytes <= ~10^6, bps >= 10^6).
  return Time::nanoseconds(bytes * 8 * 1'000'000'000 / bits_per_second);
}

}  // namespace xmp::sim
