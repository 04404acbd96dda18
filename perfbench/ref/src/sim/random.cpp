#include "sim/random.hpp"

#include <cassert>
#include <cmath>

namespace xmp::sim {
namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

// splitmix64: seeds the xoshiro state from a single 64-bit value.
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
  // All-zero state is invalid for xoshiro; splitmix64 cannot produce four
  // zeros from any seed, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::uniform_u64(std::uint64_t bound) {
  assert(bound > 0);
  // Lemire-style rejection to avoid modulo bias.
  const std::uint64_t threshold = -bound % bound;
  for (;;) {
    const std::uint64_t r = next();
    if (r >= threshold) return r % bound;
  }
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next());  // full 64-bit range
  return lo + static_cast<std::int64_t>(uniform_u64(span));
}

double Rng::uniform01() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform_real(double lo, double hi) {
  return lo + (hi - lo) * uniform01();
}

double Rng::exponential(double mean) {
  assert(mean > 0);
  double u;
  do { u = uniform01(); } while (u == 0.0);
  return -mean * std::log(u);
}

double Rng::bounded_pareto(double alpha, double lo, double hi) {
  assert(alpha > 0 && lo > 0 && hi > lo);
  const double u = uniform01();
  const double la = std::pow(lo, alpha);
  const double ha = std::pow(hi, alpha);
  // Inverse CDF of the bounded Pareto distribution.
  return std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha);
}

Rng Rng::split() {
  return Rng{next()};
}

}  // namespace xmp::sim
