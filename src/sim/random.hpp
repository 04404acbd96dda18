#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace xmp::sim {

/// Deterministic pseudo-random source for workload generation.
///
/// Implements xoshiro256++ (Blackman & Vigna). We carry our own generator
/// rather than std::mt19937 so that simulation results are reproducible
/// bit-for-bit across standard library implementations.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Raw 64 bits.
  std::uint64_t next();

  /// Uniform in [0, bound). Requires bound > 0. Unbiased (rejection sampling).
  std::uint64_t uniform_u64(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform real in [0, 1).
  double uniform01();

  /// Uniform real in [lo, hi).
  double uniform_real(double lo, double hi);

  /// Exponential with given mean (> 0).
  double exponential(double mean);

  /// Bounded Pareto with shape `alpha`, minimum `lo`, maximum `hi`.
  /// Used for the paper's Random traffic pattern (alpha = 1.5).
  double bounded_pareto(double alpha, double lo, double hi);

  /// Derive an independent stream (for giving each workload its own RNG).
  Rng split();

  /// Raw generator state, for checkpoint/restore. A restored stream
  /// continues bit-identically from where the saved one stopped.
  [[nodiscard]] std::array<std::uint64_t, 4> state() const { return {s_[0], s_[1], s_[2], s_[3]}; }
  void set_state(const std::array<std::uint64_t, 4>& s) {
    for (int i = 0; i < 4; ++i) s_[i] = s[i];
  }

 private:
  std::uint64_t s_[4];
};

}  // namespace xmp::sim
