// Deterministic, fast pseudo-random number generation.
//
// We avoid std::mt19937 for the hot paths (dataset generation touches hundreds
// of millions of entries at full scale) and use xoshiro256++, seeded via
// splitmix64 so that any 64-bit seed yields a well-mixed state. All generators
// are deterministic given a seed: every experiment in the paper reproduction
// is replayable bit-for-bit.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/check.hpp"

namespace cumf {

/// splitmix64 step; used for seeding and as a cheap stateless hash.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// xoshiro256++ generator (Blackman & Vigna). Satisfies
/// std::uniform_random_bit_generator so it can drive std distributions too.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [0, n). Requires n > 0. Uses Lemire's multiply-shift
  /// rejection method to avoid modulo bias.
  std::uint64_t uniform_index(std::uint64_t n) noexcept;

  /// Standard normal via Box-Muller (caches the second deviate).
  double normal() noexcept;

  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev) noexcept;

  /// Complete generator state, exposed so checkpoints can persist an Rng
  /// mid-stream and resume it bit-for-bit (xoshiro words plus the Box-Muller
  /// cached deviate — without the cache, a resumed normal() stream would
  /// diverge on the very next call).
  struct State {
    std::array<std::uint64_t, 4> s{};
    double cached_normal = 0.0;
    bool has_cached_normal = false;

    friend bool operator==(const State&, const State&) = default;
  };

  State state() const noexcept {
    return State{s_, cached_normal_, has_cached_normal_};
  }
  void set_state(const State& state) noexcept {
    s_ = state.s;
    cached_normal_ = state.cached_normal;
    has_cached_normal_ = state.has_cached_normal;
  }

 private:
  std::array<std::uint64_t, 4> s_;
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

/// Samples from a Zipf(s) distribution over {0, …, n-1} via inversion on a
/// precomputed CDF. Used to plant power-law row/column degrees that mimic the
/// skew of the Netflix / YahooMusic / Hugewiki rating matrices.
class ZipfSampler {
 public:
  /// n: support size; s: exponent (s = 0 → uniform; larger → more skewed).
  ZipfSampler(std::size_t n, double s);

  std::size_t operator()(Rng& rng) const noexcept;

  std::size_t support() const noexcept { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

}  // namespace cumf
