// Deterministic pseudo-random number generation.
//
// Workload generators and property tests need runs that are reproducible
// across platforms and standard-library versions, so we implement
// xoshiro256** (Blackman & Vigna) instead of relying on std::mt19937 plus
// libstdc++ distribution internals.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace partita::support {

/// xoshiro256** 1.0 generator with SplitMix64 seeding.
///
/// Satisfies the UniformRandomBitGenerator concept, but the helper members
/// below should be preferred: they are deterministic across platforms.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  /// Next raw 64-bit output.
  std::uint64_t operator()();

  /// Uniform integer in [lo, hi] (inclusive); requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform01();

  /// Bernoulli draw with probability p of returning true.
  bool chance(double p);

  /// Picks an index in [0, weights.size()) proportionally to weights.
  /// Requires at least one strictly positive weight.
  std::size_t weighted_index(const std::vector<double>& weights);

  /// Fisher-Yates shuffles v in place.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    if (v.empty()) return;
    for (std::size_t i = v.size() - 1; i > 0; --i) {
      const auto j = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i)));
      using std::swap;
      swap(v[i], v[j]);
    }
  }

 private:
  std::array<std::uint64_t, 4> state_;
};

}  // namespace partita::support
