// Deterministic pseudo-random number generation (xoshiro256** seeded via
// splitmix64). All randomized algorithms in the library take an explicit
// `Rng&` so experiments are reproducible bit-for-bit given a seed.

#ifndef CEXTEND_UTIL_RNG_H_
#define CEXTEND_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/logging.h"

namespace cextend {

/// xoshiro256** 1.0 generator. Not thread-safe; create one per thread.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL) { Reseed(seed); }

  /// Re-initializes the state from `seed` using splitmix64 expansion.
  void Reseed(uint64_t seed);

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double UniformDouble();

  /// Bernoulli trial with success probability `p`.
  bool Bernoulli(double p) { return UniformDouble() < p; }

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    if (v.empty()) return;
    for (size_t i = v.size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i)));
      std::swap(v[i], v[j]);
    }
  }

  /// Uniformly chosen element of a non-empty vector.
  template <typename T>
  const T& Choice(const std::vector<T>& v) {
    CEXTEND_CHECK(!v.empty());
    return v[static_cast<size_t>(
        UniformInt(0, static_cast<int64_t>(v.size()) - 1))];
  }

  /// Index drawn proportionally to non-negative `weights` (sum must be > 0).
  /// Sums left to right and returns the first index whose running sum is at
  /// least `UniformDouble() * total`.
  size_t WeightedIndex(std::span<const double> weights);

  /// Derives an independent child generator (for per-thread streams).
  Rng Fork();

 private:
  uint64_t state_[4];
};

/// Zipf-like distribution over [0, n) with exponent `s` (s <= 0 gives
/// uniform): rank i + 1 has weight 1 / (i + 1)^s. The constructor sums the
/// weights once, from rank 1 up; Draw takes one UniformDouble and
/// binary-searches the prefix sums, so it returns the index an O(n)
/// inverse-CDF walk over the same sums would, with the same draw consumed.
/// n == 1 consumes no draw.
class ZipfTable {
 public:
  ZipfTable(size_t n, double s);

  size_t Draw(Rng& rng) const;

 private:
  size_t n_;
  bool uniform_;
  std::vector<double> cdf_;  // cdf_[i] = weight of ranks 1..i+1
};

}  // namespace cextend

#endif  // CEXTEND_UTIL_RNG_H_
