#include "util/rng.h"

#include <algorithm>
#include <cmath>

#include "util/sanitize.h"

namespace cextend {
namespace {

// The splitmix/xoshiro mixers below depend on mod-2^64 wraparound; see
// util/sanitize.h for why they are exempt from -fsanitize=integer.
CEXTEND_NO_SANITIZE_INTEGER
uint64_t SplitMix64(uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

CEXTEND_NO_SANITIZE_INTEGER
uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

void Rng::Reseed(uint64_t seed) {
  uint64_t s = seed;
  for (auto& word : state_) word = SplitMix64(s);
  // Avoid the (astronomically unlikely) all-zero state.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

CEXTEND_NO_SANITIZE_INTEGER
uint64_t Rng::Next() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

CEXTEND_NO_SANITIZE_INTEGER
int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  CEXTEND_CHECK(lo <= hi) << "UniformInt(" << lo << "," << hi << ")";
  // Subtract in uint64: `hi - lo` in int64 overflows for ranges wider than
  // INT64_MAX (e.g. UniformInt(INT64_MIN, INT64_MAX)), and the +1 wraps to 0
  // on purpose for the full 64-bit range.
  uint64_t range = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
  if (range == 0) return static_cast<int64_t>(Next());  // full 64-bit range
  // Rejection sampling to remove modulo bias.
  uint64_t limit = UINT64_MAX - UINT64_MAX % range;
  uint64_t r = Next();
  while (r >= limit) r = Next();
  // Add in uint64 for the same reason: lo + offset can exceed INT64_MAX
  // mid-computation even though the final value is always in [lo, hi].
  return static_cast<int64_t>(static_cast<uint64_t>(lo) + r % range);
}

double Rng::UniformDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

size_t Rng::WeightedIndex(std::span<const double> weights) {
  CEXTEND_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    CEXTEND_CHECK(w >= 0.0);
    total += w;
  }
  CEXTEND_CHECK(total > 0.0) << "WeightedIndex with zero total weight";
  double u = UniformDouble() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (u <= acc) return i;
  }
  return weights.size() - 1;
}

Rng Rng::Fork() { return Rng(Next() ^ 0xD1B54A32D192ED03ULL); }

ZipfTable::ZipfTable(size_t n, double s) : n_(n), uniform_(s <= 0.0) {
  CEXTEND_CHECK(n > 0);
  if (n == 1 || uniform_) return;
  cdf_.reserve(n);
  double acc = 0.0;
  for (size_t i = 1; i <= n; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i), s);
    cdf_.push_back(acc);
  }
}

size_t ZipfTable::Draw(Rng& rng) const {
  if (n_ == 1) return 0;
  if (uniform_) {
    return static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n_) - 1));
  }
  const double u = rng.UniformDouble() * cdf_.back();
  // First rank whose running sum reaches u; the sums never decrease.
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return it == cdf_.end() ? n_ - 1 : static_cast<size_t>(it - cdf_.begin());
}

}  // namespace cextend
