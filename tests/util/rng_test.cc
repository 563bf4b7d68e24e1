#include "util/rng.h"

#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

namespace cextend {
namespace {

/// The O(n)-per-draw inverse CDF that ZipfTable replaces: the weights summed
/// once for the total, then again until the running sum reaches the draw.
size_t ZipfOracle(Rng& rng, size_t n, double s) {
  if (n == 1) return 0;
  if (s <= 0.0) {
    return static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n) - 1));
  }
  double total = 0.0;
  for (size_t i = 1; i <= n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i), s);
  }
  double u = rng.UniformDouble() * total;
  double acc = 0.0;
  for (size_t i = 1; i <= n; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i), s);
    if (u <= acc) return i - 1;
  }
  return n - 1;
}

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.Next() != b.Next()) ++differing;
  }
  EXPECT_GT(differing, 24);
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, UniformIntSingleton) {
  Rng rng(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.UniformInt(42, 42), 42);
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.UniformInt(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRoughlyFair) {
  Rng rng(5);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.Bernoulli(0.5) ? 1 : 0;
  EXPECT_NEAR(heads, 5000, 300);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(9);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = v;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(RngTest, WeightedIndexRespectsZeroWeights) {
  Rng rng(13);
  std::vector<double> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.WeightedIndex(weights), 1u);
}

TEST(RngTest, WeightedIndexProportions) {
  Rng rng(13);
  std::vector<double> weights = {1.0, 3.0};
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.WeightedIndex(weights) == 1) ++hits;
  }
  EXPECT_NEAR(hits, 7500, 400);
}

TEST(RngTest, ZipfSkewsLow) {
  Rng rng(17);
  const ZipfTable zipf(100, 1.0);
  int low = 0;
  for (int i = 0; i < 5000; ++i) {
    size_t v = zipf.Draw(rng);
    EXPECT_LT(v, 100u);
    if (v < 10) ++low;
  }
  // With s=1 the first 10 of 100 ranks carry well over a third of the mass.
  EXPECT_GT(low, 5000 / 3);
}

TEST(RngTest, ZipfZeroExponentIsUniformish) {
  Rng rng(19);
  const ZipfTable zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) ++counts[zipf.Draw(rng)];
  for (int c : counts) EXPECT_NEAR(c, 1000, 250);
}

// Every draw equals the O(n) oracle's on the same stream, and leaves the
// stream where the oracle leaves it (checked by the next raw value).
TEST(RngTest, ZipfTableMatchesLinearOracle) {
  for (size_t n : {1u, 2u, 250u, 1000u}) {
    for (double s : {0.6, 1.0, 0.0}) {
      const ZipfTable zipf(n, s);
      for (uint64_t seed : {1u, 42u, 987654321u}) {
        Rng table_rng(seed), oracle_rng(seed);
        for (int i = 0; i < 2000; ++i) {
          ASSERT_EQ(zipf.Draw(table_rng), ZipfOracle(oracle_rng, n, s))
              << "n " << n << " s " << s << " seed " << seed << " draw " << i;
          ASSERT_EQ(table_rng.Next(), oracle_rng.Next())
              << "n " << n << " s " << s << " seed " << seed << " draw " << i;
        }
      }
    }
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(21);
  Rng child = a.Fork();
  // The fork must not replay the parent's sequence.
  Rng parent_copy(21);
  parent_copy.Next();  // Fork consumed one value
  int equal = 0;
  for (int i = 0; i < 32; ++i) {
    if (child.Next() == parent_copy.Next()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(RngTest, ChoiceReturnsElement) {
  Rng rng(23);
  std::vector<int> v = {10, 20, 30};
  for (int i = 0; i < 50; ++i) {
    int c = rng.Choice(v);
    EXPECT_TRUE(c == 10 || c == 20 || c == 30);
  }
}

}  // namespace
}  // namespace cextend
