// Differential test: AdjacencyGraph::FromPackedPairs (two counting
// scatters) against the global-sort reference builder
// (adjacency_oracle.h). Offsets, neighbor runs, edge counts and HasEdge must
// match exactly on edge-case sizes, hubs, isolated vertices, reversed and
// shuffled inputs, repeated pairs and vertex ids near 2^16.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/adjacency_oracle.h"
#include "graph/hypergraph.h"
#include "util/rng.h"

namespace cextend {
namespace {

uint64_t Pack(size_t u, size_t v) {
  if (u > v) std::swap(u, v);
  return (static_cast<uint64_t>(u) << 32) | v;
}

size_t RandomVertex(Rng& rng, size_t n) {
  return static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n) - 1));
}

/// Index of the first differing element, or -1 when equal.
template <typename T>
int64_t FirstMismatch(const std::vector<T>& a, const std::vector<T>& b) {
  if (a.size() != b.size()) {
    return static_cast<int64_t>(std::min(a.size(), b.size()));
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return static_cast<int64_t>(i);
  }
  return -1;
}

void ExpectMatchesOracle(size_t n, const std::vector<uint64_t>& pairs,
                         uint64_t probe_seed = 1) {
  adjacency_oracle::Csr want = adjacency_oracle::FromPackedPairs(n, pairs);
  std::vector<uint64_t> consumed = pairs;
  AdjacencyGraph got = AdjacencyGraph::FromPackedPairs(n, std::move(consumed));
  EXPECT_EQ(consumed.capacity(), 0u) << "input buffer not released";

  ASSERT_EQ(got.num_vertices(), n);
  EXPECT_EQ(got.num_edges(), want.neighbors.size() / 2);
  std::vector<size_t> got_offsets(n + 1, 0);
  std::vector<uint32_t> got_neighbors;
  const uint32_t* base = got.NeighborsBegin(0);
  for (size_t v = 0; v < n; ++v) {
    got_offsets[v] = static_cast<size_t>(got.NeighborsBegin(v) - base);
    got_offsets[v + 1] = static_cast<size_t>(got.NeighborsEnd(v) - base);
    EXPECT_EQ(got.Degree(v), static_cast<int64_t>(want.offsets[v + 1] -
                                                  want.offsets[v]))
        << "vertex " << v;
    got_neighbors.insert(got_neighbors.end(), got.NeighborsBegin(v),
                         got.NeighborsEnd(v));
  }
  EXPECT_EQ(FirstMismatch(got_offsets, want.offsets), -1) << "offsets";
  EXPECT_EQ(FirstMismatch(got_neighbors, want.neighbors), -1)
      << "neighbor runs";

  for (uint64_t p : pairs) {
    size_t u = static_cast<size_t>(p >> 32);
    size_t v = static_cast<size_t>(p & 0xFFFFFFFFULL);
    ASSERT_TRUE(got.HasEdge(u, v) && got.HasEdge(v, u)) << u << "," << v;
  }
  if (n == 0) return;
  Rng rng(probe_seed);
  for (int probe = 0; probe < 2000; ++probe) {
    size_t u = RandomVertex(rng, n);
    size_t v = RandomVertex(rng, n);
    const uint32_t* run = want.neighbors.data();
    bool expected =
        std::binary_search(run + want.offsets[u], run + want.offsets[u + 1],
                           static_cast<uint32_t>(v));
    ASSERT_EQ(got.HasEdge(u, v), expected) << u << "," << v;
  }
}

/// Up to `count` distinct random pairs over [0, n) (n >= 2).
std::vector<uint64_t> RandomUniquePairs(Rng& rng, size_t n, size_t count) {
  std::vector<uint64_t> pairs;
  pairs.reserve(count);
  while (pairs.size() < count) {
    size_t u = RandomVertex(rng, n);
    size_t v = RandomVertex(rng, n);
    if (u != v) pairs.push_back(Pack(u, v));
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  return pairs;
}

TEST(AdjacencyOracleTest, TinyGraphs) {
  ExpectMatchesOracle(0, {});
  ExpectMatchesOracle(1, {});
  ExpectMatchesOracle(2, {});
  ExpectMatchesOracle(2, {Pack(0, 1)});
  ExpectMatchesOracle(2, {Pack(0, 1), Pack(0, 1), Pack(0, 1)});
  ExpectMatchesOracle(3, {Pack(1, 2), Pack(0, 2)});
}

TEST(AdjacencyOracleTest, IsolatedVertices) {
  // Only even vertices carry edges; odd ones (and the tail) stay isolated.
  Rng rng(7);
  std::vector<uint64_t> pairs;
  for (int i = 0; i < 300; ++i) {
    size_t u = 2 * static_cast<size_t>(rng.UniformInt(0, 40));
    size_t v = 2 * static_cast<size_t>(rng.UniformInt(0, 40));
    if (u != v) pairs.push_back(Pack(u, v));
  }
  ExpectMatchesOracle(120, pairs);
}

TEST(AdjacencyOracleTest, HubAdjacentToEveryVertex) {
  for (size_t hub : {size_t{0}, size_t{57}, size_t{199}}) {
    std::vector<uint64_t> pairs;
    for (size_t v = 0; v < 200; ++v) {
      if (v != hub) pairs.push_back(Pack(hub, v));
    }
    Rng rng(hub + 3);
    std::vector<uint64_t> extra = RandomUniquePairs(rng, 200, 400);
    pairs.insert(pairs.end(), extra.begin(), extra.end());
    rng.Shuffle(pairs);
    ExpectMatchesOracle(200, pairs, hub);
  }
}

TEST(AdjacencyOracleTest, ReversedAndShuffledOrder) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    size_t n = 2 + static_cast<size_t>(rng.UniformInt(0, 500));
    std::vector<uint64_t> pairs = RandomUniquePairs(
        rng, n, static_cast<size_t>(rng.UniformInt(0, 4000)));
    std::vector<uint64_t> reversed(pairs.rbegin(), pairs.rend());
    ExpectMatchesOracle(n, reversed, seed);
    rng.Shuffle(pairs);
    ExpectMatchesOracle(n, pairs, seed);
  }
}

TEST(AdjacencyOracleTest, EveryPairRepeatedOneToThreeTimes) {
  for (uint64_t seed = 11; seed <= 16; ++seed) {
    Rng rng(seed);
    size_t n = 2 + static_cast<size_t>(rng.UniformInt(0, 300));
    std::vector<uint64_t> unique = RandomUniquePairs(rng, n, 3000);
    std::vector<uint64_t> pairs;
    for (uint64_t p : unique) {
      int64_t copies = rng.UniformInt(1, 3);
      for (int64_t c = 0; c < copies; ++c) pairs.push_back(p);
    }
    rng.Shuffle(pairs);
    ExpectMatchesOracle(n, pairs, seed);
  }
}

TEST(AdjacencyOracleTest, VertexIdsNearTwoToTheSixteen) {
  for (size_t n : {size_t{65535}, size_t{65536}, size_t{65537}}) {
    Rng rng(n);
    std::vector<uint64_t> pairs = RandomUniquePairs(rng, n, 50'000);
    // Edges at the top of the id range, including the last vertex.
    for (size_t v = n - 300; v + 1 < n; ++v) {
      pairs.push_back(Pack(v, n - 1));
      pairs.push_back(Pack(v, n - 1));
    }
    rng.Shuffle(pairs);
    ExpectMatchesOracle(n, pairs, n);
  }
}

}  // namespace
}  // namespace cextend
