#include "graph/list_coloring.h"

#include <gtest/gtest.h>

#include "graph/coloring_oracle.h"
#include "graph/hypergraph.h"
#include "util/rng.h"

namespace cextend {
namespace {

using coloring_oracle::IsProperColoring;

TEST(ListColoringTest, PathGraphTwoColors) {
  Hypergraph g(3);
  g.AddEdge({0, 1});
  g.AddEdge({1, 2});
  ListColoringResult r = GreedyListColoring(g, {}, {10, 20});
  EXPECT_TRUE(r.skipped.empty());
  EXPECT_TRUE(IsProperColoring(g, r.colors));
  // Vertex 1 has the highest degree: colored first with the first candidate.
  EXPECT_EQ(r.colors[1], 10);
  EXPECT_EQ(r.colors[0], 20);
  EXPECT_EQ(r.colors[2], 20);
}

TEST(ListColoringTest, TriangleNeedsThree) {
  Hypergraph g(3);
  g.AddEdge({0, 1});
  g.AddEdge({1, 2});
  g.AddEdge({0, 2});
  ListColoringResult two = GreedyListColoring(g, {}, {1, 2});
  EXPECT_EQ(two.skipped.size(), 1u);
  ListColoringResult three = GreedyListColoring(g, {}, {1, 2, 3});
  EXPECT_TRUE(three.skipped.empty());
  EXPECT_TRUE(IsProperColoring(g, three.colors));
}

TEST(ListColoringTest, ResumesFromPartialColoring) {
  Hypergraph g(3);
  g.AddEdge({0, 1});
  g.AddEdge({1, 2});
  std::vector<int64_t> initial = {5, kNoColor, kNoColor};
  ListColoringResult r = GreedyListColoring(g, initial, {5, 6});
  EXPECT_TRUE(r.skipped.empty());
  EXPECT_EQ(r.colors[0], 5);  // pre-colored vertex untouched
  EXPECT_EQ(r.colors[1], 6);
  EXPECT_EQ(r.colors[2], 5);
}

TEST(ListColoringTest, SkippedVerticesColoredByFreshPass) {
  // Clique of 4 with 2 candidates: two vertices must be skipped, and a
  // second pass with fresh colors finishes the job (Algorithm 4 lines 11-12).
  Hypergraph g(4);
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) g.AddEdge({i, j});
  }
  ListColoringResult first = GreedyListColoring(g, {}, {1, 2});
  EXPECT_EQ(first.skipped.size(), 2u);
  ListColoringResult second =
      GreedyListColoring(g, std::move(first.colors), {3, 4});
  EXPECT_TRUE(second.skipped.empty());
  EXPECT_TRUE(IsProperColoring(g, second.colors));
}

TEST(ListColoringTest, HyperedgeAllowsTwoOfThree) {
  // One 3-ary edge: two vertices may share a color.
  Hypergraph g(3);
  g.AddEdge({0, 1, 2});
  ListColoringResult r = GreedyListColoring(g, {}, {1});
  // Only one candidate: the first two take it; the third would make the edge
  // monochromatic... but forbidden only when ALL others share it, so vertex
  // 3 is skipped.
  EXPECT_EQ(r.skipped.size(), 1u);
  ListColoringResult full = GreedyListColoring(g, {}, {1, 2});
  EXPECT_TRUE(full.skipped.empty());
  EXPECT_TRUE(IsProperColoring(g, full.colors));
}

TEST(ListColoringTest, CandidateOrderIsPreference) {
  Hypergraph g(2);
  g.AddEdge({0, 1});
  ListColoringResult r = GreedyListColoring(g, {}, {42, 7});
  // "Smallest" available = first in candidate order, not numeric order.
  EXPECT_EQ(r.colors[0], 42);
  EXPECT_EQ(r.colors[1], 7);
}

class ColoringRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ColoringRandomTest, ProperOnRandomGraphs) {
  Rng rng(GetParam());
  size_t n = 20 + static_cast<size_t>(rng.UniformInt(0, 20));
  Hypergraph g(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (rng.Bernoulli(0.15)) {
        g.AddEdge({static_cast<int>(i), static_cast<int>(j)});
      }
    }
  }
  // Plenty of candidates: greedy must produce a proper coloring w/o skips.
  std::vector<int64_t> candidates;
  for (int64_t c = 0; c < static_cast<int64_t>(n) + 1; ++c)
    candidates.push_back(c);
  ListColoringResult r = GreedyListColoring(g, {}, candidates);
  EXPECT_TRUE(r.skipped.empty());
  EXPECT_TRUE(IsProperColoring(g, r.colors));

  // With few candidates, skipped vertices are exactly the uncolored ones and
  // the colored sub-assignment violates no edge among colored vertices.
  ListColoringResult tight = GreedyListColoring(g, {}, {0, 1});
  for (int v : tight.skipped) {
    EXPECT_EQ(tight.colors[static_cast<size_t>(v)], kNoColor);
  }
  for (size_t e = 0; e < g.num_edges(); ++e) {
    const std::vector<int>& edge = g.edge(e);
    int64_t c0 = tight.colors[static_cast<size_t>(edge[0])];
    int64_t c1 = tight.colors[static_cast<size_t>(edge[1])];
    if (c0 != kNoColor && c1 != kNoColor) {
      EXPECT_NE(c0, c1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColoringRandomTest,
                         ::testing::Range<uint64_t>(1, 16));

}  // namespace
}  // namespace cextend
