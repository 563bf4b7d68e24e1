#include "graph/hypergraph.h"

#include <gtest/gtest.h>

#include "graph/coloring_oracle.h"
#include "graph/list_coloring.h"

namespace cextend {
namespace {

using coloring_oracle::IsProperColoring;

TEST(HypergraphTest, EdgesAndDegrees) {
  Hypergraph g(4);
  g.AddEdge({0, 1});
  g.AddEdge({1, 2, 3});
  EXPECT_EQ(g.NumVertices(), 4u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.Degree(0), 1);
  EXPECT_EQ(g.Degree(1), 2);
  EXPECT_EQ(g.Degree(2), 1);
  EXPECT_EQ(g.edge(1), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(g.incident_edges(1), (std::vector<int>{0, 1}));
}

TEST(HypergraphTest, ForbiddenColorsBinaryEdge) {
  Hypergraph g(3);
  g.AddEdge({0, 1});
  g.AddEdge({0, 2});
  std::vector<int64_t> colors = {kNoColor, 7, kNoColor};
  std::vector<int64_t> out;
  g.AppendForbiddenColors(0, colors, &out);
  EXPECT_EQ(out, (std::vector<int64_t>{7}));  // vertex 2 uncolored: no entry
}

TEST(HypergraphTest, ForbiddenColorsHyperedgeNeedsAllOthersSame) {
  Hypergraph g(3);
  g.AddEdge({0, 1, 2});
  std::vector<int64_t> out;
  // Only one other vertex colored: no forbidden color yet.
  g.AppendForbiddenColors(0, {kNoColor, 5, kNoColor}, &out);
  EXPECT_TRUE(out.empty());
  // Others share a color: forbidden.
  g.AppendForbiddenColors(0, {kNoColor, 5, 5}, &out);
  EXPECT_EQ(out, (std::vector<int64_t>{5}));
  // Others differ: the edge is already satisfied.
  out.clear();
  g.AppendForbiddenColors(0, {kNoColor, 5, 6}, &out);
  EXPECT_TRUE(out.empty());
}

TEST(HypergraphTest, ProperColoring) {
  Hypergraph g(3);
  g.AddEdge({0, 1});
  g.AddEdge({0, 1, 2});
  EXPECT_TRUE(IsProperColoring(g, {1, 2, 2}));
  EXPECT_FALSE(IsProperColoring(g, {1, 1, 2}));      // binary edge mono
  EXPECT_FALSE(IsProperColoring(g, {1, 2, kNoColor}));  // uncolored
  Hypergraph h(3);
  h.AddEdge({0, 1, 2});
  EXPECT_TRUE(IsProperColoring(h, {4, 4, 5}));  // two of three may share
  EXPECT_FALSE(IsProperColoring(h, {4, 4, 4}));
}

TEST(HypergraphTest, NoEdgesAlwaysProper) {
  Hypergraph g(2);
  EXPECT_TRUE(IsProperColoring(g, {1, 1}));
}

}  // namespace
}  // namespace cextend
