// S1's Hasse diagram on small shapes. RouteCcs builds the diagram from the
// containment pairs of ClassifyAll's relation matrix; each case routes a
// CC set whose CCs all stay active and in S1, over an Age interval and an
// Area, and pins the covering edges and the roots. The census families and
// seeded random sets are checked against the all-pairs reference in
// core/hybrid_routing_test.cc.

#include <vector>

#include <gtest/gtest.h>

#include "constraints/relationship.h"
#include "core/hybrid.h"

namespace cextend {
namespace {

Schema R1Schema() {
  return Schema{{"Age", DataType::kInt64}, {"Rel", DataType::kString}};
}
Schema R2Schema() { return Schema{{"Area", DataType::kString}}; }

CardinalityConstraint AgeCc(int64_t lo, int64_t hi, const char* area) {
  CardinalityConstraint cc;
  cc.r1_condition.Between("Age", lo, hi);
  cc.r2_condition.Eq("Area", Value(area));
  return cc;
}

/// A CC on ages [10,20] whose Area condition admits no value, so it is
/// contained in every CC with a wider Age interval.
CardinalityConstraint EmptyAreaCc() {
  CardinalityConstraint cc;
  cc.r1_condition.Between("Age", 10, 20);
  cc.r2_condition.Eq("Area", Value("Chicago")).Eq("Area", Value("NYC"));
  return cc;
}

/// Routes `ccs`, expects every CC active and in S1, and returns S1's
/// diagram.
HasseDiagram Build(const std::vector<CardinalityConstraint>& ccs) {
  auto relations = ClassifyAll(ccs, R1Schema(), R2Schema());
  EXPECT_TRUE(relations.ok()) << relations.status().ToString();
  const CcRouting routing = RouteCcs(*relations, ccs, /*force_ilp=*/false);
  EXPECT_EQ(routing.active.size(), ccs.size());
  EXPECT_EQ(routing.s1.size(), ccs.size());
  EXPECT_EQ(routing.s1_diagram.children.size(), ccs.size());
  return routing.s1_diagram;
}

using Children = std::vector<std::vector<int>>;

// The shape of the paper's Example 4.6: CC1 and CC2 alone, CC3 containing
// CC4. CC1's interval is [10,12] and CC2's [70,80] so that both are
// disjoint from CC3 as the example intends (an interval inside CC3's with
// another Area would intersect it, and the pair would go to the ILP).
TEST(HasseDiagramTest, PaperExample46Shape) {
  const HasseDiagram d = Build({
      AgeCc(10, 12, "Chicago"),  // CC1
      AgeCc(70, 80, "NYC"),      // CC2
      AgeCc(13, 64, "Chicago"),  // CC3
      AgeCc(18, 24, "Chicago"),  // CC4 ⊆ CC3
  });
  EXPECT_EQ(d.children, (Children{{}, {}, {3}, {}}));
  EXPECT_EQ(d.roots, (std::vector<int>{0, 1, 2}));
}

TEST(HasseDiagramTest, TransitiveReduction) {
  // a ⊃ b ⊃ c: the pair (a, c) is no edge.
  const HasseDiagram d = Build({
      AgeCc(0, 100, "X"),  // a
      AgeCc(10, 50, "X"),  // b
      AgeCc(20, 30, "X"),  // c
  });
  EXPECT_EQ(d.children, (Children{{1}, {2}, {}}));
  EXPECT_EQ(d.roots, (std::vector<int>{0}));
}

TEST(HasseDiagramTest, SharedChildTwoParents) {
  // a and b have the same R1 condition and disjoint Areas (Definition 4.2,
  // second clause); c is contained in both. No pair intersects, so all
  // three stay in S1.
  const HasseDiagram d = Build(
      {AgeCc(0, 50, "Chicago"), AgeCc(0, 50, "NYC"), EmptyAreaCc()});
  EXPECT_EQ(d.children, (Children{{2}, {2}, {}}));
  EXPECT_EQ(d.roots, (std::vector<int>{0, 1}));
}

TEST(HasseDiagramTest, RootsGoDiagramByDiagram) {
  // The diagram of CC 0 has two maximal elements, 0 and 3 (sharing child 4,
  // as above); the diagram of CC 1 lies between them. Roots list the whole
  // first diagram before the second.
  const HasseDiagram d = Build({
      AgeCc(0, 50, "Chicago"),  // 0
      AgeCc(60, 90, "X"),       // 1
      AgeCc(70, 80, "X"),       // 2 ⊂ 1
      AgeCc(0, 50, "NYC"),      // 3
      EmptyAreaCc(),            // 4 ⊂ 0, 4 ⊂ 3
  });
  EXPECT_EQ(d.children, (Children{{4}, {2}, {}, {4}, {}}));
  EXPECT_EQ(d.roots, (std::vector<int>{0, 3, 1}));
}

TEST(HasseDiagramTest, AllDisjointIsAllSingletons) {
  const HasseDiagram d =
      Build({AgeCc(0, 9, "X"), AgeCc(10, 19, "X"), AgeCc(20, 29, "X")});
  EXPECT_EQ(d.children, (Children{{}, {}, {}}));
  EXPECT_EQ(d.roots, (std::vector<int>{0, 1, 2}));
}

TEST(HasseDiagramTest, EmptyInput) {
  const HasseDiagram d = Build({});
  EXPECT_TRUE(d.children.empty());
  EXPECT_TRUE(d.roots.empty());
}

}  // namespace
}  // namespace cextend
