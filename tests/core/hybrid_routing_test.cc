// RouteCcs splits CCs between Algorithm 2 and Algorithm 1 by the
// components that containment pairs form among the active CCs, and builds
// S1's Hasse diagram from those pairs. The reference below routes by the
// components of the all-pairs Hasse construction (core/hasse_oracle.h) over
// the active CCs, after two all-pairs scans (duplicates, then
// intersections), and builds S1's diagram the same way over S1 alone; both
// must agree on the census CC families and on seeded random CC sets with
// duplicates, at both force_ilp settings. Small diagram shapes are pinned
// in constraints/hasse_diagram_test.cc.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "constraints/relationship.h"
#include "core/hasse_oracle.h"
#include "core/hybrid.h"
#include "datagen/census.h"
#include "datagen/constraint_gen.h"
#include "test_util.h"
#include "util/rng.h"

namespace cextend {
namespace {

CcRouting ReferenceRouting(const CcRelationMatrix& relations,
                           const std::vector<CardinalityConstraint>& ccs,
                           bool force_ilp) {
  CcRouting routing;
  const size_t n = ccs.size();
  std::vector<char> active(n, 1);
  std::vector<char> tainted(n, 0);
  for (size_t i = 0; i < n; ++i) {
    if (!active[i]) continue;
    for (size_t j = i + 1; j < n; ++j) {
      if (!active[j] || relations.At(i, j) != CcRelation::kEqual) continue;
      if (ccs[i].target == ccs[j].target) {
        active[j] = 0;
        ++routing.duplicates_dropped;
      } else {
        tainted[i] = tainted[j] = 1;
      }
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (!active[i]) continue;
    for (size_t j = i + 1; j < n; ++j) {
      if (active[j] && relations.At(i, j) == CcRelation::kIntersecting) {
        tainted[i] = tainted[j] = 1;
      }
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (active[i]) routing.active.push_back(static_cast<int>(i));
  }
  const hasse_oracle::Diagram diagram =
      hasse_oracle::Build(relations, routing.active);
  std::vector<char> comp_tainted(routing.active.size(), 0);
  for (size_t a = 0; a < routing.active.size(); ++a) {
    if (force_ilp || tainted[static_cast<size_t>(routing.active[a])]) {
      comp_tainted[static_cast<size_t>(diagram.component[a])] = 1;
    }
  }
  for (size_t a = 0; a < routing.active.size(); ++a) {
    const bool to_ilp = comp_tainted[static_cast<size_t>(diagram.component[a])];
    (to_ilp ? routing.s2 : routing.s1).push_back(static_cast<int>(a));
  }

  // S1's diagram over S1 alone, renumbered from S1 order to `active` order.
  std::vector<int> s1_ids;
  for (int a : routing.s1) {
    s1_ids.push_back(routing.active[static_cast<size_t>(a)]);
  }
  const hasse_oracle::Diagram s1 = hasse_oracle::Build(relations, s1_ids);
  routing.s1_diagram.children.assign(routing.active.size(), {});
  for (size_t k = 0; k < s1_ids.size(); ++k) {
    for (int child : s1.children[k]) {
      routing.s1_diagram.children[static_cast<size_t>(routing.s1[k])]
          .push_back(routing.s1[static_cast<size_t>(child)]);
    }
  }
  for (int root : s1.roots) {
    routing.s1_diagram.roots.push_back(
        routing.s1[static_cast<size_t>(root)]);
  }
  return routing;
}

void ExpectSameRouting(const std::vector<CardinalityConstraint>& ccs,
                       const Schema& r1_schema, const Schema& r2_schema,
                       const std::string& what) {
  auto relations = ClassifyAll(ccs, r1_schema, r2_schema);
  ASSERT_TRUE(relations.ok()) << relations.status().ToString();
  for (bool force_ilp : {false, true}) {
    const CcRouting got = RouteCcs(*relations, ccs, force_ilp);
    const CcRouting want = ReferenceRouting(*relations, ccs, force_ilp);
    EXPECT_EQ(got.active, want.active) << what;
    EXPECT_EQ(got.s1, want.s1) << what << " force_ilp=" << force_ilp;
    EXPECT_EQ(got.s2, want.s2) << what << " force_ilp=" << force_ilp;
    EXPECT_EQ(got.duplicates_dropped, want.duplicates_dropped) << what;
    EXPECT_EQ(got.s1_diagram.children, want.s1_diagram.children)
        << what << " force_ilp=" << force_ilp;
    EXPECT_EQ(got.s1_diagram.roots, want.s1_diagram.roots)
        << what << " force_ilp=" << force_ilp;
  }
}

TEST(RouteCcsTest, CensusFamiliesMatchHasseOracle) {
  auto data = datagen::GenerateCensus(datagen::ScaledCensusOptions(0.1));
  ASSERT_TRUE(data.ok());
  auto v = MakeJoinView(data->persons, data->housing, data->names);
  ASSERT_TRUE(v.ok());
  for (bool intersecting : {false, true}) {
    for (size_t num_ccs : {size_t{201}, size_t{1001}}) {
      datagen::CcFamilyOptions cc_options;
      cc_options.num_ccs = num_ccs;
      cc_options.intersecting = intersecting;
      auto ccs = datagen::GenerateCcs(data.value(), cc_options);
      ASSERT_TRUE(ccs.ok());
      const CcRouting routing = RouteCcs(
          *ClassifyAll(*ccs, v->schema(), data->housing.schema()), *ccs,
          /*force_ilp=*/false);
      if (!intersecting) {
        EXPECT_TRUE(routing.s2.empty());
      } else {
        EXPECT_FALSE(routing.s1.empty());
        EXPECT_FALSE(routing.s2.empty());
      }
      ExpectSameRouting(*ccs, v->schema(), data->housing.schema(),
                        (intersecting ? "bad " : "good ") +
                            std::to_string(num_ccs));
    }
  }
}

/// A random CC over the paper example's columns: an Age interval, maybe a
/// Rel or MultiLing condition, maybe an Area condition. Narrow value ranges
/// make containment, equality and intersection all common.
CardinalityConstraint RandomCc(Rng& rng, size_t id) {
  CardinalityConstraint cc;
  cc.name = "cc" + std::to_string(id);
  const int64_t lo = rng.UniformInt(0, 6) * 10;
  cc.r1_condition.Between("Age", lo, lo + rng.UniformInt(0, 4) * 10 + 9);
  if (rng.Bernoulli(0.4)) {
    cc.r1_condition.Eq("Rel", Value(rng.Bernoulli(0.5) ? "Owner" : "Child"));
  }
  if (rng.Bernoulli(0.2)) {
    cc.r1_condition.In("Rel", {Value("Owner"), Value("Spouse")});
  }
  if (rng.Bernoulli(0.3)) {
    cc.r1_condition.Eq("MultiLing", Value(rng.UniformInt(0, 1)));
  }
  if (rng.Bernoulli(0.5)) {
    cc.r2_condition.Eq("Area", Value(rng.Bernoulli(0.5) ? "Chicago" : "NYC"));
  }
  cc.target = rng.UniformInt(0, 3);
  return cc;
}

TEST(RouteCcsTest, SeededRandomCcSetsMatchHasseOracle) {
  testing_fixtures::PaperExample ex = testing_fixtures::MakePaperExample();
  auto v = MakeJoinView(ex.persons, ex.housing, ex.names);
  ASSERT_TRUE(v.ok());
  size_t dropped = 0, mixed = 0, s1_edges = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    std::vector<CardinalityConstraint> ccs;
    const size_t n = static_cast<size_t>(rng.UniformInt(1, 60));
    for (size_t c = 0; c < n; ++c) {
      if (!ccs.empty() && rng.Bernoulli(0.15)) {
        // A duplicate of an earlier CC, with its target or another one.
        CardinalityConstraint copy = rng.Choice(ccs);
        copy.name = "dup" + std::to_string(c);
        if (rng.Bernoulli(0.5)) copy.target += 1;
        ccs.push_back(std::move(copy));
      } else {
        ccs.push_back(RandomCc(rng, c));
      }
    }
    ExpectSameRouting(ccs, v->schema(), ex.housing.schema(),
                      "seed " + std::to_string(seed));
    auto relations = ClassifyAll(ccs, v->schema(), ex.housing.schema());
    ASSERT_TRUE(relations.ok());
    const CcRouting routing = RouteCcs(*relations, ccs, false);
    dropped += routing.duplicates_dropped;
    if (!routing.s1.empty() && !routing.s2.empty()) ++mixed;
    for (const std::vector<int>& children : routing.s1_diagram.children) {
      s1_edges += children.size();
    }
  }
  // The sets exercise dropped duplicates, splits between both paths and
  // covering edges inside S1.
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(mixed, 5u);
  EXPECT_GT(s1_edges, 0u);
}

}  // namespace
}  // namespace cextend
