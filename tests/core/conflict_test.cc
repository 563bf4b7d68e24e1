#include "core/conflict.h"

#include <gtest/gtest.h>

#include "graph/list_coloring.h"
#include "test_util.h"
#include "util/rng.h"

namespace cextend {
namespace {

/// A small table shaped like the NAE-3SAT encoding: one int column `Cls`.
Table ClauseTable(const std::vector<int64_t>& cls) {
  Schema schema{{"Cls", DataType::kInt64}};
  Table t{schema};
  for (int64_t c : cls) CEXTEND_CHECK(t.AppendRow({Value(c)}).ok());
  return t;
}

DenialConstraint TernaryClauseDc() {
  DenialConstraint dc(3, "clause-nae");
  dc.Binary(0, "Cls", CompareOp::kEq, 1, "Cls");
  dc.Binary(1, "Cls", CompareOp::kEq, 2, "Cls");
  return dc;
}

TEST(ConflictOracleTernaryTest, HyperedgesPerClause) {
  // Two clauses of three rows each: one hyperedge per clause.
  Table t = ClauseTable({7, 7, 7, 9, 9, 9});
  auto bound = BindAll({TernaryClauseDc()}, t);
  ASSERT_TRUE(bound.ok());
  const DcRowClasses classes = DcRowClasses::Build(t, bound.value());
  auto oracle = PartitionConflictOracle::Build(t, classes,
                                               {0, 1, 2, 3, 4, 5});
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  // Each vertex sits in exactly one hyperedge.
  for (size_t v = 0; v < 6; ++v) EXPECT_EQ(oracle->Degree(v), 1);
  // No *pairwise* conflicts: a 3-ary edge only forbids monochrome triples.
  EXPECT_FALSE(oracle->PairConflicts(0, 1));

  // Forbidden colors: vertex 0 is only constrained when 1 AND 2 share.
  std::vector<int64_t> colors = {kNoColor, 5, kNoColor, kNoColor, kNoColor,
                                 kNoColor};
  std::vector<int64_t> out;
  oracle->AppendForbiddenColors(0, colors, &out);
  EXPECT_TRUE(out.empty());
  colors[2] = 5;
  oracle->AppendForbiddenColors(0, colors, &out);
  EXPECT_EQ(out, (std::vector<int64_t>{5}));

  // WouldViolate: joining a fully monochrome pair completes the edge.
  EXPECT_TRUE(oracle->WouldViolate(0, {1, 2}));
  EXPECT_FALSE(oracle->WouldViolate(0, {1}));
  EXPECT_FALSE(oracle->WouldViolate(0, {3, 4}));  // different clause
}

TEST(ConflictOracleTernaryTest, ColoringRespectsHyperedges) {
  Table t = ClauseTable({7, 7, 7});
  auto bound = BindAll({TernaryClauseDc()}, t);
  ASSERT_TRUE(bound.ok());
  const DcRowClasses classes = DcRowClasses::Build(t, bound.value());
  auto oracle = PartitionConflictOracle::Build(t, classes, {0, 1, 2});
  ASSERT_TRUE(oracle.ok());
  ListColoringResult r = GreedyListColoring(*oracle, {}, {0, 1});
  EXPECT_TRUE(r.skipped.empty());
  // At least two distinct colors among the three rows.
  EXPECT_FALSE(r.colors[0] == r.colors[1] && r.colors[1] == r.colors[2]);
}

TEST(ConflictOracleTernaryTest, CandidateCapIsEnforced) {
  // 60 rows of one clause: 60*59*58 ordered assignments exceed a small cap.
  std::vector<int64_t> cls(60, 1);
  Table t = ClauseTable(cls);
  auto bound = BindAll({TernaryClauseDc()}, t);
  ASSERT_TRUE(bound.ok());
  const DcRowClasses classes = DcRowClasses::Build(t, bound.value());
  std::vector<uint32_t> rows;
  for (uint32_t i = 0; i < 60; ++i) rows.push_back(i);
  ConflictOracleOptions options;
  options.max_hyperedge_candidates = 1000;
  auto oracle = PartitionConflictOracle::Build(t, classes, rows, options);
  EXPECT_FALSE(oracle.ok());
  EXPECT_EQ(oracle.status().code(), StatusCode::kResourceExhausted);
  // The factory propagates the hyperedge-cap error instead of falling back.
  auto via_factory = BuildPartitionOracle(t, classes, rows, options);
  EXPECT_FALSE(via_factory.ok());
  EXPECT_EQ(via_factory.status().code(), StatusCode::kResourceExhausted);
}

TEST(ConflictOracleTest, MixedBinaryAndTernary) {
  // Cls groups + a binary "same Cls may not pair" DC on value 9 only.
  Table t = ClauseTable({7, 7, 7, 9, 9});
  DenialConstraint binary(2, "no-nines-together");
  binary.Unary(0, "Cls", CompareOp::kEq, Value(int64_t{9}));
  binary.Unary(1, "Cls", CompareOp::kEq, Value(int64_t{9}));
  auto bound = BindAll({TernaryClauseDc(), binary}, t);
  ASSERT_TRUE(bound.ok());
  const DcRowClasses classes = DcRowClasses::Build(t, bound.value());
  auto oracle =
      PartitionConflictOracle::Build(t, classes, {0, 1, 2, 3, 4});
  ASSERT_TRUE(oracle.ok());
  EXPECT_TRUE(oracle->PairConflicts(3, 4));   // binary
  EXPECT_FALSE(oracle->PairConflicts(0, 1));  // ternary only
  EXPECT_EQ(oracle->Degree(3), 1);
  EXPECT_EQ(oracle->Degree(0), 1);
  // Edge count = 1 binary pair + 1 ternary edge (the 9s are only two rows,
  // so no 3-subset of them exists).
  EXPECT_EQ(oracle->CountEdges(), 2u);
}

TEST(ConflictOracleTest, EmptyAndSingletonPartitions) {
  Table t = ClauseTable({1});
  auto bound = BindAll({TernaryClauseDc()}, t);
  ASSERT_TRUE(bound.ok());
  const DcRowClasses classes = DcRowClasses::Build(t, bound.value());
  auto empty = PartitionConflictOracle::Build(t, classes, {});
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->NumVertices(), 0u);
  auto one = PartitionConflictOracle::Build(t, classes, {0});
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->Degree(0), 0);
  EXPECT_EQ(one->CountEdges(), 0u);
}

// ---- Invalid-tuple repair probes. ----

struct RepairInstance {
  Table table;
  DcRowClasses classes;
};

/// Household-shaped rows under a clique, an ordering and one `arity`-ary
/// "too many multilingual children" DC.
RepairInstance MakeRepairInstance(size_t n, int arity) {
  Schema schema{{"Rel", DataType::kString},
                {"Age", DataType::kInt64},
                {"ML", DataType::kInt64}};
  Table t{schema};
  Rng rng(17);
  const char* rels[] = {"Owner", "Spouse", "Child", "Other"};
  for (size_t i = 0; i < n; ++i) {
    CEXTEND_CHECK(t.AppendRow({Value(rels[rng.UniformInt(0, 3)]),
                               Value(rng.UniformInt(0, 90)),
                               Value(rng.UniformInt(0, 1))})
                      .ok());
  }
  std::vector<DenialConstraint> dcs;
  DenialConstraint owners(2, "owner-owner");
  owners.Unary(0, "Rel", CompareOp::kEq, Value("Owner"));
  owners.Unary(1, "Rel", CompareOp::kEq, Value("Owner"));
  dcs.push_back(std::move(owners));
  DenialConstraint gap(2, "age-gap");
  gap.Unary(0, "Rel", CompareOp::kEq, Value("Owner"));
  gap.Unary(1, "Rel", CompareOp::kEq, Value("Spouse"));
  gap.Binary(1, "Age", CompareOp::kLt, 0, "Age", -40);
  dcs.push_back(std::move(gap));
  DenialConstraint children(arity, "ml-children");
  for (int var = 0; var < arity; ++var) {
    children.Unary(var, "Rel", CompareOp::kEq, Value("Child"));
    children.Unary(var, "ML", CompareOp::kEq, Value(int64_t{1}));
  }
  dcs.push_back(std::move(children));
  auto bound = BindAll(dcs, t);
  CEXTEND_CHECK(bound.ok());
  DcRowClasses classes = DcRowClasses::Build(t, std::move(bound).value());
  return RepairInstance{std::move(t), std::move(classes)};
}

/// One AssignRepairKeys call: the keys, and what it added into its stats.
struct Repaired {
  std::vector<int64_t> keys;
  Phase2Stats stats;
};

/// Rows 0..colored+group of `instance`, the first `colored` in round-robin
/// buckets over `num_keys` candidate keys.
StatusOr<Repaired> Repair(const RepairInstance& instance, size_t colored,
                          size_t group, int64_t num_keys, RepairProbe probe,
                          const ConflictOracleOptions& options = {}) {
  std::vector<uint32_t> rows;
  for (uint32_t i = 0; i < colored + group; ++i) rows.push_back(i);
  std::vector<int64_t> colored_keys;
  for (size_t v = 0; v < colored; ++v) {
    colored_keys.push_back(static_cast<int64_t>(v) % num_keys);
  }
  std::vector<int64_t> keys;
  for (int64_t k = 0; k < num_keys; ++k) keys.push_back(k);
  Repaired out;
  CEXTEND_ASSIGN_OR_RETURN(
      out.keys, AssignRepairKeys(instance.table, instance.classes, rows,
                                 colored_keys, keys, probe, options,
                                 &out.stats));
  return out;
}

TEST(AssignRepairKeysTest, ConflictSourcesAgree) {
  struct Shape {
    size_t colored, group;
    int64_t keys;
  };
  size_t fitted = 0, fresh = 0;
  for (int arity : {3, 4}) {
    RepairInstance instance = MakeRepairInstance(260, arity);
    for (Shape s : {Shape{0, 6, 2}, Shape{0, 40, 3}, Shape{30, 5, 4},
                    Shape{60, 20, 3}, Shape{200, 3, 50}}) {
      auto scan = Repair(instance, s.colored, s.group, s.keys,
                         RepairProbe::kScan);
      auto oracle = Repair(instance, s.colored, s.group, s.keys,
                           RepairProbe::kOracle);
      auto by_size = Repair(instance, s.colored, s.group, s.keys,
                            RepairProbe::kBySize);
      ASSERT_TRUE(scan.ok() && oracle.ok() && by_size.ok());
      EXPECT_EQ(scan->stats.oracle_repair_combos, 0u);
      EXPECT_EQ(oracle->stats.oracle_repair_combos, 1u);
      EXPECT_EQ(scan->keys, oracle->keys)
          << "arity " << arity << " colored " << s.colored;
      EXPECT_EQ(scan->keys, by_size->keys)
          << "arity " << arity << " colored " << s.colored;
      for (int64_t key : scan->keys) ++(key == kNoColor ? fresh : fitted);
    }
  }
  // Both outcomes occur, so the comparison is not vacuous.
  EXPECT_GT(fitted, 0u);
  EXPECT_GT(fresh, 0u);
}

TEST(AssignRepairKeysTest, BySizePicksEachSource) {
  RepairInstance instance = MakeRepairInstance(500, 3);
  // No partition, a large group: scanning is quadratic in the group.
  auto group = Repair(instance, 0, 64, 4, RepairProbe::kBySize);
  ASSERT_TRUE(group.ok());
  EXPECT_EQ(group->stats.oracle_repair_combos, 1u);
  // A large colored partition in small buckets and two rows to repair: an
  // oracle build over the whole partition would dominate.
  auto few = Repair(instance, 400, 2, 100, RepairProbe::kBySize);
  ASSERT_TRUE(few.ok());
  EXPECT_EQ(few->stats.oracle_repair_combos, 0u);
}

TEST(AssignRepairKeysTest, OracleCapFallsBackToScans) {
  RepairInstance instance = MakeRepairInstance(100, 3);
  ConflictOracleOptions capped;
  capped.max_hyperedge_candidates = 10;
  auto fallback = Repair(instance, 40, 30, 3, RepairProbe::kOracle, capped);
  ASSERT_TRUE(fallback.ok()) << fallback.status().ToString();
  EXPECT_EQ(fallback->stats.oracle_repair_combos, 0u);
  auto scan = Repair(instance, 40, 30, 3, RepairProbe::kScan);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(fallback->keys, scan->keys);
}

}  // namespace
}  // namespace cextend
