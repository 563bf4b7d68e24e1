// Phase II must be a pure function of (input, seed): the same seed at 1, 2,
// and 8 coloring threads — and across repeated runs — must produce identical
// r1_hat / r2_hat tables. Historically this broke in two ways: fresh keys
// were handed out from a shared counter in thread-scheduling order, and the
// serial path threaded one RNG across partitions while the parallel path
// derived per-task RNGs.

#include <map>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/conflict.h"
#include "core/phase2.h"
#include "core/plan.h"
#include "core/shard_executor.h"
#include "graph/list_coloring.h"
#include "test_util.h"
#include "util/rng.h"

namespace cextend {
namespace {

using testing_fixtures::ExpectTablesEqual;
using testing_fixtures::Phase2Tables;
using testing_fixtures::PlanAndExecutePhase2;

struct Instance {
  Table persons;
  Table housing;
  PairSchema names;
  std::vector<DenialConstraint> dcs;
  std::vector<CardinalityConstraint> ccs;
  Table v_join;
  std::vector<uint32_t> invalid;
};

/// 400 persons across 8 areas with 2 houses each: crowded partitions (many
/// fresh keys per partition), ~5% invalid rows (exercises the repair path),
/// clique + ordering + arity-3 DCs (implicit, indexed and hypergraph layers).
/// A ninth area "A8" has houses but no valid rows, and a CC steers invalid
/// multilingual rows away from A0..A7, so repair targets both a colored
/// partition (A0, one repaired row: probed by scans) and a combo with no
/// partition (A8, a large group: probed through a per-combo oracle).
Instance MakeInstance() {
  Schema persons_schema{{"pid", DataType::kInt64},
                        {"Age", DataType::kInt64},
                        {"Rel", DataType::kString},
                        {"ML", DataType::kInt64},
                        {"hid", DataType::kInt64}};
  Table persons{persons_schema};
  Rng rng(123);
  const char* rels[] = {"Owner", "Spouse", "Child", "Other"};
  constexpr size_t kPersons = 400;
  for (size_t i = 0; i < kPersons; ++i) {
    CEXTEND_CHECK(persons
                      .AppendRow({Value(static_cast<int64_t>(i + 1)),
                                  Value(rng.UniformInt(0, 90)),
                                  Value(rels[rng.UniformInt(0, 3)]),
                                  Value(rng.UniformInt(0, 1)), Value::Null()})
                      .ok());
  }
  Schema housing_schema{{"hid", DataType::kInt64}, {"Area", DataType::kString}};
  Table housing{housing_schema};
  constexpr size_t kAreas = 8;
  for (size_t h = 0; h < 2 * (kAreas + 1); ++h) {
    std::string area = "A" + std::to_string(h / 2);
    CEXTEND_CHECK(
        housing.AppendRow({Value(static_cast<int64_t>(h + 1)), Value(area)})
            .ok());
  }
  auto names = PairSchema::Infer(persons, housing, "pid", "hid", "hid");
  CEXTEND_CHECK(names.ok());

  std::vector<DenialConstraint> dcs;
  {
    DenialConstraint dc(2, "owner-owner");
    dc.Unary(0, "Rel", CompareOp::kEq, Value("Owner"));
    dc.Unary(1, "Rel", CompareOp::kEq, Value("Owner"));
    dcs.push_back(std::move(dc));
  }
  {
    DenialConstraint dc(2, "age-gap");
    dc.Unary(0, "Rel", CompareOp::kEq, Value("Owner"));
    dc.Unary(1, "Rel", CompareOp::kEq, Value("Spouse"));
    dc.Binary(1, "Age", CompareOp::kLt, 0, "Age", -40);
    dcs.push_back(std::move(dc));
  }
  {
    DenialConstraint dc(3, "three-ml-children");
    for (int var = 0; var < 3; ++var) {
      dc.Unary(var, "Rel", CompareOp::kEq, Value("Child"));
      dc.Unary(var, "ML", CompareOp::kEq, Value(int64_t{1}));
    }
    dcs.push_back(std::move(dc));
  }
  std::vector<CardinalityConstraint> ccs(1);
  ccs[0].name = "multilingual-outside-A8";
  ccs[0].r1_condition.Eq("ML", Value(int64_t{1}));
  ccs[0].r2_condition.Ne("Area", Value("A8"));
  ccs[0].target = 0;

  auto v = MakeJoinView(persons, housing, names.value());
  CEXTEND_CHECK(v.ok());
  Table v_join = std::move(v).value();
  size_t area_v = v_join.schema().IndexOrDie("Area");
  size_t area_r2 = housing.schema().IndexOrDie("Area");
  std::vector<uint32_t> invalid;
  // Every tenth row is invalid if multilingual; one monolingual row is too.
  const size_t ml_v = v_join.schema().IndexOrDie("ML");
  bool monolingual_invalid = false;
  for (size_t r = 0; r < kPersons; ++r) {
    const bool multilingual = v_join.GetValue(r, ml_v).AsInt() == 1;
    if (r % 10 == 0 && (multilingual || !monolingual_invalid)) {
      monolingual_invalid |= !multilingual;
      invalid.push_back(static_cast<uint32_t>(r));
      continue;
    }
    // Round-robin areas; codes are shared with the housing dictionary.
    v_join.SetCode(r, area_v, housing.GetCode(2 * (r % kAreas), area_r2));
  }
  return Instance{std::move(persons), std::move(housing),
                  std::move(names).value(), std::move(dcs),
                  std::move(ccs), std::move(v_join),
                  std::move(invalid)};
}

Phase2Tables RunAt(const Instance& instance, size_t threads,
                   bool random_assignment = false) {
  Table v_join = instance.v_join.Clone();  // planning repairs invalid rows
  Phase2Options options;
  options.num_threads = threads;
  options.seed = 9;
  options.random_assignment = random_assignment;
  auto result = PlanAndExecutePhase2(v_join, instance.persons,
                                     instance.housing, instance.names,
                                     instance.dcs, instance.ccs,
                                     instance.invalid, options);
  CEXTEND_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// Test-side reference for the repair stage: per repair combo, builds a
/// conflict oracle over the partition rows plus the repair group and
/// re-derives every repaired row's key with WouldViolate, taking the first
/// fitting key in combos.keys order. A row no key fits must get a fresh key,
/// minted in ascending order.
void ExpectRepairMatchesRebuiltOracle(const PreparedPlan& prepared,
                                      const Table& r1_hat, size_t fk_col,
                                      const char* what) {
  int64_t last_fresh = kNoColor;
  for (const auto& [combo_id, group] : prepared.repair_groups) {
    std::vector<uint32_t> rows;
    const size_t partition =
        prepared.partition_of_combo[prepared.plan->row_combo[group.front()]];
    if (partition != PreparedPlan::kNoPartition) {
      rows = prepared.partitions[partition].rows;
    }
    const size_t num_colored = rows.size();
    rows.insert(rows.end(), group.begin(), group.end());
    auto oracle =
        BuildPartitionOracle(*prepared.v_join, prepared.bound_dcs, rows);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    std::map<int64_t, std::vector<size_t>> bucket;
    for (size_t v = 0; v < num_colored; ++v) {
      bucket[r1_hat.GetCode(rows[v], fk_col)].push_back(v);
    }
    for (size_t g = 0; g < group.size(); ++g) {
      const size_t local = num_colored + g;
      const int64_t actual = r1_hat.GetCode(group[g], fk_col);
      int64_t expected = kNoColor;
      for (int64_t key : prepared.combos.keys(combo_id)) {
        auto it = bucket.find(key);
        if (it == bucket.end() ||
            !oracle.value()->WouldViolate(local, it->second)) {
          expected = key;
          break;
        }
      }
      if (expected == kNoColor) {
        EXPECT_GE(actual, prepared.fresh_base) << what << " row " << group[g];
        EXPECT_GT(actual, last_fresh) << what << " row " << group[g];
        last_fresh = actual;
      } else {
        EXPECT_EQ(actual, expected) << what << " row " << group[g];
      }
      bucket[actual].push_back(local);
    }
  }
}

TEST(Phase2DeterminismTest, SameSeedIdenticalAcrossThreadCounts) {
  Instance instance = MakeInstance();
  Phase2Tables t1 = RunAt(instance, 1);
  // Crowded partitions must actually exercise fresh-key allocation — without
  // skips this test would vacuously pass.
  EXPECT_GT(t1.stats.skipped_vertices, 0u);
  EXPECT_GT(t1.stats.new_r2_tuples, 0u);
  EXPECT_GT(t1.stats.invalid_rows, 0u);
  for (size_t threads : {size_t{2}, size_t{8}}) {
    Phase2Tables tn = RunAt(instance, threads);
    ExpectTablesEqual(t1.r1_hat, tn.r1_hat, "r1_hat");
    ExpectTablesEqual(t1.r2_hat, tn.r2_hat, "r2_hat");
    EXPECT_EQ(t1.stats.skipped_vertices, tn.stats.skipped_vertices);
    EXPECT_EQ(t1.stats.new_r2_tuples, tn.stats.new_r2_tuples);
  }
}

TEST(Phase2DeterminismTest, RepeatedRunsAreStable) {
  Instance instance = MakeInstance();
  Phase2Tables first = RunAt(instance, 8);
  for (int trial = 0; trial < 3; ++trial) {
    Phase2Tables again = RunAt(instance, 8);
    ExpectTablesEqual(first.r1_hat, again.r1_hat, "r1_hat");
    ExpectTablesEqual(first.r2_hat, again.r2_hat, "r2_hat");
  }
}

TEST(Phase2DeterminismTest, RepairMatchesRebuiltOracleReference) {
  // The repair stage probes keys against retained colors, by DC scans or a
  // per-combo oracle; an oracle rebuilt on the test side must agree on every
  // repaired row, at any thread count and in random-assignment mode.
  Instance instance = MakeInstance();
  Table v_join = instance.v_join.Clone();
  SynthesisPlanOptions plan_options;
  plan_options.seed = 9;
  auto plan = BuildSynthesisPlan(v_join, instance.housing, instance.names,
                                 instance.ccs, instance.invalid, plan_options);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto prepared = PreparePlan(plan.value(), v_join, instance.housing,
                              instance.names, instance.dcs);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  // Both repair shapes must occur, else a comparison would be vacuous.
  size_t without_partition = 0;
  for (const auto& [combo_id, group] : prepared->repair_groups) {
    if (prepared->partition_of_combo[plan->row_combo[group.front()]] ==
        PreparedPlan::kNoPartition) {
      ++without_partition;
    }
  }
  EXPECT_GT(without_partition, 0u);
  EXPECT_LT(without_partition, prepared->repair_groups.size());
  ASSERT_EQ(prepared->repair_groups.size(), 2u);

  const size_t fk_col = instance.persons.schema().IndexOrDie("hid");
  struct Mode {
    size_t threads;
    bool random_assignment;
    const char* what;
  };
  for (Mode mode : {Mode{1, false, "1 thread"}, Mode{2, false, "2 threads"},
                    Mode{8, false, "8 threads"}, Mode{1, true, "random"}}) {
    Phase2Options options;
    options.seed = 9;
    options.num_threads = mode.threads;
    options.random_assignment = mode.random_assignment;
    TableSink sink(instance.persons, instance.housing, instance.names);
    auto stats = ExecutePlan(prepared.value(), options, &sink);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    // One combo per conflict source.
    EXPECT_EQ(stats->oracle_repair_combos, 1u) << mode.what;
    ExpectRepairMatchesRebuiltOracle(prepared.value(), sink.r1_hat(), fk_col,
                                     mode.what);
  }
}

TEST(Phase2DeterminismTest, RandomAssignmentMatchesAcrossThreadCounts) {
  // The baseline mode draws keys from the per-partition RNG streams; the
  // serial path must derive them exactly like the parallel path.
  Instance instance = MakeInstance();
  Phase2Tables t1 = RunAt(instance, 1, /*random_assignment=*/true);
  Phase2Tables t4 = RunAt(instance, 4, /*random_assignment=*/true);
  ExpectTablesEqual(t1.r1_hat, t4.r1_hat, "r1_hat");
  ExpectTablesEqual(t1.r2_hat, t4.r2_hat, "r2_hat");
}

}  // namespace
}  // namespace cextend
