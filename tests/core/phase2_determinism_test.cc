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

using Instance = testing_fixtures::CrowdedInstance;

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
      for (int64_t key : prepared.combos->keys(combo_id)) {
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
  Instance instance = testing_fixtures::MakeCrowdedInstance();
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
  Instance instance = testing_fixtures::MakeCrowdedInstance();
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
  Instance instance = testing_fixtures::MakeCrowdedInstance();
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
  Instance instance = testing_fixtures::MakeCrowdedInstance();
  Phase2Tables t1 = RunAt(instance, 1, /*random_assignment=*/true);
  Phase2Tables t4 = RunAt(instance, 4, /*random_assignment=*/true);
  ExpectTablesEqual(t1.r1_hat, t4.r1_hat, "r1_hat");
  ExpectTablesEqual(t1.r2_hat, t4.r2_hat, "r2_hat");
}

}  // namespace
}  // namespace cextend
