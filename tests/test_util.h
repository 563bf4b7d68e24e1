// Shared fixtures: the paper's running example (Figures 1 and 2) and small
// helpers used across test binaries.

#ifndef CEXTEND_TESTS_TEST_UTIL_H_
#define CEXTEND_TESTS_TEST_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "constraints/cardinality_constraint.h"
#include "constraints/denial_constraint.h"
#include "core/join_view.h"
#include "core/phase2.h"
#include "core/plan.h"
#include "core/shard_executor.h"
#include "relational/table.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/statusor.h"

namespace cextend {
namespace testing_fixtures {

/// The database D of Figure 1 plus the constraints of Figure 2.
struct PaperExample {
  Table persons;   // R1: pid, Age, Rel, MultiLing, hid (hid all NULL)
  Table housing;   // R2: hid, Area
  PairSchema names;
  std::vector<CardinalityConstraint> ccs;  // CC1..CC4 (Figure 2b)
  std::vector<DenialConstraint> dcs;       // Figure 2a
};

inline PaperExample MakePaperExample() {
  Schema persons_schema{{"pid", DataType::kInt64},
                        {"Age", DataType::kInt64},
                        {"Rel", DataType::kString},
                        {"MultiLing", DataType::kInt64},
                        {"hid", DataType::kInt64}};
  Table persons{persons_schema};
  struct Row {
    int64_t pid, age;
    const char* rel;
    int64_t multi;
  };
  const Row rows[] = {
      {1, 75, "Owner", 0},  {2, 75, "Owner", 1},  {3, 25, "Owner", 0},
      {4, 25, "Owner", 1},  {5, 24, "Spouse", 0}, {6, 10, "Child", 1},
      {7, 10, "Child", 1},  {8, 30, "Owner", 0},  {9, 30, "Owner", 1},
  };
  for (const Row& r : rows) {
    CEXTEND_CHECK(persons
                      .AppendRow({Value(r.pid), Value(r.age), Value(r.rel),
                                  Value(r.multi), Value::Null()})
                      .ok());
  }

  Schema housing_schema{{"hid", DataType::kInt64}, {"Area", DataType::kString}};
  Table housing{housing_schema};
  for (int64_t hid = 1; hid <= 6; ++hid) {
    const char* area = hid <= 4 ? "Chicago" : "NYC";
    CEXTEND_CHECK(housing.AppendRow({Value(hid), Value(area)}).ok());
  }

  PaperExample ex{std::move(persons), std::move(housing), {}, {}, {}};
  auto names = PairSchema::Infer(ex.persons, ex.housing, "pid", "hid", "hid");
  CEXTEND_CHECK(names.ok());
  ex.names = std::move(names).value();

  // Figure 2b.
  {
    CardinalityConstraint cc;
    cc.name = "CC1";
    cc.r1_condition.Eq("Rel", Value("Owner"));
    cc.r2_condition.Eq("Area", Value("Chicago"));
    cc.target = 4;
    ex.ccs.push_back(cc);
  }
  {
    CardinalityConstraint cc;
    cc.name = "CC2";
    cc.r1_condition.Eq("Rel", Value("Owner"));
    cc.r2_condition.Eq("Area", Value("NYC"));
    cc.target = 2;
    ex.ccs.push_back(cc);
  }
  {
    CardinalityConstraint cc;
    cc.name = "CC3";
    cc.r1_condition.Le("Age", Value(int64_t{24}));
    cc.r2_condition.Eq("Area", Value("Chicago"));
    cc.target = 3;
    ex.ccs.push_back(cc);
  }
  {
    CardinalityConstraint cc;
    cc.name = "CC4";
    cc.r1_condition.Eq("MultiLing", Value(int64_t{1}));
    cc.r2_condition.Eq("Area", Value("Chicago"));
    cc.target = 4;
    ex.ccs.push_back(cc);
  }

  // Figure 2a.
  {
    DenialConstraint dc(2, "DC_O_O");
    dc.Unary(0, "Rel", CompareOp::kEq, Value("Owner"));
    dc.Unary(1, "Rel", CompareOp::kEq, Value("Owner"));
    ex.dcs.push_back(std::move(dc));
  }
  {
    DenialConstraint dc(2, "DC_O_S_low");
    dc.Unary(0, "Rel", CompareOp::kEq, Value("Owner"));
    dc.Unary(1, "Rel", CompareOp::kEq, Value("Spouse"));
    dc.Binary(1, "Age", CompareOp::kLt, 0, "Age", -50);
    ex.dcs.push_back(std::move(dc));
  }
  {
    DenialConstraint dc(2, "DC_O_S_up");
    dc.Unary(0, "Rel", CompareOp::kEq, Value("Owner"));
    dc.Unary(1, "Rel", CompareOp::kEq, Value("Spouse"));
    dc.Binary(1, "Age", CompareOp::kGt, 0, "Age", 50);
    ex.dcs.push_back(std::move(dc));
  }
  {
    DenialConstraint dc(2, "DC_O_C_low");
    dc.Unary(0, "Rel", CompareOp::kEq, Value("Owner"));
    dc.Unary(0, "MultiLing", CompareOp::kEq, Value(int64_t{1}));
    dc.Unary(1, "Rel", CompareOp::kEq, Value("Child"));
    dc.Binary(1, "Age", CompareOp::kLt, 0, "Age", -50);
    ex.dcs.push_back(std::move(dc));
  }
  {
    DenialConstraint dc(2, "DC_O_C_up");
    dc.Unary(0, "Rel", CompareOp::kEq, Value("Owner"));
    dc.Unary(0, "MultiLing", CompareOp::kEq, Value(int64_t{1}));
    dc.Unary(1, "Rel", CompareOp::kEq, Value("Child"));
    dc.Binary(1, "Age", CompareOp::kGt, 0, "Age", -12);
    ex.dcs.push_back(std::move(dc));
  }
  return ex;
}

struct CrowdedInstance {
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
/// clique + ordering + arity-3 DCs (self-adjacent buckets, ordered bucket
/// pairs and hyperedges).
/// A ninth area "A8" has houses but no valid rows, and a CC steers invalid
/// multilingual rows away from A0..A7, so repair targets both a colored
/// partition (A0, one repaired row: probed by scans) and a combo with no
/// partition (A8, a large group: probed through a per-combo oracle).
inline CrowdedInstance MakeCrowdedInstance() {
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
    std::string area = "A";
    area += std::to_string(h / 2);
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
  return CrowdedInstance{std::move(persons), std::move(housing),
                  std::move(names).value(), std::move(dcs),
                  std::move(ccs), std::move(v_join),
                  std::move(invalid)};
}

/// Threads alive in this process, counted from /proc/self/task; 0 where
/// that directory cannot be read.
inline size_t CountProcessThreads() {
  std::error_code ec;
  size_t n = 0;
  for (std::filesystem::directory_iterator it("/proc/self/task", ec), end;
       !ec && it != end; it.increment(ec)) {
    ++n;
  }
  return ec ? 0 : n;
}

/// Asserts two tables hold identical dictionary codes cell by cell.
inline void ExpectTablesEqual(const Table& a, const Table& b,
                              const char* what) {
  ASSERT_EQ(a.NumRows(), b.NumRows()) << what;
  ASSERT_EQ(a.NumColumns(), b.NumColumns()) << what;
  for (size_t r = 0; r < a.NumRows(); ++r) {
    for (size_t c = 0; c < a.NumColumns(); ++c) {
      ASSERT_EQ(a.GetCode(r, c), b.GetCode(r, c))
          << what << " differs at row " << r << ", col " << c;
    }
  }
}

/// Phase II's output as a TableSink collects it.
struct Phase2Tables {
  Table r1_hat;
  Table r2_hat;
  Phase2Stats stats;
};

/// Runs phase II on a hand-built join view whose `invalid_rows` still lack
/// B values: BuildSynthesisPlan (which writes the invalid rows' repair combos
/// into `v_join`, guided by `ccs`) → PreparePlan → ExecutePlan into a
/// TableSink (teed into `tee` when non-null).
inline StatusOr<Phase2Tables> PlanAndExecutePhase2(
    Table& v_join, const Table& r1, const Table& r2, const PairSchema& names,
    const std::vector<DenialConstraint>& dcs,
    const std::vector<CardinalityConstraint>& ccs,
    const std::vector<uint32_t>& invalid_rows, const Phase2Options& options,
    RowSink* tee = nullptr) {
  SynthesisPlanOptions plan_options;
  plan_options.seed = options.seed;
  plan_options.num_shards = options.num_shards;
  plan_options.num_threads_hint = options.num_threads;
  CEXTEND_ASSIGN_OR_RETURN(SynthesisPlan plan,
                           BuildSynthesisPlan(v_join, r2, names, ccs,
                                              invalid_rows, plan_options));
  CEXTEND_ASSIGN_OR_RETURN(PreparedPlan prepared,
                           PreparePlan(plan, v_join, r2, names, dcs));
  TableSink sink(r1, r2, names);
  TeeSink teed(&sink, tee);
  CEXTEND_ASSIGN_OR_RETURN(
      Phase2Stats stats,
      ExecutePlan(prepared, options,
                  tee == nullptr ? static_cast<RowSink*>(&sink) : &teed));
  return Phase2Tables{std::move(sink.r1_hat()), std::move(sink.r2_hat()),
                      stats};
}

}  // namespace testing_fixtures
}  // namespace cextend

#endif  // CEXTEND_TESTS_TEST_UTIL_H_
