// Shared fixtures: the paper's running example (Figures 1 and 2) and small
// helpers used across test binaries.

#ifndef CEXTEND_TESTS_TEST_UTIL_H_
#define CEXTEND_TESTS_TEST_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <filesystem>
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
/// TableSink.
inline StatusOr<Phase2Tables> PlanAndExecutePhase2(
    Table& v_join, const Table& r1, const Table& r2, const PairSchema& names,
    const std::vector<DenialConstraint>& dcs,
    const std::vector<CardinalityConstraint>& ccs,
    const std::vector<uint32_t>& invalid_rows, const Phase2Options& options) {
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
  CEXTEND_ASSIGN_OR_RETURN(Phase2Stats stats,
                           ExecutePlan(prepared, options, &sink));
  return Phase2Tables{std::move(sink.r1_hat()), std::move(sink.r2_hat()),
                      stats};
}

}  // namespace testing_fixtures
}  // namespace cextend

#endif  // CEXTEND_TESTS_TEST_UTIL_H_
