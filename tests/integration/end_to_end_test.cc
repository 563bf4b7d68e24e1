// Cross-module property tests on generated census data: the central claims
// of the paper, checked over multiple seeds.
//   * DC error is always exactly 0 (Prop. 5.5),
//   * the join identity R̂1 ⋈ R̂2 = V_join holds,
//   * good (non-intersecting) CC families are satisfied exactly,
//   * the hybrid beats the plain baseline on CC error.

#include <gtest/gtest.h>

#include "constraints/metrics.h"
#include "core/baseline.h"
#include "core/solver.h"
#include "datagen/census.h"
#include "datagen/constraint_gen.h"

namespace cextend {
namespace {

using datagen::CcFamilyOptions;
using datagen::CensusData;
using datagen::CensusOptions;
using datagen::GenerateCcs;
using datagen::GenerateCensus;
using datagen::MakeCensusDcs;

struct Instance {
  CensusData data;
  std::vector<CardinalityConstraint> ccs;
  std::vector<DenialConstraint> dcs;
};

Instance MakeInstance(uint64_t seed, bool bad_ccs, bool all_dcs,
                      size_t persons = 1500, size_t houses = 580,
                      size_t num_ccs = 80) {
  CensusOptions options;
  options.num_persons = persons;
  options.num_households = houses;
  options.seed = seed;
  auto data = GenerateCensus(options);
  CEXTEND_CHECK(data.ok());
  CcFamilyOptions cc_options;
  cc_options.num_ccs = num_ccs;
  cc_options.intersecting = bad_ccs;
  auto ccs = GenerateCcs(data.value(), cc_options);
  CEXTEND_CHECK(ccs.ok()) << ccs.status().ToString();
  return Instance{std::move(data).value(), std::move(ccs).value(),
                  MakeCensusDcs(!all_dcs)};
}

class EndToEndTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool, bool>> {};

TEST_P(EndToEndTest, HybridGuarantees) {
  auto [seed, bad_ccs, all_dcs] = GetParam();
  Instance instance = MakeInstance(seed, bad_ccs, all_dcs);
  SolverOptions options;
  options.seed = seed;
  auto solution =
      SolveCExtension(instance.data.persons, instance.data.housing,
                      instance.data.names, instance.ccs, instance.dcs,
                      options);
  ASSERT_TRUE(solution.ok()) << solution.status();

  // (1) DC error is exactly zero — the paper's hard guarantee.
  auto dc_report =
      EvaluateDcError(instance.dcs, solution->r1_hat, "hid");
  ASSERT_TRUE(dc_report.ok());
  EXPECT_EQ(dc_report->num_violations, 0u) << dc_report->Summary();

  // (2) Join identity (Prop. 5.5).
  auto mismatches = CountJoinMismatches(
      solution->r1_hat, "hid", solution->r2_hat, "hid", solution->v_join,
      instance.data.names.r2_attrs);
  ASSERT_TRUE(mismatches.ok()) << mismatches.status();
  EXPECT_EQ(mismatches.value(), 0u);

  // (3) Every FK assigned.
  size_t hid_col = solution->r1_hat.schema().IndexOrDie("hid");
  for (size_t r = 0; r < solution->r1_hat.NumRows(); ++r) {
    ASSERT_FALSE(solution->r1_hat.IsNull(r, hid_col));
  }

  // (4) CC error: exactly zero for good families (all CCs through the Hasse
  // path), small for bad ones.
  auto cc_report = EvaluateCcError(instance.ccs, solution->v_join);
  ASSERT_TRUE(cc_report.ok());
  if (!bad_ccs) {
    EXPECT_EQ(cc_report->num_exact, instance.ccs.size())
        << cc_report->Summary();
  } else {
    EXPECT_EQ(cc_report->median, 0.0) << cc_report->Summary();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, EndToEndTest,
    ::testing::Combine(::testing::Values<uint64_t>(3, 17, 29),
                       ::testing::Bool(), ::testing::Bool()));

// The guarantees must hold at every R2 width of Figure 12's sweep: more B
// columns means more combos, more partitions and partial-information DCs.
class R2WidthTest : public ::testing::TestWithParam<size_t> {};

TEST_P(R2WidthTest, GuaranteesAcrossR2Widths) {
  size_t num_r2_columns = GetParam();
  datagen::CensusOptions census;
  census.num_persons = 1200;
  census.num_households = 470;
  census.num_r2_columns = num_r2_columns;
  census.seed = 404;
  auto data = GenerateCensus(census);
  ASSERT_TRUE(data.ok());
  CcFamilyOptions cc_options;
  cc_options.num_ccs = 60;
  auto ccs = GenerateCcs(data.value(), cc_options);
  ASSERT_TRUE(ccs.ok());
  std::vector<DenialConstraint> dcs = MakeCensusDcs(false);
  auto solution = SolveCExtension(data->persons, data->housing, data->names,
                                  *ccs, dcs, {});
  ASSERT_TRUE(solution.ok()) << solution.status();
  auto dc_report = EvaluateDcError(dcs, solution->r1_hat, "hid");
  ASSERT_TRUE(dc_report.ok());
  EXPECT_EQ(dc_report->num_violations, 0u) << dc_report->Summary();
  auto mismatches = CountJoinMismatches(solution->r1_hat, "hid",
                                        solution->r2_hat, "hid",
                                        solution->v_join,
                                        data->names.r2_attrs);
  ASSERT_TRUE(mismatches.ok()) << mismatches.status();
  EXPECT_EQ(mismatches.value(), 0u);
  auto cc_report = EvaluateCcError(*ccs, solution->v_join);
  ASSERT_TRUE(cc_report.ok());
  EXPECT_EQ(cc_report->median, 0.0) << cc_report->Summary();
}

INSTANTIATE_TEST_SUITE_P(Widths, R2WidthTest,
                         ::testing::Values(2u, 4u, 6u, 8u, 10u));

TEST(EndToEndComparisonTest, HybridBeatsBaselineOnJointError) {
  Instance instance = MakeInstance(101, /*bad_ccs=*/false, /*all_dcs=*/true);
  SolverOptions options;
  options.seed = 101;
  auto hybrid =
      SolveCExtension(instance.data.persons, instance.data.housing,
                      instance.data.names, instance.ccs, instance.dcs,
                      options);
  auto baseline = SolveBaseline(instance.data.persons, instance.data.housing,
                                instance.data.names, instance.ccs,
                                instance.dcs, BaselineKind::kPlain, options);
  ASSERT_TRUE(hybrid.ok() && baseline.ok());
  auto hybrid_dc = EvaluateDcError(instance.dcs, hybrid->r1_hat, "hid");
  auto baseline_dc = EvaluateDcError(instance.dcs, baseline->r1_hat, "hid");
  ASSERT_TRUE(hybrid_dc.ok() && baseline_dc.ok());
  EXPECT_EQ(hybrid_dc->error, 0.0);
  EXPECT_GT(baseline_dc->error, 0.0) << baseline_dc->Summary();
}

TEST(EndToEndComparisonTest, MarginalsBaselineSatisfiesCcsButNotDcs) {
  Instance instance = MakeInstance(202, /*bad_ccs=*/false, /*all_dcs=*/true);
  SolverOptions options;
  options.seed = 202;
  auto baseline = SolveBaseline(instance.data.persons, instance.data.housing,
                                instance.data.names, instance.ccs,
                                instance.dcs, BaselineKind::kWithMarginals,
                                options);
  ASSERT_TRUE(baseline.ok());
  auto cc_report = EvaluateCcError(instance.ccs, baseline->v_join);
  ASSERT_TRUE(cc_report.ok());
  EXPECT_EQ(cc_report->median, 0.0) << cc_report->Summary();
  auto dc_report = EvaluateDcError(instance.dcs, baseline->r1_hat, "hid");
  ASSERT_TRUE(dc_report.ok());
  EXPECT_GT(dc_report->error, 0.0) << dc_report->Summary();
}

TEST(EndToEndParallelTest, ParallelColoringKeepsGuarantees) {
  Instance instance = MakeInstance(303, /*bad_ccs=*/false, /*all_dcs=*/true);
  SolverOptions options;
  options.seed = 303;
  options.phase2.num_threads = 4;
  auto solution =
      SolveCExtension(instance.data.persons, instance.data.housing,
                      instance.data.names, instance.ccs, instance.dcs,
                      options);
  ASSERT_TRUE(solution.ok());
  auto dc_report = EvaluateDcError(instance.dcs, solution->r1_hat, "hid");
  ASSERT_TRUE(dc_report.ok());
  EXPECT_EQ(dc_report->num_violations, 0u);
  auto mismatches = CountJoinMismatches(
      solution->r1_hat, "hid", solution->r2_hat, "hid", solution->v_join,
      instance.data.names.r2_attrs);
  ASSERT_TRUE(mismatches.ok());
  EXPECT_EQ(mismatches.value(), 0u);
}

}  // namespace
}  // namespace cextend
