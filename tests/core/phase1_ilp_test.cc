#include "core/phase1_ilp.h"

#include <gtest/gtest.h>

#include "constraints/metrics.h"
#include "core/match_oracle.h"
#include "test_util.h"

namespace cextend {
namespace {

using testing_fixtures::MakePaperExample;
using testing_fixtures::PaperExample;

class IlpFixture {
 public:
  IlpFixture(const Table& r1, const Table& r2, const PairSchema& names,
             const std::vector<CardinalityConstraint>& ccs)
      : r2_(r2), names_(names), ccs_(ccs) {
    auto v = MakeJoinView(r1, r2, names);
    CEXTEND_CHECK(v.ok());
    v_join_ = std::make_unique<Table>(std::move(v).value());
    auto binning = Binning::Create(*v_join_, names.r1_attrs, ccs);
    CEXTEND_CHECK(binning.ok());
    binning_ = std::make_unique<Binning>(std::move(binning).value());
    auto combos = ComboIndex::Build(r2, names);
    CEXTEND_CHECK(combos.ok());
    combos_ = std::make_unique<ComboIndex>(std::move(combos).value());
    auto state = FillState::Create(v_join_.get(), names_, binning_.get());
    CEXTEND_CHECK(state.ok());
    state_ = std::make_unique<FillState>(std::move(state).value());
  }

  Status Run(const Phase1IlpOptions& options, Phase1IlpStats* stats) {
    CEXTEND_ASSIGN_OR_RETURN(std::vector<CcMatch> matches,
                             MatchCcs(*binning_, *combos_, r2_, ccs_));
    return RunPhase1Ilp(*state_, *combos_, ccs_, matches, options, stats);
  }

  Table& v_join() { return *v_join_; }
  FillState& state() { return *state_; }
  const ComboIndex& combos() { return *combos_; }

 private:
  const Table& r2_;
  PairSchema names_;
  std::vector<CardinalityConstraint> ccs_;
  std::unique_ptr<Table> v_join_;
  std::unique_ptr<Binning> binning_;
  std::unique_ptr<ComboIndex> combos_;
  std::unique_ptr<FillState> state_;
};

TEST(Phase1IlpTest, PaperExample41AllCcsSatisfied) {
  // The full CC set of Figure 2b is intersecting; Algorithm 1 with marginals
  // (Example 4.1's setting) finds a zero-slack solution.
  PaperExample ex = MakePaperExample();
  IlpFixture fx(ex.persons, ex.housing, ex.names, ex.ccs);
  Phase1IlpOptions options;
  Phase1IlpStats stats;
  ASSERT_TRUE(fx.Run(options, &stats).ok());
  EXPECT_NEAR(stats.slack_total, 0.0, 1e-6);
  // Example 4.1: 8 structural variables (4 bins x 2 areas) + per-bin unused
  // + 2 slack per CC.
  EXPECT_GE(stats.num_variables, 8u);
  auto report = EvaluateCcError(ex.ccs, fx.v_join());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->num_exact, ex.ccs.size()) << report->Summary();
}

TEST(Phase1IlpTest, MarginalsForceFullAccounting) {
  // With marginal rows every tuple is assigned: no leftovers remain pooled.
  PaperExample ex = MakePaperExample();
  IlpFixture fx(ex.persons, ex.housing, ex.names, ex.ccs);
  Phase1IlpOptions options;
  options.include_marginals = true;
  Phase1IlpStats stats;
  ASSERT_TRUE(fx.Run(options, &stats).ok());
  // All four bins of Example 4.1 are covered by CCs, so with marginals all
  // nine rows are matched by some variable; the solver may still leave some
  // in the unused pseudo-variable. Rows assigned + pooled must cover all.
  size_t assigned = 0;
  for (size_t r = 0; r < fx.v_join().NumRows(); ++r) {
    if (!fx.v_join().IsNull(r, fx.v_join().schema().IndexOrDie("Area")))
      ++assigned;
  }
  EXPECT_EQ(assigned + fx.state().total_unassigned(), 9u);
  EXPECT_EQ(assigned, 9u);  // Figure 5: every row gets an Area
}

TEST(Phase1IlpTest, WithoutMarginalsCanUndercount) {
  // The plain baseline's failure mode: demanding more tuples of a type than
  // exist. CC asks for 5 Chicago owners aged >= 70, but only 2 such owners
  // exist; without marginal rows the ILP claims success and the greedy fill
  // silently under-delivers.
  PaperExample ex = MakePaperExample();
  CardinalityConstraint cc;
  cc.name = "impossible";
  cc.r1_condition.Eq("Rel", Value("Owner")).Ge("Age", Value(int64_t{70}));
  cc.r2_condition.Eq("Area", Value("Chicago"));
  cc.target = 5;
  IlpFixture fx(ex.persons, ex.housing, ex.names, {cc});
  Phase1IlpOptions options;
  options.include_marginals = false;
  Phase1IlpStats stats;
  ASSERT_TRUE(fx.Run(options, &stats).ok());
  EXPECT_NEAR(stats.slack_total, 0.0, 1e-6);  // the ILP thinks all is well
  auto report = EvaluateCcError({cc}, fx.v_join());
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->per_cc[0], 0.0);  // ... but the data disagrees
}

TEST(Phase1IlpTest, WithMarginalsDetectsShortage) {
  // Same instance with marginals: the bin rows force consistency with R1, so
  // the slack reports the shortage honestly.
  PaperExample ex = MakePaperExample();
  CardinalityConstraint cc;
  cc.name = "impossible";
  cc.r1_condition.Eq("Rel", Value("Owner")).Ge("Age", Value(int64_t{70}));
  cc.r2_condition.Eq("Area", Value("Chicago"));
  cc.target = 5;
  IlpFixture fx(ex.persons, ex.housing, ex.names, {cc});
  Phase1IlpOptions options;
  options.include_marginals = true;
  Phase1IlpStats stats;
  ASSERT_TRUE(fx.Run(options, &stats).ok());
  EXPECT_NEAR(stats.slack_total, 3.0, 1e-6);  // 5 wanted, 2 exist
}

TEST(Phase1IlpTest, EmptyCcSetIsNoop) {
  PaperExample ex = MakePaperExample();
  IlpFixture fx(ex.persons, ex.housing, ex.names, {});
  Phase1IlpOptions options;
  Phase1IlpStats stats;
  ASSERT_TRUE(fx.Run(options, &stats).ok());
  EXPECT_EQ(fx.state().total_unassigned(), ex.persons.NumRows());
}

TEST(Phase1IlpTest, RespectsExistingAssignments) {
  // Pre-assign some rows (as the hybrid's recursion would), then run the ILP
  // over the rest; the bin rows must use the remaining pool sizes.
  PaperExample ex = MakePaperExample();
  IlpFixture fx(ex.persons, ex.housing, ex.names, {ex.ccs[1]});  // CC2: 2 NYC owners
  // Pop two owner rows manually and give them Chicago.
  auto combos = ComboIndex::Build(ex.housing, ex.names);
  ASSERT_TRUE(combos.ok());
  Predicate chicago;
  chicago.Eq("Area", Value("Chicago"));
  auto chicago_ids =
      match_oracle::MatchingCombos(*combos, ex.housing, chicago);
  ASSERT_TRUE(chicago_ids.ok());
  size_t popped = 0;
  for (size_t bin = 0; bin < fx.state().num_bins() && popped < 2; ++bin) {
    auto rows = fx.state().PopRows(bin, 2 - popped);
    for (uint32_t row : rows) {
      fx.state().AssignFullCombo(row,
                                 combos->combo_codes(chicago_ids->front()));
      ++popped;
    }
  }
  Phase1IlpOptions options;
  Phase1IlpStats stats;
  ASSERT_TRUE(fx.Run(options, &stats).ok());
  EXPECT_NEAR(stats.slack_total, 0.0, 1e-6);
  auto report = EvaluateCcError({ex.ccs[1]}, fx.v_join());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->num_exact, 1u);
}

}  // namespace
}  // namespace cextend
