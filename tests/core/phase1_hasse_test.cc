#include "core/phase1_hasse.h"

#include <gtest/gtest.h>

#include "constraints/metrics.h"
#include "test_util.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace cextend {
namespace {

using testing_fixtures::MakePaperExample;
using testing_fixtures::PaperExample;

struct Workbench {
  Table v_join;
  Binning binning;
  ComboIndex combos;
  FillState state;
};

/// Builds the shared phase-I state for a CC set over the paper example (or a
/// custom pair). Keeps pointers valid by owning everything.
class HasseFixture {
 public:
  HasseFixture(const Table& r1, const Table& r2, const PairSchema& names,
               const std::vector<CardinalityConstraint>& ccs)
      : r2_(r2), names_(names), ccs_(ccs) {
    auto v = MakeJoinView(r1, r2, names);
    CEXTEND_CHECK(v.ok());
    v_join_ = std::make_unique<Table>(std::move(v).value());
    auto binning = Binning::Create(*v_join_, names.r1_attrs, ccs);
    CEXTEND_CHECK(binning.ok());
    binning_ = std::make_unique<Binning>(std::move(binning).value());
    auto combos = ComboIndex::Build(r2_, names);
    CEXTEND_CHECK(combos.ok());
    combos_ = std::make_unique<ComboIndex>(std::move(combos).value());
    auto state = FillState::Create(v_join_.get(), names, binning_.get());
    CEXTEND_CHECK(state.ok());
    state_ = std::make_unique<FillState>(std::move(state).value());
  }

  Status Run(Phase1HasseStats* stats) {
    return RunPhase1HasseStandalone(*state_, *combos_, ccs_,
                                    v_join_->schema(), r2_, stats);
  }

  StatusOr<std::vector<uint32_t>> Finish(Rng& rng, FinalFillStats* stats) {
    CEXTEND_ASSIGN_OR_RETURN(std::vector<CcMatch> matches,
                             MatchCcs(*binning_, *combos_, r2_, ccs_));
    return CompleteLeftoverRows(*state_, *combos_, ccs_, matches,
                                /*dc_classes=*/{}, LeftoverMode::kAvoidCcs,
                                rng, stats);
  }

  Table& v_join() { return *v_join_; }
  FillState& state() { return *state_; }

 private:
  const Table& r2_;
  PairSchema names_;
  std::vector<CardinalityConstraint> ccs_;
  std::unique_ptr<Table> v_join_;
  std::unique_ptr<Binning> binning_;
  std::unique_ptr<ComboIndex> combos_;
  std::unique_ptr<FillState> state_;
};

TEST(Phase1HasseTest, PaperExampleDisjointSubset) {
  // CC1 and CC2 are disjoint via identical R1 + disjoint R2 (Def 4.2); the
  // recursion satisfies both exactly.
  PaperExample ex = MakePaperExample();
  std::vector<CardinalityConstraint> ccs = {ex.ccs[0], ex.ccs[1]};
  HasseFixture fx(ex.persons, ex.housing, ex.names, ccs);
  Phase1HasseStats stats;
  ASSERT_TRUE(fx.Run(&stats).ok());
  EXPECT_EQ(stats.shortfall, 0);
  EXPECT_EQ(stats.rows_assigned, 6u);  // 4 Chicago owners + 2 NYC owners
  Rng rng(1);
  FinalFillStats fill;
  auto invalid = fx.Finish(rng, &fill);
  ASSERT_TRUE(invalid.ok());
  auto report = EvaluateCcError(ccs, fx.v_join());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->num_exact, ccs.size()) << report->Summary();
}

TEST(Phase1HasseTest, RejectsIntersectingSets) {
  PaperExample ex = MakePaperExample();
  // CC1 (Rel=Owner, Chicago) and CC4 (MultiLing=1, Chicago) intersect.
  std::vector<CardinalityConstraint> ccs = {ex.ccs[0], ex.ccs[3]};
  HasseFixture fx(ex.persons, ex.housing, ex.names, ccs);
  Phase1HasseStats stats;
  Status status = fx.Run(&stats);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(Phase1HasseTest, ContainmentRecursion) {
  // Child CC inside parent CC (Example 4.6 mechanics): the child's rows are
  // assigned first, the parent then only needs the difference.
  PaperExample ex = MakePaperExample();
  std::vector<CardinalityConstraint> ccs;
  {
    CardinalityConstraint parent;
    parent.name = "parent";
    parent.r1_condition.Eq("Rel", Value("Owner"));
    parent.r2_condition.Eq("Area", Value("Chicago"));
    parent.target = 4;
    CardinalityConstraint child;
    child.name = "child";
    child.r1_condition.Eq("Rel", Value("Owner")).Ge("Age", Value(int64_t{31}));
    child.r2_condition.Eq("Area", Value("Chicago"));
    child.target = 2;  // the two 75-year-old owners
    ccs = {parent, child};
  }
  HasseFixture fx(ex.persons, ex.housing, ex.names, ccs);
  Phase1HasseStats stats;
  ASSERT_TRUE(fx.Run(&stats).ok());
  EXPECT_EQ(stats.shortfall, 0);
  Rng rng(1);
  FinalFillStats fill;
  ASSERT_TRUE(fx.Finish(rng, &fill).ok());
  auto report = EvaluateCcError(ccs, fx.v_join());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->num_exact, 2u) << report->Summary();
}

TEST(Phase1HasseTest, ShortfallReportedWhenTargetsExceedData) {
  PaperExample ex = MakePaperExample();
  CardinalityConstraint cc;
  cc.name = "too-many";
  cc.r1_condition.Eq("Rel", Value("Owner"));
  cc.r2_condition.Eq("Area", Value("Chicago"));
  cc.target = 100;  // only 6 owners exist
  HasseFixture fx(ex.persons, ex.housing, ex.names, {cc});
  Phase1HasseStats stats;
  ASSERT_TRUE(fx.Run(&stats).ok());
  EXPECT_EQ(stats.shortfall, 94);
}

TEST(Phase1HasseTest, UnrealizableR2ConditionIsShortfall) {
  PaperExample ex = MakePaperExample();
  CardinalityConstraint cc;
  cc.name = "no-such-area";
  cc.r1_condition.Eq("Rel", Value("Owner"));
  cc.r2_condition.Eq("Area", Value("Atlantis"));
  cc.target = 3;
  HasseFixture fx(ex.persons, ex.housing, ex.names, {cc});
  Phase1HasseStats stats;
  ASSERT_TRUE(fx.Run(&stats).ok());
  EXPECT_EQ(stats.shortfall, 3);
}

TEST(FinalFillTest, LeftoversAvoidCcContributions) {
  PaperExample ex = MakePaperExample();
  // One CC consuming 2 of the 6 owners; leftovers must not add to its count.
  CardinalityConstraint cc;
  cc.name = "cc";
  cc.r1_condition.Eq("Rel", Value("Owner"));
  cc.r2_condition.Eq("Area", Value("Chicago"));
  cc.target = 2;
  HasseFixture fx(ex.persons, ex.housing, ex.names, {cc});
  Phase1HasseStats stats;
  ASSERT_TRUE(fx.Run(&stats).ok());
  Rng rng(3);
  FinalFillStats fill;
  auto invalid = fx.Finish(rng, &fill);
  ASSERT_TRUE(invalid.ok());
  auto report = EvaluateCcError({cc}, fx.v_join());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->num_exact, 1u) << report->Summary();
  // Every row got B values (NYC is a free combo).
  EXPECT_TRUE(invalid->empty());
  for (size_t r = 0; r < fx.v_join().NumRows(); ++r) {
    EXPECT_FALSE(
        fx.v_join().IsNull(r, fx.v_join().schema().IndexOrDie("Area")));
  }
}

TEST(FinalFillTest, RandomModeFillsEverything) {
  PaperExample ex = MakePaperExample();
  HasseFixture fx(ex.persons, ex.housing, ex.names, {});
  Rng rng(5);
  FinalFillStats fill;
  auto combos = ComboIndex::Build(ex.housing, ex.names);
  ASSERT_TRUE(combos.ok());
  auto invalid =
      CompleteLeftoverRows(fx.state(), combos.value(), {}, {}, {},
                           LeftoverMode::kRandom, rng, &fill);
  ASSERT_TRUE(invalid.ok());
  EXPECT_TRUE(invalid->empty());
  EXPECT_EQ(fill.completed_rows, ex.persons.NumRows());
}

// Property (Proposition 4.7): for generated non-intersecting CC sets whose
// targets come from a realizable assignment, the recursion satisfies every CC
// exactly.
class Prop47Test : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Prop47Test, ExactWhenNoIntersections) {
  Rng rng(GetParam());
  // Random R1 of ~120 rows over Age/Rel/MultiLing and R2 of 12 homes over 4
  // areas; random ground truth; nested/disjoint CCs derived from it.
  Schema r1_schema{{"pid", DataType::kInt64},
                   {"Age", DataType::kInt64},
                   {"Rel", DataType::kString},
                   {"MultiLing", DataType::kInt64},
                   {"hid", DataType::kInt64}};
  Table r1{r1_schema};
  const char* rels[] = {"Owner", "Spouse", "Child"};
  for (int i = 0; i < 120; ++i) {
    CEXTEND_CHECK(r1.AppendRow({Value(i + 1), Value(rng.UniformInt(0, 99)),
                                Value(rels[rng.UniformInt(0, 2)]),
                                Value(rng.UniformInt(0, 1)),
                                Value(rng.UniformInt(1, 12))})
                      .ok());
  }
  Schema r2_schema{{"hid", DataType::kInt64}, {"Area", DataType::kString}};
  Table r2{r2_schema};
  const char* areas[] = {"A", "B", "C", "D"};
  for (int h = 1; h <= 12; ++h) {
    CEXTEND_CHECK(r2.AppendRow({Value(h), Value(areas[(h - 1) % 4])}).ok());
  }
  auto names = PairSchema::Infer(r1, r2, "pid", "hid", "hid");
  ASSERT_TRUE(names.ok());
  auto truth = MaterializeJoin(r1, r2, names.value());
  ASSERT_TRUE(truth.ok());

  // CC family without intersecting pairs under Definitions 4.2-4.4: each
  // area owns an exclusive age band with a nested chain inside it (nested
  // intervals across *different* areas would classify as intersecting, since
  // Definition 4.2 only treats identical R1 conditions as R2-separable).
  std::vector<CardinalityConstraint> ccs;
  auto add = [&](int64_t lo, int64_t hi, const char* area) {
    CardinalityConstraint cc;
    cc.name = StrFormat("cc_%s_%lld_%lld", area, static_cast<long long>(lo),
                        static_cast<long long>(hi));
    cc.r1_condition.Between("Age", lo, hi);
    cc.r2_condition.Eq("Area", Value(area));
    auto pred = BoundPredicate::Bind(cc.JoinCondition(), truth.value());
    CEXTEND_CHECK(pred.ok());
    cc.target = static_cast<int64_t>(pred->CountMatches(truth.value()));
    ccs.push_back(std::move(cc));
  };
  // Area A: chain inside [0,49]; area B: chain inside [50,99].
  add(0, 49, "A");
  add(10, 40, "A");
  add(20, 30, "A");
  add(50, 99, "B");
  add(60, 80, "B");

  // Blank R1 and solve phase I with the recursion alone.
  Table r1_blank = r1.Clone();
  size_t hid_col = r1_schema.IndexOrDie("hid");
  for (size_t r = 0; r < r1_blank.NumRows(); ++r)
    r1_blank.SetCode(r, hid_col, kNullCode);
  HasseFixture fx(r1_blank, r2, names.value(), ccs);
  Phase1HasseStats stats;
  ASSERT_TRUE(fx.Run(&stats).ok());
  EXPECT_EQ(stats.shortfall, 0);
  Rng fill_rng(GetParam() * 31 + 1);
  FinalFillStats fill;
  ASSERT_TRUE(fx.Finish(fill_rng, &fill).ok());
  auto report = EvaluateCcError(ccs, fx.v_join());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->num_exact, ccs.size()) << report->Summary();
}

INSTANTIATE_TEST_SUITE_P(Seeds, Prop47Test, ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace cextend
