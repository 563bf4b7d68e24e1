// Component decomposition of the phase-I ILP: the union-find split must
// produce the same quality of solution as the monolithic model (equal
// optimal slack — the optimum value is unique even when the argmin is not),
// and the decomposed parallel solve must be bit-identical across thread
// counts (1/2/8), the same determinism bar phase II meets. The monolithic
// model is built here from the encoding documented in core/phase1_ilp.h, so
// a bug in the production model builder cannot hide on both sides.

#include <algorithm>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "constraints/metrics.h"
#include "core/match_oracle.h"
#include "core/phase1_ilp.h"
#include "datagen/census.h"
#include "datagen/constraint_gen.h"
#include "ilp/branch_and_bound.h"
#include "test_util.h"
#include "util/rng.h"

namespace cextend {
namespace {

/// A seeded census-backed phase-1 instance (fresh join view + fill state per
/// call so repeated runs start from identical state).
struct Phase1Instance {
  const Table* r2 = nullptr;
  std::unique_ptr<Table> v_join;
  std::unique_ptr<Binning> binning;
  std::unique_ptr<ComboIndex> combos;
  std::unique_ptr<FillState> state;
};

Phase1Instance MakeInstance(const datagen::CensusData& data,
                            const std::vector<CardinalityConstraint>& ccs) {
  Phase1Instance inst;
  inst.r2 = &data.housing;
  auto v = MakeJoinView(data.persons, data.housing, data.names);
  CEXTEND_CHECK(v.ok());
  inst.v_join = std::make_unique<Table>(std::move(v).value());
  auto binning = Binning::Create(*inst.v_join, data.names.r1_attrs, ccs);
  CEXTEND_CHECK(binning.ok());
  inst.binning = std::make_unique<Binning>(std::move(binning).value());
  auto combos = ComboIndex::Build(data.housing, data.names);
  CEXTEND_CHECK(combos.ok());
  inst.combos = std::make_unique<ComboIndex>(std::move(combos).value());
  auto state = FillState::Create(inst.v_join.get(), data.names, inst.binning.get());
  CEXTEND_CHECK(state.ok());
  inst.state = std::make_unique<FillState>(std::move(state).value());
  return inst;
}

datagen::CensusData MakeData(uint64_t seed) {
  datagen::CensusOptions options;
  options.num_persons = 900;
  options.num_households = 350;
  options.seed = seed;
  auto data = datagen::GenerateCensus(options);
  CEXTEND_CHECK(data.ok());
  return std::move(data).value();
}

std::vector<CardinalityConstraint> MakeCcs(const datagen::CensusData& data,
                                           size_t num_ccs) {
  datagen::CcFamilyOptions options;
  options.num_ccs = num_ccs;
  auto ccs = datagen::GenerateCcs(data, options);
  CEXTEND_CHECK(ccs.ok());
  return std::move(ccs).value();
}

std::vector<int64_t> BColumnCodes(const Phase1Instance& inst) {
  std::vector<int64_t> codes;
  codes.reserve(inst.v_join->NumRows() * inst.state->b_cols().size());
  for (size_t r = 0; r < inst.v_join->NumRows(); ++r) {
    for (size_t col : inst.state->b_cols()) {
      codes.push_back(inst.v_join->GetCode(r, col));
    }
  }
  return codes;
}

/// Solves the one monolithic phase-I model over `inst`'s fresh state: an
/// integer variable per (bin, combo) pair that some CC covering the bin
/// references, an "unused" integer variable and a marginal row per bin with
/// remaining rows, and per CC a row `sum + u - v = target` with u, v >= 0;
/// minimize sum(u + v).
ilp::IlpResult SolveMonolithic(const Phase1Instance& inst,
                               const std::vector<CardinalityConstraint>& ccs) {
  const FillState& state = *inst.state;
  ilp::Model model;
  std::vector<std::map<size_t, int>> var_of(state.num_bins());  // combo->var
  std::vector<std::vector<ilp::LinearTerm>> cc_terms(ccs.size());
  for (size_t c = 0; c < ccs.size(); ++c) {
    auto bins = match_oracle::MatchingBins(*inst.binning, ccs[c].r1_condition);
    auto combos = match_oracle::MatchingCombos(*inst.combos, *inst.r2,
                                               ccs[c].r2_condition);
    CEXTEND_CHECK(bins.ok() && combos.ok());
    for (size_t bin : *bins) {
      if (state.pool(bin).empty()) continue;
      for (size_t combo : *combos) {
        auto [it, inserted] = var_of[bin].emplace(combo, -1);
        if (inserted) it->second = model.AddVariable(0.0, /*is_integer=*/true);
        cc_terms[c].push_back({it->second, 1.0});
      }
    }
  }
  for (size_t bin = 0; bin < state.num_bins(); ++bin) {
    if (state.pool(bin).empty()) continue;
    std::vector<ilp::LinearTerm> terms;
    for (const auto& [combo, var] : var_of[bin]) terms.push_back({var, 1.0});
    terms.push_back({model.AddVariable(0.0, /*is_integer=*/true), 1.0});
    model.AddConstraint(std::move(terms), ilp::Sense::kEq,
                        static_cast<double>(state.pool(bin).size()));
  }
  for (size_t c = 0; c < ccs.size(); ++c) {
    std::vector<ilp::LinearTerm> terms = std::move(cc_terms[c]);
    terms.push_back({model.AddVariable(1.0, /*is_integer=*/false), 1.0});
    terms.push_back({model.AddVariable(1.0, /*is_integer=*/false), -1.0});
    model.AddConstraint(std::move(terms), ilp::Sense::kEq,
                        static_cast<double>(ccs[c].target));
  }
  ilp::IlpOptions options;
  options.objective_target = 0.0;
  options.max_nodes = 100000;
  return ilp::SolveIlp(model, options);
}

class DecomposeSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DecomposeSeedTest, DecomposedMatchesMonolithicSlack) {
  datagen::CensusData data = MakeData(GetParam());
  std::vector<CardinalityConstraint> ccs = MakeCcs(data, 30);

  ilp::IlpResult mono = SolveMonolithic(MakeInstance(data, ccs), ccs);
  ASSERT_EQ(mono.status, ilp::IlpStatus::kOptimal);

  Phase1Instance decomposed = MakeInstance(data, ccs);
  Phase1IlpStats dec_stats;
  auto matches = MatchCcs(*decomposed.binning, *decomposed.combos,
                          *decomposed.r2, ccs);
  ASSERT_TRUE(matches.ok()) << matches.status().ToString();
  ASSERT_TRUE(RunPhase1Ilp(*decomposed.state, *decomposed.combos, ccs,
                           *matches, Phase1IlpOptions{}, &dec_stats).ok());

  EXPECT_GE(dec_stats.num_components, 2u)
      << "seed produced a single component; decomposition untested";
  EXPECT_EQ(dec_stats.status, ilp::IlpStatus::kOptimal);
  // Block-diagonal model: the global optimum is the sum of the component
  // optima, so the slack totals must agree exactly (up to fp noise) even
  // when the chosen assignments differ.
  EXPECT_NEAR(mono.objective, dec_stats.slack_total, 1e-6);
  // The greedy fill realizes the solution: every CC the solution satisfies
  // (all of them at zero slack) is exact on the written rows.
  auto report = EvaluateCcError(ccs, *decomposed.v_join);
  ASSERT_TRUE(report.ok());
  if (dec_stats.slack_total == 0.0) {
    EXPECT_EQ(report->num_exact, ccs.size());
  }
}

TEST_P(DecomposeSeedTest, BitIdenticalAcrossThreadCounts) {
  datagen::CensusData data = MakeData(GetParam() + 100);
  std::vector<CardinalityConstraint> ccs = MakeCcs(data, 30);

  std::vector<int64_t> reference;
  Phase1IlpStats reference_stats;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    Phase1Instance inst = MakeInstance(data, ccs);
    Phase1IlpOptions options;
    options.num_threads = threads;
    Phase1IlpStats stats;
    auto matches = MatchCcs(*inst.binning, *inst.combos, *inst.r2, ccs);
    ASSERT_TRUE(matches.ok()) << matches.status().ToString();
    ASSERT_TRUE(RunPhase1Ilp(*inst.state, *inst.combos, ccs, *matches,
                             options, &stats).ok());
    std::vector<int64_t> codes = BColumnCodes(inst);
    if (threads == 1) {
      reference = std::move(codes);
      reference_stats = stats;
      continue;
    }
    // Bit-identical assignments and identical solver trajectories.
    ASSERT_EQ(codes, reference) << "thread count " << threads
                                << " changed the phase-1 assignment";
    EXPECT_EQ(stats.num_components, reference_stats.num_components);
    EXPECT_EQ(stats.bnb_nodes, reference_stats.bnb_nodes);
    EXPECT_EQ(stats.lp_iterations, reference_stats.lp_iterations);
    EXPECT_EQ(stats.slack_total, reference_stats.slack_total);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecomposeSeedTest,
                         ::testing::Range<uint64_t>(1, 5));

// SplitClassValues, the greedy fill's split of one bin class: each value
// lands exactly while the pools last, no member gives more rows than its
// pool holds, and the takes walk the members in ascending order.
TEST(ClassSplitTest, ValuesLandExactlyWithinPools) {
  Rng rng(17);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<size_t> pools(static_cast<size_t>(rng.UniformInt(1, 6)));
    size_t total = 0;
    for (size_t& p : pools) {
      p = static_cast<size_t>(rng.UniformInt(0, 20));
      total += p;
    }
    std::vector<int64_t> values(static_cast<size_t>(rng.UniformInt(1, 8)));
    for (int64_t& v : values) v = rng.UniformInt(-2, 15);
    const bool exact_total = trial % 2 == 0;  // as under the bin rows
    if (exact_total) {
      size_t left = total;
      for (int64_t& v : values) {
        v = std::min<int64_t>(std::max<int64_t>(v, 0),
                              static_cast<int64_t>(left));
        left -= static_cast<size_t>(v);
      }
      values.back() += static_cast<int64_t>(left);
    }

    const auto takes = SplitClassValues(values, pools);
    ASSERT_EQ(takes.size(), values.size());
    std::vector<size_t> taken(pools.size(), 0);
    size_t left = total;
    size_t last_member = 0;
    for (size_t j = 0; j < values.size(); ++j) {
      const size_t want =
          std::min(static_cast<size_t>(std::max<int64_t>(values[j], 0)), left);
      size_t got = 0;
      for (const ClassTake& take : takes[j]) {
        ASSERT_LT(take.member, pools.size());
        EXPECT_GT(take.rows, 0u);
        EXPECT_GE(take.member, last_member) << "takes must walk forward";
        last_member = take.member;
        taken[take.member] += take.rows;
        got += take.rows;
      }
      EXPECT_EQ(got, want) << "trial " << trial << " value " << j;
      left -= got;
    }
    for (size_t i = 0; i < pools.size(); ++i) {
      EXPECT_LE(taken[i], pools[i]);
      if (exact_total) {
        EXPECT_EQ(taken[i], pools[i]);
      }
    }
  }
}

// The merged model on the intersecting census family: the fill realizes a
// zero-slack solution exactly, rows stay in their bins, and the written
// bytes are identical at 1 and 4 threads.
TEST(ClassSplitTest, IntersectingFamilyExactAndBitIdentical) {
  datagen::CensusData data = MakeData(11);
  datagen::CcFamilyOptions cc_options;
  cc_options.num_ccs = 201;
  cc_options.intersecting = true;
  auto generated = datagen::GenerateCcs(data, cc_options);
  ASSERT_TRUE(generated.ok());
  const std::vector<CardinalityConstraint>& ccs = *generated;

  std::vector<int64_t> reference;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    Phase1Instance inst = MakeInstance(data, ccs);
    Phase1IlpOptions options;
    options.num_threads = threads;
    Phase1IlpStats stats;
    auto matches = MatchCcs(*inst.binning, *inst.combos, *inst.r2, ccs);
    ASSERT_TRUE(matches.ok()) << matches.status().ToString();
    ASSERT_TRUE(RunPhase1Ilp(*inst.state, *inst.combos, ccs, *matches,
                             options, &stats).ok());
    EXPECT_EQ(stats.status, ilp::IlpStatus::kOptimal);
    ASSERT_EQ(stats.slack_total, 0.0);
    auto report = EvaluateCcError(ccs, *inst.v_join);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->num_exact, ccs.size());
    // A bin's rows are either still pooled or carry a combo.
    const size_t b_col = inst.state->b_cols()[0];
    std::vector<size_t> assigned(inst.binning->num_bins(), 0);
    std::vector<size_t> bin_rows(inst.binning->num_bins(), 0);
    for (size_t row = 0; row < inst.binning->num_rows(); ++row) {
      const uint32_t bin = inst.binning->bin_of_row(row);
      ++bin_rows[bin];
      if (!inst.v_join->IsNull(row, b_col)) ++assigned[bin];
    }
    for (size_t bin = 0; bin < inst.binning->num_bins(); ++bin) {
      EXPECT_EQ(assigned[bin] + inst.state->pool(bin).size(), bin_rows[bin]);
    }
    std::vector<int64_t> codes = BColumnCodes(inst);
    if (threads == 1) {
      reference = std::move(codes);
    } else {
      EXPECT_EQ(codes, reference) << "thread count " << threads;
    }
  }
}

}  // namespace
}  // namespace cextend
