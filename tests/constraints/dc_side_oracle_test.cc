// BoundDenialConstraint binds each tuple variable's unary atoms as one
// BoundPredicate (its "side"). These tests check it against the per-atom
// reference of dc_side_oracle.h: the Bind status code, SideMatches,
// SideMatchesBatch, BodyHolds, BodyHoldsUnordered and the read columns
// agree on the census DCs (S_all_DC) and on seeded random DCs over a table
// with NULL cells, including absent =/!=/IN constants, wrong-typed
// constants, string ordering, unknown columns and tuple variables out of
// range.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "constraints/dc_side_oracle.h"
#include "constraints/denial_constraint.h"
#include "datagen/census.h"
#include "datagen/constraint_gen.h"
#include "util/rng.h"

namespace cextend {
namespace {

/// Checks every evaluation of `dc` on `table` against the oracle. Random
/// row tuples for the body checks come from `rng`.
void ExpectMatchesOracle(const DenialConstraint& dc, const Table& table,
                         Rng& rng) {
  SCOPED_TRACE(dc.ToString());
  StatusOr<dc_side_oracle::OracleDc> oracle = dc_side_oracle::Bind(dc, table);
  StatusOr<BoundDenialConstraint> bound =
      BoundDenialConstraint::Bind(dc, table);
  ASSERT_EQ(bound.ok(), oracle.ok()) << bound.status().ToString() << " vs "
                                     << oracle.status().ToString();
  if (!oracle.ok()) {
    EXPECT_EQ(bound.status().code(), oracle.status().code());
    return;
  }
  std::vector<size_t> cols;
  bound->AppendReadColumns(&cols);
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  EXPECT_EQ(cols, dc_side_oracle::ReadColumns(*oracle));

  // Every row, then a shuffled sample with repeats, for the batch sweep.
  const auto num_rows = static_cast<uint32_t>(table.NumRows());
  std::vector<uint32_t> rows(num_rows);
  for (uint32_t r = 0; r < num_rows; ++r) rows[r] = r;
  for (uint32_t i = 0; i < num_rows / 2; ++i) {
    rows.push_back(static_cast<uint32_t>(rng.UniformInt(0, num_rows - 1)));
  }
  rng.Shuffle(rows);
  std::vector<uint8_t> batch;
  for (int var = 0; var < dc.arity(); ++var) {
    bound->SideMatchesBatch(table, rows, var, &batch);
    ASSERT_EQ(batch.size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      bool want = dc_side_oracle::SideMatches(*oracle, table, rows[i], var);
      ASSERT_EQ(bound->SideMatches(table, rows[i], var), want)
          << "row " << rows[i] << " var " << var;
      ASSERT_EQ(batch[i] != 0, want) << "row " << rows[i] << " var " << var;
    }
  }

  std::vector<uint32_t> tuple(static_cast<size_t>(dc.arity()));
  for (int trial = 0; trial < 300; ++trial) {
    for (uint32_t& r : tuple) {
      r = static_cast<uint32_t>(rng.UniformInt(0, num_rows - 1));
    }
    ASSERT_EQ(bound->BodyHolds(table, tuple),
              dc_side_oracle::BodyHolds(*oracle, table, tuple));
    ASSERT_EQ(bound->BodyHoldsUnordered(table, tuple),
              dc_side_oracle::BodyHoldsUnordered(*oracle, table, tuple));
  }
  // Tuples of one repeated row reach the one-row (clique) cases.
  for (uint32_t r = 0; r < num_rows; r += 7) {
    std::fill(tuple.begin(), tuple.end(), r);
    ASSERT_EQ(bound->BodyHolds(table, tuple),
              dc_side_oracle::BodyHolds(*oracle, table, tuple));
  }
}

TEST(DcSideOracleTest, CensusAllDcs) {
  datagen::CensusOptions options;
  options.num_persons = 2000;
  options.num_households = 800;
  auto data = datagen::GenerateCensus(options);
  ASSERT_TRUE(data.ok()) << data.status();
  Rng rng(5);
  for (const DenialConstraint& dc : datagen::MakeCensusDcs(false)) {
    ExpectMatchesOracle(dc, data->persons, rng);
  }
}

TEST(DcSideOracleTest, SeededRandomDcs) {
  Rng rng(29);
  Table t = dc_side_oracle::RandomTable(rng);
  size_t failed = 0;
  size_t never_matching_atoms = 0;
  for (int trial = 0; trial < 1500; ++trial) {
    const int arity = rng.Bernoulli(0.8) ? 2 : 3;
    DenialConstraint dc(arity, "random" + std::to_string(trial));
    for (int64_t a = rng.UniformInt(1, 5); a > 0; --a) {
      dc_side_oracle::AddRandomAtom(rng, arity, dc);
    }
    ExpectMatchesOracle(dc, t, rng);
    if (HasFatalFailure()) return;
    auto oracle = dc_side_oracle::Bind(dc, t);
    if (!oracle.ok()) {
      ++failed;
      continue;
    }
    for (const dc_side_oracle::BoundUnary& a : oracle->unary) {
      never_matching_atoms += a.never_matches ? 1 : 0;
    }
  }
  // Both binding outcomes and never-matching atoms (always-false sides)
  // occur, so the comparison is not vacuous.
  EXPECT_GT(failed, 100u);
  EXPECT_LT(failed, 1000u);
  EXPECT_GT(never_matching_atoms, 50u);
}

}  // namespace
}  // namespace cextend
