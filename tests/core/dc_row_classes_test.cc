// The join view's DC classification (DcRowClasses, core/conflict.h) against
// the per-atom reference of constraints/dc_side_oracle.h, on census S_all_DC
// and on seeded random DCs over a table with NULL cells, absent constants,
// same-tuple atoms and offsets:
//  * a bucket's side signature is each member's side bits: the DC side, its
//    same-tuple atoms, and non-NULL cells in the columns its cross atoms
//    read on that side;
//  * bucket-mates read the same codes in every cross-atom column of a side
//    they pass, so they conflict with the same rows;
//  * a bucket's group signature is its product-DC bits;
//  * a row's self-adjacent DCs are exactly those that hold with the row
//    bound to both variables;
//  * buckets and groups are numbered in first-row order.

#include <set>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "constraints/dc_side_oracle.h"
#include "core/conflict.h"
#include "datagen/census.h"
#include "datagen/constraint_gen.h"
#include "util/rng.h"

namespace cextend {
namespace {

using dc_side_oracle::OracleDc;
using CrossAtom = BoundDenialConstraint::CrossAtom;

/// Whether `row` can play variable `var` of `dc` against some other row.
bool PlaysSide(const OracleDc& dc, const Table& table, uint32_t row,
               int var) {
  if (!dc_side_oracle::SideMatches(dc, table, row, var)) return false;
  for (const CrossAtom& a : dc.binary) {
    if (a.lhs_tuple == a.rhs_tuple) {
      if (a.lhs_tuple == var &&
          !dc_side_oracle::CrossAtomsHold(OracleDc{2, {}, {a}}, table,
                                          {row, row})) {
        return false;
      }
      continue;
    }
    if ((a.lhs_tuple == var && table.GetCode(row, a.lhs_col) == kNullCode) ||
        (a.rhs_tuple == var && table.GetCode(row, a.rhs_col) == kNullCode)) {
      return false;
    }
  }
  return true;
}

bool IsProduct(const OracleDc& dc) {
  for (const CrossAtom& a : dc.binary) {
    if (a.lhs_tuple != a.rhs_tuple) return false;
  }
  return true;
}

struct Counts {
  size_t shared_buckets = 0;  ///< buckets holding more than one row
  size_t self_rows = 0;       ///< rows with some self-adjacent DC
};

/// Classifies `table` under `dcs` (which must bind) and checks every row
/// against the reference. `rng` samples the neighborhood checks.
void ExpectClassesMatchReference(const Table& table,
                                 const std::vector<DenialConstraint>& dcs,
                                 Rng& rng, Counts* counts) {
  auto bound = BindAll(dcs, table);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  std::vector<OracleDc> binary;
  for (const DenialConstraint& dc : dcs) {
    if (dc.arity() != 2) continue;
    auto oracle = dc_side_oracle::Bind(dc, table);
    ASSERT_TRUE(oracle.ok()) << dc.ToString();
    binary.push_back(std::move(oracle).value());
  }
  const DcRowClasses classes = DcRowClasses::Build(table, bound.value());
  const auto n = static_cast<uint32_t>(table.NumRows());
  const size_t words = classes.sig_words;
  ASSERT_EQ(words, (2 * binary.size() + 63) / 64);
  ASSERT_EQ(classes.bucket_of.size(), n);
  ASSERT_EQ(classes.group_of.size(), classes.num_buckets());
  ASSERT_EQ(classes.self_begin.size(), classes.num_buckets() + 1);
  auto bit = [&](const std::vector<uint64_t>& sigs, size_t c, size_t b) {
    return ((sigs[c * words + b / 64] >> (b % 64)) & 1) != 0;
  };

  // First-row numbering.
  std::vector<size_t> bucket_size(classes.num_buckets(), 0);
  for (uint32_t r = 0; r < n; ++r) {
    const uint32_t b = classes.bucket_of[r];
    ASSERT_LT(b, classes.num_buckets());
    if (bucket_size[b]++ == 0) {
      ASSERT_EQ(classes.bucket_rep[b], r) << "bucket " << b;
      ASSERT_TRUE(b == 0 || bucket_size[b - 1] > 0) << "bucket " << b;
    }
  }
  uint32_t next_group = 0;
  for (size_t b = 0; b < classes.num_buckets(); ++b) {
    ASSERT_LE(classes.group_of[b], next_group) << "bucket " << b;
    if (classes.group_of[b] == next_group) {
      ASSERT_EQ(classes.group_rep[next_group++], classes.bucket_rep[b]);
    }
  }
  ASSERT_EQ(next_group, classes.group_rep.size());
  ASSERT_EQ(classes.group_sigs.size(), classes.group_rep.size() * words);

  for (uint32_t r = 0; r < n; ++r) {
    const uint32_t b = classes.bucket_of[r];
    const uint32_t rep = classes.bucket_rep[b];
    std::vector<uint32_t> want_self;
    for (size_t d = 0; d < binary.size(); ++d) {
      for (int var = 0; var < 2; ++var) {
        const bool plays = PlaysSide(binary[d], table, r, var);
        ASSERT_EQ(bit(classes.bucket_sigs, b, 2 * d + var), plays)
            << "row " << r << " DC " << d << " var " << var;
        ASSERT_EQ(bit(classes.group_sigs, classes.group_of[b], 2 * d + var),
                  plays && IsProduct(binary[d]))
            << "row " << r << " DC " << d << " var " << var;
        if (!plays) continue;
        for (const CrossAtom& a : binary[d].binary) {
          if (a.lhs_tuple == a.rhs_tuple) continue;
          const size_t col = a.lhs_tuple == var ? a.lhs_col : a.rhs_col;
          ASSERT_EQ(table.GetCode(r, col), table.GetCode(rep, col))
              << "row " << r << " rep " << rep << " column " << col;
        }
      }
      if (dc_side_oracle::BodyHolds(binary[d], table, {r, r})) {
        want_self.push_back(static_cast<uint32_t>(d));
      }
    }
    std::span<const uint32_t> self = classes.SelfDcs(b);
    ASSERT_EQ(std::vector<uint32_t>(self.begin(), self.end()), want_self)
        << "row " << r;
    counts->self_rows += want_self.empty() ? 0 : 1;
  }
  for (size_t size : bucket_size) counts->shared_buckets += size > 1 ? 1 : 0;

  // Bucket-mates conflict with the same rows, in either role.
  for (int trial = 0; trial < 200; ++trial) {
    const auto u = static_cast<uint32_t>(rng.UniformInt(0, n - 1));
    const auto w = static_cast<uint32_t>(rng.UniformInt(0, n - 1));
    const uint32_t mate = classes.bucket_rep[classes.bucket_of[u]];
    if (w == u || w == mate) continue;
    for (const OracleDc& dc : binary) {
      ASSERT_EQ(dc_side_oracle::BodyHolds(dc, table, {u, w}),
                dc_side_oracle::BodyHolds(dc, table, {mate, w}))
          << "rows " << u << ", " << mate << " against " << w;
      ASSERT_EQ(dc_side_oracle::BodyHolds(dc, table, {w, u}),
                dc_side_oracle::BodyHolds(dc, table, {w, mate}))
          << "rows " << u << ", " << mate << " against " << w;
    }
  }
}

// Of the 20 binary census DCs, only the owner-owner (DC9) and spouse-spouse
// (DC12) cliques hold with one row in both roles; the age-gap DCs and the
// owner-versus-member DCs 10 and 11 never do.
TEST(DcRowClassesTest, CensusAllDcs) {
  datagen::CensusOptions options;
  options.num_persons = 2000;
  options.num_households = 800;
  auto data = datagen::GenerateCensus(options);
  ASSERT_TRUE(data.ok()) << data.status();
  const std::vector<DenialConstraint> dcs = datagen::MakeCensusDcs(false);
  Rng rng(3);
  Counts counts;
  ExpectClassesMatchReference(data->persons, dcs, rng, &counts);
  EXPECT_GT(counts.shared_buckets, 0u);
  EXPECT_GT(counts.self_rows, 0u);

  auto bound = BindAll(dcs, data->persons);
  ASSERT_TRUE(bound.ok());
  const DcRowClasses classes =
      DcRowClasses::Build(data->persons, std::move(bound).value());
  std::vector<std::string> binary_names;
  for (const DenialConstraint& dc : dcs) {
    if (dc.arity() == 2) binary_names.push_back(dc.name());
  }
  ASSERT_EQ(binary_names.size(), 20u);
  std::set<std::string> cliques;
  for (uint32_t d : classes.self_dcs) cliques.insert(binary_names[d]);
  EXPECT_EQ(cliques, (std::set<std::string>{"DC9", "DC12"}));
}

TEST(DcRowClassesTest, SeededRandomDcs) {
  Rng rng(41);
  const Table t = dc_side_oracle::RandomTable(rng);
  Counts counts;
  size_t sets = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<DenialConstraint> dcs;
    for (int64_t k = rng.UniformInt(1, 4); k > 0; --k) {
      const int arity = rng.Bernoulli(0.85) ? 2 : 3;
      DenialConstraint dc(arity, "random" + std::to_string(k));
      for (int64_t a = rng.UniformInt(1, 4); a > 0; --a) {
        dc_side_oracle::AddRandomAtom(rng, arity, dc);
      }
      if (dc_side_oracle::Bind(dc, t).ok()) dcs.push_back(std::move(dc));
    }
    if (dcs.empty()) continue;
    ++sets;
    ExpectClassesMatchReference(t, dcs, rng, &counts);
    if (HasFatalFailure()) return;
  }
  // Enough sets bind, bucket-mates occur, and rows conflict with
  // themselves, so the checks are not vacuous.
  EXPECT_GT(sets, 200u);
  EXPECT_GT(counts.shared_buckets, 200u);
  EXPECT_GT(counts.self_rows, 100u);
}

}  // namespace
}  // namespace cextend
