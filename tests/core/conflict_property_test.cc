// Randomized cross-check of the quotient PartitionConflictOracle against the
// brute-force NaiveConflictOracle: adjacency, degrees, edge counts, forbidden
// colors, WouldViolate and full greedy colorings must match exactly across
// seeds, DC shapes (equality / ordering / != / no cross atoms / same-tuple
// atoms / arity 3), self-adjacent buckets, near-unique cross columns and
// NULL-bearing columns. The quotient coloring paths are checked against the
// generic AppendForbiddenColors path.

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/conflict.h"
#include "core/join_oracle.h"
#include "graph/list_coloring.h"
#include "test_util.h"
#include "util/rng.h"

namespace cextend {
namespace {

Table RandomTable(Rng& rng, size_t n) {
  Schema schema{{"G", DataType::kInt64},
                {"Age", DataType::kInt64},
                {"Rel", DataType::kString},
                {"ML", DataType::kInt64}};
  Table t{schema};
  const char* rels[] = {"Owner", "Spouse", "Child", "Other"};
  for (size_t i = 0; i < n; ++i) {
    Value age = rng.Bernoulli(0.05)
                    ? Value::Null()
                    : Value(rng.UniformInt(0, 90));
    Value g = rng.Bernoulli(0.05) ? Value::Null()
                                  : Value(rng.UniformInt(0, 4));
    CEXTEND_CHECK(
        t.AppendRow({g, age,
                     Value(rels[rng.UniformInt(0, 3)]),
                     Value(rng.UniformInt(0, 1))})
            .ok());
  }
  return t;
}

std::vector<DenialConstraint> RandomDcs(Rng& rng) {
  std::vector<DenialConstraint> dcs;
  // No cross atoms: side0 x side1 product (owner-owner style).
  {
    DenialConstraint dc(2, "owner-owner");
    dc.Unary(0, "Rel", CompareOp::kEq, Value("Owner"));
    dc.Unary(1, "Rel", CompareOp::kEq, Value("Owner"));
    dcs.push_back(std::move(dc));
  }
  // Ordering cross atom with offset (age gap).
  {
    DenialConstraint dc(2, "age-gap");
    dc.Unary(0, "Rel", CompareOp::kEq, Value("Owner"));
    dc.Unary(1, "Rel", CompareOp::kEq, Value("Spouse"));
    dc.Binary(1, "Age", CompareOp::kLt, 0, "Age",
              -rng.UniformInt(10, 40));
    dcs.push_back(std::move(dc));
  }
  // Equality cross atom (bucketed), written with var 1 on the left so the
  // orientation flip is exercised.
  {
    DenialConstraint dc(2, "same-group");
    dc.Binary(1, "G", CompareOp::kEq, 0, "G",
              rng.Bernoulli(0.5) ? 0 : 1);
    dc.Unary(0, "ML", CompareOp::kEq, Value(int64_t{1}));
    dcs.push_back(std::move(dc));
  }
  // != cross atom (residual filter path).
  if (rng.Bernoulli(0.7)) {
    DenialConstraint dc(2, "diff-group");
    dc.Unary(0, "Rel", CompareOp::kEq, Value("Child"));
    dc.Unary(1, "Rel", CompareOp::kEq, Value("Child"));
    dc.Binary(0, "G", CompareOp::kNe, 1, "G");
    dcs.push_back(std::move(dc));
  }
  // Equality + two ordering atoms: bucket, sorted run, and residual check.
  if (rng.Bernoulli(0.7)) {
    DenialConstraint dc(2, "band");
    dc.Binary(0, "G", CompareOp::kEq, 1, "G");
    dc.Binary(0, "Age", CompareOp::kGe, 1, "Age", -20);
    dc.Binary(0, "Age", CompareOp::kLe, 1, "Age", 20);
    dcs.push_back(std::move(dc));
  }
  // Same-tuple binary atom acting as a side filter.
  if (rng.Bernoulli(0.5)) {
    DenialConstraint dc(2, "self-filter");
    dc.Binary(0, "Age", CompareOp::kGt, 0, "G", 30);
    dc.Binary(0, "G", CompareOp::kEq, 1, "G");
    dcs.push_back(std::move(dc));
  }
  // A binary kIn atom is degenerate (kIn is unary-only, so it never holds);
  // both oracles must agree it produces no conflicts instead of the indexed
  // one mis-planning it as an ordering atom.
  if (rng.Bernoulli(0.3)) {
    DenialConstraint dc(2, "degenerate-in");
    dc.Unary(0, "Rel", CompareOp::kEq, Value("Other"));
    dc.Binary(0, "G", CompareOp::kIn, 1, "G");
    dcs.push_back(std::move(dc));
  }
  // A second no-cross-atom DC whose sides overlap the owner-owner clique:
  // owners get a self-adjacent bucket per Age-free signature, and the union
  // with the pairs of the DCs above must stay simple-graph.
  if (rng.Bernoulli(0.7)) {
    DenialConstraint dc(2, "owner-spouse-product");
    dc.Unary(0, "Rel", CompareOp::kEq, Value("Owner"));
    dc.UnaryIn(1, "Rel", {Value("Owner"), Value("Spouse")});
    dcs.push_back(std::move(dc));
  }
  // No-cross-atom DC with a same-tuple binary atom as a side filter: the
  // bucket signatures must honor same-tuple atoms, not just the unary atoms.
  if (rng.Bernoulli(0.5)) {
    DenialConstraint dc(2, "filtered-product");
    dc.Unary(0, "Rel", CompareOp::kEq, Value("Child"));
    dc.Unary(1, "Rel", CompareOp::kEq, Value("Child"));
    dc.Binary(0, "Age", CompareOp::kGt, 0, "G", 30);
    dcs.push_back(std::move(dc));
  }
  // Arity 3: exercises the shared hypergraph path.
  if (rng.Bernoulli(0.5)) {
    DenialConstraint dc(3, "triple");
    dc.Unary(0, "ML", CompareOp::kEq, Value(int64_t{1}));
    dc.Unary(1, "ML", CompareOp::kEq, Value(int64_t{1}));
    dc.Unary(2, "ML", CompareOp::kEq, Value(int64_t{1}));
    dc.Binary(0, "G", CompareOp::kEq, 1, "G");
    dc.Binary(1, "G", CompareOp::kEq, 2, "G");
    dcs.push_back(std::move(dc));
  }
  // Arity 4 with tight sides: the hypergraph must cover arities beyond 3
  // (the repair path relies on this) while staying under the candidate cap.
  if (rng.Bernoulli(0.3)) {
    DenialConstraint dc(4, "quad");
    for (int var = 0; var < 4; ++var) {
      dc.Unary(var, "Rel", CompareOp::kEq, Value("Spouse"));
      dc.Unary(var, "ML", CompareOp::kEq, Value(int64_t{1}));
    }
    dcs.push_back(std::move(dc));
  }
  return dcs;
}

std::multiset<int64_t> ForbiddenSet(const PartitionOracle& oracle, size_t v,
                                    const std::vector<int64_t>& colors) {
  std::vector<int64_t> out;
  oracle.AppendForbiddenColors(v, colors, &out);
  // Duplicates are legal per the interface; compare as sets of colors.
  return std::multiset<int64_t>(out.begin(), out.end());
}

/// Cross-checks the quotient oracle against the naive one: degrees, edge
/// count, every pair, forbidden colors and WouldViolate under random partial
/// colorings, and the full greedy coloring.
void ExpectQuotientMatchesNaive(const PartitionConflictOracle& indexed,
                                const NaiveConflictOracle& naive, Rng& rng) {
  ASSERT_EQ(indexed.NumVertices(), naive.NumVertices());
  size_t m = indexed.NumVertices();
  EXPECT_EQ(indexed.CountEdges(), naive.CountEdges());
  for (size_t v = 0; v < m; ++v) {
    EXPECT_EQ(indexed.Degree(v), naive.Degree(v)) << "vertex " << v;
  }
  for (size_t u = 0; u < m; ++u) {
    for (size_t v = u + 1; v < m; ++v) {
      EXPECT_EQ(indexed.PairConflicts(u, v), naive.PairConflicts(u, v))
          << "pair " << u << "," << v;
    }
  }

  // Random partial colorings: forbidden sets and WouldViolate must agree.
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<int64_t> colors(m, kNoColor);
    for (size_t v = 0; v < m; ++v) {
      if (rng.Bernoulli(0.6)) colors[v] = rng.UniformInt(0, 5);
    }
    for (size_t v = 0; v < m; ++v) {
      // The naive oracle never reports a self-edge and neither may the
      // indexed one; compare the deduplicated color sets.
      auto lhs = ForbiddenSet(indexed, v, colors);
      auto rhs = ForbiddenSet(naive, v, colors);
      EXPECT_EQ(std::set<int64_t>(lhs.begin(), lhs.end()),
                std::set<int64_t>(rhs.begin(), rhs.end()))
          << "vertex " << v;
    }
    std::vector<size_t> same_color;
    for (size_t v = 0; v < m; ++v) {
      if (rng.Bernoulli(0.3)) same_color.push_back(v);
    }
    for (size_t v = 0; v < m; ++v) {
      EXPECT_EQ(indexed.WouldViolate(v, same_color),
                naive.WouldViolate(v, same_color))
          << "vertex " << v;
    }
  }

  // Greedy colorings must be byte-identical (same candidate list and seed).
  std::vector<int64_t> candidates;
  int64_t num_candidates = rng.UniformInt(1, 8);
  for (int64_t c = 0; c < num_candidates; ++c) candidates.push_back(c * 7);
  ListColoringResult a = GreedyListColoring(indexed, {}, candidates);
  ListColoringResult b = GreedyListColoring(naive, {}, candidates);
  EXPECT_EQ(a.colors, b.colors);
  EXPECT_EQ(a.skipped, b.skipped);
}

class ConflictPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConflictPropertyTest, QuotientMatchesNaive) {
  Rng rng(GetParam());
  size_t n = 30 + static_cast<size_t>(rng.UniformInt(0, 50));
  Table t = RandomTable(rng, n);
  auto bound = BindAll(RandomDcs(rng), t);
  ASSERT_TRUE(bound.ok()) << bound.status();
  const DcRowClasses classes = DcRowClasses::Build(t, bound.value());

  std::vector<uint32_t> rows;
  for (uint32_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.9)) rows.push_back(i);  // non-contiguous partitions
  }

  auto indexed = PartitionConflictOracle::Build(t, classes, rows);
  ASSERT_TRUE(indexed.ok()) << indexed.status();
  auto naive = NaiveConflictOracle::Build(t, bound.value(), rows);
  ASSERT_TRUE(naive.ok()) << naive.status();
  ExpectQuotientMatchesNaive(indexed.value(), naive.value(), rng);
}

TEST_P(ConflictPropertyTest, ManyProductDcsMatchNaive) {
  // Forty overlapping product DCs (no cross atoms) on top of the random
  // ones: buckets are keyed by forty-bit-plus side signatures, spanning more
  // than one signature word, and their pairs dedup against each other and
  // against the cross-atom DCs' pairs.
  Rng rng(GetParam() * 389 + 3);
  size_t n = 40 + static_cast<size_t>(rng.UniformInt(0, 40));
  Table t = RandomTable(rng, n);
  std::vector<DenialConstraint> dcs;
  constexpr int kProducts = 40;
  for (int k = 0; k < kProducts; ++k) {
    DenialConstraint dc(2, "product-" + std::to_string(k));
    dc.Unary(0, "Age", CompareOp::kGe, Value(int64_t{2 * k}));
    if (k % 2 == 0) {
      // Both sides alike: a clique, so its buckets are self-adjacent.
      dc.Unary(1, "Age", CompareOp::kGe, Value(int64_t{2 * k}));
    } else {
      dc.Unary(1, "G", CompareOp::kEq, Value(int64_t{k % 5}));
    }
    dcs.push_back(std::move(dc));
  }
  for (DenialConstraint& dc : RandomDcs(rng)) dcs.push_back(std::move(dc));
  auto bound = BindAll(dcs, t);
  ASSERT_TRUE(bound.ok()) << bound.status();
  const DcRowClasses classes = DcRowClasses::Build(t, bound.value());
  std::vector<uint32_t> rows;
  for (uint32_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.9)) rows.push_back(i);
  }

  auto indexed = PartitionConflictOracle::Build(t, classes, rows);
  ASSERT_TRUE(indexed.ok()) << indexed.status();
  EXPECT_GT(indexed->num_materialized_pairs(), 0u);
  auto naive = NaiveConflictOracle::Build(t, bound.value(), rows);
  ASSERT_TRUE(naive.ok()) << naive.status();
  ExpectQuotientMatchesNaive(indexed.value(), naive.value(), rng);
}

TEST_P(ConflictPropertyTest, FactoryFallbackPreservesSemantics) {
  Rng rng(GetParam() * 977 + 5);
  size_t n = 40;
  Table t = RandomTable(rng, n);
  auto bound = BindAll(RandomDcs(rng), t);
  ASSERT_TRUE(bound.ok());
  const DcRowClasses classes = DcRowClasses::Build(t, bound.value());
  std::vector<uint32_t> rows(n);
  for (uint32_t i = 0; i < n; ++i) rows[i] = i;

  // A pair budget of 1 forces the naive fallback.
  ConflictOracleOptions tiny;
  tiny.max_materialized_pairs = 1;
  auto fallback = BuildPartitionOracle(t, classes, rows, tiny);
  ASSERT_TRUE(fallback.ok()) << fallback.status();
  auto indexed = BuildPartitionOracle(t, classes, rows);
  ASSERT_TRUE(indexed.ok());
  for (size_t u = 0; u < n; ++u) {
    EXPECT_EQ((*fallback)->Degree(u), (*indexed)->Degree(u));
    for (size_t v = u + 1; v < n; ++v) {
      EXPECT_EQ((*fallback)->PairConflicts(u, v),
                (*indexed)->PairConflicts(u, v));
    }
  }
  EXPECT_EQ((*fallback)->CountEdges(), (*indexed)->CountEdges());
}

/// Forwards the generic queries of a wrapped oracle and keeps the default
/// empty Structure(), so coloring through it takes the generic
/// AppendForbiddenColors path.
class GenericOnlyOracle : public ConflictOracle {
 public:
  explicit GenericOnlyOracle(const ConflictOracle& inner) : inner_(inner) {}
  size_t NumVertices() const override { return inner_.NumVertices(); }
  int64_t Degree(size_t v) const override { return inner_.Degree(v); }
  void AppendForbiddenColors(size_t v, const std::vector<int64_t>& colors,
                             std::vector<int64_t>* out) const override {
    inner_.AppendForbiddenColors(v, colors, out);
  }

 private:
  const ConflictOracle& inner_;
};

/// Colors through the quotient and through the generic path, from scratch
/// and resuming `initial`, then runs the fresh-color pass over the skipped
/// vertices on both; every result must be identical. Returns whether the
/// quotient run took the CSR rung.
bool ExpectQuotientColoringMatchesGeneric(
    const PartitionConflictOracle& oracle, const std::vector<int64_t>& initial,
    const std::vector<int64_t>& candidates) {
  const GenericOnlyOracle generic(oracle);
  EXPECT_TRUE(oracle.Structure().Decomposed());
  EXPECT_FALSE(generic.Structure().Decomposed());
  ListColoringResult fast = GreedyListColoring(oracle, initial, candidates);
  ListColoringResult ref = GreedyListColoring(generic, initial, candidates);
  EXPECT_EQ(fast.colors, ref.colors);
  EXPECT_EQ(fast.skipped, ref.skipped);
  EXPECT_FALSE(ref.csr_rung);
  // Algorithm 4's fresh pass: as many fresh colors as skipped vertices.
  std::vector<int64_t> fresh;
  for (size_t i = 0; i < fast.skipped.size(); ++i) {
    fresh.push_back(1'000'000 + static_cast<int64_t>(i));
  }
  ListColoringResult fast2 = GreedyListColoring(oracle, fast.colors, fresh);
  ListColoringResult ref2 = GreedyListColoring(generic, ref.colors, fresh);
  EXPECT_EQ(fast2.colors, ref2.colors);
  EXPECT_EQ(fast2.skipped, ref2.skipped);
  return fast.csr_rung;
}

TEST_P(ConflictPropertyTest, QuotientColoringMatchesGeneric) {
  // The quotient coloring (per-bucket forbidden rows and cursors, or the
  // CSR rung's per-vertex streams) must be byte-identical to the generic
  // AppendForbiddenColors reference path: from scratch, resuming a partial
  // coloring (colors outside the list included), over candidate lists with
  // duplicate values, and through the fresh-color pass.
  Rng rng(GetParam() * 613 + 11);
  size_t n = 40 + static_cast<size_t>(rng.UniformInt(0, 60));
  Table t = RandomTable(rng, n);
  auto bound = BindAll(RandomDcs(rng), t);
  ASSERT_TRUE(bound.ok());
  const DcRowClasses classes = DcRowClasses::Build(t, bound.value());
  std::vector<uint32_t> rows;
  for (uint32_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.9)) rows.push_back(i);
  }
  auto oracle = PartitionConflictOracle::Build(t, classes, rows);
  ASSERT_TRUE(oracle.ok()) << oracle.status();

  // Short lists, with duplicate values: the bucket rows.
  std::vector<int64_t> candidates;
  int64_t num_candidates = rng.UniformInt(2, 10);
  for (int64_t c = 0; c < num_candidates; ++c) {
    candidates.push_back(rng.Bernoulli(0.2) && c > 0 ? candidates.back()
                                                     : c * 3);
  }
  EXPECT_FALSE(ExpectQuotientColoringMatchesGeneric(*oracle, {}, candidates));

  std::vector<int64_t> initial(rows.size(), kNoColor);
  for (size_t v = 0; v < rows.size(); ++v) {
    if (rng.Bernoulli(0.4)) {
      const size_t pick =
          static_cast<size_t>(rng.UniformInt(0, num_candidates - 1));
      initial[v] = rng.Bernoulli(0.8) ? candidates[pick] : int64_t{1000};
    }
  }
  ExpectQuotientColoringMatchesGeneric(*oracle, initial, candidates);

  // A list of 64·n candidates: a row per bucket would take n words, so any
  // quotient with three or more buckets is colored on the CSR rung.
  std::vector<int64_t> long_list;
  for (size_t c = 0; c < 64 * rows.size(); ++c) {
    long_list.push_back(static_cast<int64_t>(c % 97 == 5 ? 0 : c));
  }
  ASSERT_GE(oracle->num_buckets(), 3u);
  EXPECT_TRUE(ExpectQuotientColoringMatchesGeneric(*oracle, {}, long_list));
  EXPECT_TRUE(
      ExpectQuotientColoringMatchesGeneric(*oracle, initial, long_list));
}

TEST_P(ConflictPropertyTest, NearUniqueCrossColumnMatchesNaive) {
  // A cross atom on a near-unique column (U) splits almost every vertex into
  // its own bucket: the quotient is the per-vertex CSR graph, and a
  // candidate list longer than 128 entries puts its coloring on the CSR
  // rung, from the sizes alone.
  Rng rng(GetParam() * 733 + 17);
  size_t n = 60 + static_cast<size_t>(rng.UniformInt(0, 40));
  Schema schema{{"U", DataType::kInt64}, {"Rel", DataType::kString}};
  Table t{schema};
  for (size_t i = 0; i < n; ++i) {
    Value u = rng.Bernoulli(0.03)
                  ? Value::Null()
                  : Value(rng.UniformInt(0, static_cast<int64_t>(20 * n)));
    ASSERT_TRUE(
        t.AppendRow({u, Value(rng.Bernoulli(0.3) ? "Owner" : "Child")}).ok());
  }
  std::vector<DenialConstraint> dcs;
  {
    DenialConstraint dc(2, "close-ids");
    dc.Unary(0, "Rel", CompareOp::kEq, Value("Owner"));
    dc.Binary(0, "U", CompareOp::kGt, 1, "U", -static_cast<int64_t>(4 * n));
    dc.Binary(0, "U", CompareOp::kLe, 1, "U");
    dcs.push_back(std::move(dc));
  }
  {
    DenialConstraint dc(2, "owner-owner");
    dc.Unary(0, "Rel", CompareOp::kEq, Value("Owner"));
    dc.Unary(1, "Rel", CompareOp::kEq, Value("Owner"));
    dcs.push_back(std::move(dc));
  }
  auto bound = BindAll(dcs, t);
  ASSERT_TRUE(bound.ok());
  const DcRowClasses classes = DcRowClasses::Build(t, bound.value());
  std::vector<uint32_t> rows(n);
  for (uint32_t i = 0; i < n; ++i) rows[i] = i;
  auto quotient = PartitionConflictOracle::Build(t, classes, rows);
  ASSERT_TRUE(quotient.ok()) << quotient.status();
  EXPECT_GT(quotient->num_buckets(), n * 3 / 4);
  auto naive = NaiveConflictOracle::Build(t, bound.value(), rows);
  ASSERT_TRUE(naive.ok());
  ExpectQuotientMatchesNaive(quotient.value(), naive.value(), rng);

  std::vector<int64_t> candidates;
  for (int64_t c = 0; c < 200; ++c) candidates.push_back(c);
  ListColoringResult csr = GreedyListColoring(*quotient, {}, candidates);
  EXPECT_TRUE(csr.csr_rung);
  ListColoringResult ref = GreedyListColoring(*naive, {}, candidates);
  EXPECT_EQ(csr.colors, ref.colors);
  EXPECT_EQ(csr.skipped, ref.skipped);
  EXPECT_TRUE(ExpectQuotientColoringMatchesGeneric(*quotient, {}, candidates));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConflictPropertyTest,
                         ::testing::Range<uint64_t>(1, 13));

TEST(FlatPoolBudgetTest, EntryPoolChargeTriggersNaiveFallback) {
  // The quotient build materializes one contiguous Entry pool (3 words per
  // side-1 bucket) before emitting any pair. That pool must be
  // charged against max_materialized_pairs: this DC's ordering atom never
  // holds (Age0 < Age1 - 1000 with ages in [0, 90]), so it emits ZERO pairs —
  // a budget below the pool size but above the pair count only trips if the
  // pool itself is charged, and the factory must then hand back the naive
  // fallback with identical semantics.
  constexpr size_t n = 200;
  Rng rng(2024);
  Table t = RandomTable(rng, n);
  DenialConstraint dc(2, "never-holds");
  dc.Binary(0, "Age", CompareOp::kLt, 1, "Age", -1000);
  auto bound = BindAll({dc}, t);
  ASSERT_TRUE(bound.ok());
  const DcRowClasses classes = DcRowClasses::Build(t, bound.value());
  std::vector<uint32_t> rows(n);
  for (uint32_t i = 0; i < n; ++i) rows[i] = i;

  auto full = BuildPartitionOracle(t, classes, rows);
  ASSERT_TRUE(full.ok()) << full.status();
  auto* indexed = dynamic_cast<PartitionConflictOracle*>(full->get());
  ASSERT_NE(indexed, nullptr);
  EXPECT_EQ(indexed->num_materialized_pairs(), 0u);

  // The pool holds one entry per side-1 bucket (one per distinct Age here).
  ConflictOracleOptions tiny;
  tiny.max_materialized_pairs = indexed->num_buckets();  // < pool, > 0 pairs
  auto fallback = BuildPartitionOracle(t, classes, rows, tiny);
  ASSERT_TRUE(fallback.ok()) << fallback.status();
  EXPECT_EQ(dynamic_cast<PartitionConflictOracle*>(fallback->get()), nullptr)
      << "tiny budget must reject the flat pool and fall back to naive";

  // Fallback semantics stay identical to the full indexed build.
  for (size_t u = 0; u < n; ++u) {
    EXPECT_EQ((*fallback)->Degree(u), (*full)->Degree(u));
  }
  std::vector<int64_t> candidates = {0, 7, 14};
  ListColoringResult a = GreedyListColoring(**full, {}, candidates);
  ListColoringResult b = GreedyListColoring(**fallback, {}, candidates);
  EXPECT_EQ(a.colors, b.colors);
  EXPECT_EQ(a.skipped, b.skipped);
}

TEST(QuotientCliqueTest, CliquePartitionIsOneBucket) {
  // Acceptance: a clique-style partition (single no-cross-atom DC, n = 4096)
  // is one self-adjacent bucket — no materialized pair and no naive
  // fallback — even with a pair budget far below the ~8.4M clique edges,
  // and its coloring walks the candidate list once.
  constexpr size_t n = 4096;
  Schema schema{{"Rel", DataType::kString}};
  Table t{schema};
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(t.AppendRow({Value("Owner")}).ok());
  }
  DenialConstraint dc(2, "owner-owner");
  dc.Unary(0, "Rel", CompareOp::kEq, Value("Owner"));
  dc.Unary(1, "Rel", CompareOp::kEq, Value("Owner"));
  auto bound = BindAll({dc}, t);
  ASSERT_TRUE(bound.ok());
  const DcRowClasses classes = DcRowClasses::Build(t, bound.value());
  std::vector<uint32_t> rows(n);
  for (uint32_t i = 0; i < n; ++i) rows[i] = i;

  ConflictOracleOptions tiny;
  tiny.max_materialized_pairs = 1000;  // << n(n-1)/2
  Phase2Stats stats;
  auto oracle = BuildPartitionOracle(t, classes, rows, tiny, &stats);
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  auto* indexed = dynamic_cast<PartitionConflictOracle*>(oracle->get());
  ASSERT_NE(indexed, nullptr) << "clique DC fell back to the naive oracle";
  EXPECT_EQ(stats.naive_oracle_fallbacks, 0u);
  EXPECT_EQ(stats.conflict_buckets, 1u);
  EXPECT_EQ(stats.materialized_pairs, 0u);
  EXPECT_EQ(indexed->num_buckets(), 1u);
  EXPECT_EQ(indexed->num_materialized_pairs(), 0u);
  EXPECT_EQ(indexed->CountEdges(), n * (n - 1) / 2);
  for (size_t v : {size_t{0}, size_t{17}, n - 1}) {
    EXPECT_EQ(indexed->Degree(v), static_cast<int64_t>(n - 1));
  }
  EXPECT_TRUE(indexed->PairConflicts(0, n - 1));
  EXPECT_FALSE(indexed->PairConflicts(5, 5));
  std::vector<size_t> bucket = {1, 2, 3};
  EXPECT_TRUE(indexed->WouldViolate(0, bucket));
  // A full greedy coloring with n candidates assigns every vertex a distinct
  // color without ever materializing an edge.
  std::vector<int64_t> candidates;
  for (int64_t c = 0; c < static_cast<int64_t>(n); ++c)
    candidates.push_back(c);
  ListColoringResult coloring = GreedyListColoring(*indexed, {}, candidates);
  EXPECT_FALSE(coloring.csr_rung);
  EXPECT_TRUE(coloring.skipped.empty());
  std::set<int64_t> distinct(coloring.colors.begin(), coloring.colors.end());
  EXPECT_EQ(distinct.size(), n);
}

TEST(QuotientCliqueTest, MixedProductAndCrossDcsStaySimpleGraph) {
  // Two overlapping product DCs plus an equality DC: union degrees must
  // match a brute-force dedup pair scan (no double counting between
  // overlapping DCs or between a bucket's self-adjacency and its pairs).
  Rng rng(71);
  Table t = RandomTable(rng, 64);
  std::vector<DenialConstraint> dcs;
  {
    DenialConstraint dc(2, "owner-owner");
    dc.Unary(0, "Rel", CompareOp::kEq, Value("Owner"));
    dc.Unary(1, "Rel", CompareOp::kEq, Value("Owner"));
    dcs.push_back(std::move(dc));
  }
  {
    DenialConstraint dc(2, "owner-anyone");
    dc.Unary(0, "Rel", CompareOp::kEq, Value("Owner"));
    dc.UnaryIn(1, "Rel",
               {Value("Owner"), Value("Spouse"), Value("Child")});
    dcs.push_back(std::move(dc));
  }
  {
    DenialConstraint dc(2, "same-group");
    dc.Unary(0, "ML", CompareOp::kEq, Value(int64_t{1}));
    dc.Unary(1, "ML", CompareOp::kEq, Value(int64_t{1}));
    dc.Binary(0, "G", CompareOp::kEq, 1, "G");
    dcs.push_back(std::move(dc));
  }
  auto bound = BindAll(dcs, t);
  ASSERT_TRUE(bound.ok());
  const DcRowClasses classes = DcRowClasses::Build(t, bound.value());
  std::vector<uint32_t> rows(64);
  for (uint32_t i = 0; i < 64; ++i) rows[i] = i;
  auto indexed = PartitionConflictOracle::Build(t, classes, rows);
  ASSERT_TRUE(indexed.ok()) << indexed.status();
  // Buckets: (signature, G when same-group's sides hold), at most
  // 4 Rel classes x 2 ML values x 6 G codes (NULL included).
  EXPECT_LE(indexed->num_buckets(), 48u);
  auto naive = NaiveConflictOracle::Build(t, bound.value(), rows);
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(indexed->CountEdges(), naive->CountEdges());
  for (size_t v = 0; v < 64; ++v) {
    EXPECT_EQ(indexed->Degree(v), naive->Degree(v)) << "vertex " << v;
  }
}

TEST(QuotientCliqueTest, SelfAdjacentBucketsMatchNaive) {
  // Rows with equal G and Age share a bucket, and the band DC holds on two
  // such rows (|Age - Age| <= 5 with equal G): those buckets are
  // self-adjacent, next to bucket pairs for the rows with nearby ages.
  Rng rng(97);
  Schema schema{{"G", DataType::kInt64}, {"Age", DataType::kInt64}};
  Table t{schema};
  for (size_t i = 0; i < 120; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(rng.UniformInt(0, 2)),
                             Value(rng.UniformInt(20, 40))})
                    .ok());
  }
  DenialConstraint dc(2, "band");
  dc.Binary(0, "G", CompareOp::kEq, 1, "G");
  dc.Binary(0, "Age", CompareOp::kGe, 1, "Age", -5);
  dc.Binary(0, "Age", CompareOp::kLe, 1, "Age", 5);
  auto bound = BindAll({dc}, t);
  ASSERT_TRUE(bound.ok());
  const DcRowClasses classes = DcRowClasses::Build(t, bound.value());
  std::vector<uint32_t> rows(120);
  for (uint32_t i = 0; i < 120; ++i) rows[i] = i;
  auto quotient = PartitionConflictOracle::Build(t, classes, rows);
  ASSERT_TRUE(quotient.ok()) << quotient.status();
  const QuotientGraph::Level& buckets = quotient->quotient().buckets();
  EXPECT_LE(buckets.size(), 63u);  // 3 G values x 21 ages
  EXPECT_GT(std::count(buckets.self.begin(), buckets.self.end(), 1), 0);
  EXPECT_GT(buckets.adjacency.num_edges(), 0u);
  auto naive = NaiveConflictOracle::Build(t, bound.value(), rows);
  ASSERT_TRUE(naive.ok());
  ExpectQuotientMatchesNaive(quotient.value(), naive.value(), rng);
}

// The paper-example partition (Figure 7) through both oracles: a directed
// sanity anchor on top of the randomized sweep.
TEST(ConflictPropertyFixtureTest, PaperExampleChicagoPartitionMatches) {
  using testing_fixtures::MakePaperExample;
  auto ex = MakePaperExample();
  Table persons = ex.persons.Clone();
  size_t hid_col = persons.schema().IndexOrDie("hid");
  const int64_t hids[] = {2, 1, 3, 4, 3, 4, 4, 5, 6};
  for (size_t r = 0; r < persons.NumRows(); ++r)
    persons.SetCode(r, hid_col, hids[r]);
  auto v = join_oracle::MaterializeJoin(persons, ex.housing, ex.names);
  ASSERT_TRUE(v.ok());
  auto bound = BindAll(ex.dcs, v.value());
  ASSERT_TRUE(bound.ok());
  const DcRowClasses classes = DcRowClasses::Build(v.value(), bound.value());
  std::vector<uint32_t> rows = {0, 1, 2, 3, 4, 5, 6};
  auto indexed = PartitionConflictOracle::Build(v.value(), classes, rows);
  auto naive = NaiveConflictOracle::Build(v.value(), bound.value(), rows);
  ASSERT_TRUE(indexed.ok());
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(indexed->CountEdges(), naive->CountEdges());
  for (size_t u = 0; u < rows.size(); ++u) {
    EXPECT_EQ(indexed->Degree(u), naive->Degree(u));
    for (size_t w = u + 1; w < rows.size(); ++w) {
      EXPECT_EQ(indexed->PairConflicts(u, w), naive->PairConflicts(u, w));
    }
  }
}

}  // namespace
}  // namespace cextend
