// Constraint-spec fuzzer smoke: a few hundred seeded random spec files —
// valid, unsatisfiable, and deliberately malformed — are pushed through the
// text parser and the full solver. The invariant is the robustness contract:
// every input yields either a verifier-clean database (zero DC violations,
// exact join identity) or a clean non-OK Status. No crash, no abort, no
// corrupt output. Registered in CMake as the `constraint_fuzz_smoke` ctest
// target (the file name intentionally avoids the tests/*_test.cc glob).

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "constraints/metrics.h"
#include "constraints/parser.h"
#include "core/solver.h"
#include "datagen/census.h"
#include "util/rng.h"

namespace cextend {
namespace {

struct FuzzColumn {
  std::string name;
  bool is_string;
  bool in_r1;
};

// Values drawn for string atoms: census vocabulary, plausible-but-absent
// strings, and junk (absent values exercise the never-matches binding path).
const char* const kStringPool[] = {
    "Owner",   "Spouse",  "Biological child", "Sibling", "House/Room mate",
    "Owned",   "Rented",  "Area3",            "Area57",  "Chicago",
    "zzz-not-a-value", "",  "Unmarried partner",
};

std::string RandomValue(Rng& rng, bool is_string) {
  if (is_string) {
    size_t n = sizeof(kStringPool) / sizeof(kStringPool[0]);
    std::string quoted = "\"";
    quoted += kStringPool[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(n) - 1))];
    quoted += '"';
    return quoted;
  }
  if (rng.Bernoulli(0.1)) return std::to_string(rng.UniformInt(-1000000, 1000000));
  return std::to_string(rng.UniformInt(-5, 100));
}

const char* RandomOp(Rng& rng, bool is_string) {
  // Ordering ops on string columns are invalid — kept in the pool on
  // purpose; they must surface as InvalidArgument, not an abort.
  static const char* const kOps[] = {"=", "!=", "<", "<=", ">", ">="};
  if (is_string && rng.Bernoulli(0.8)) return rng.Bernoulli(0.5) ? "=" : "!=";
  return kOps[static_cast<size_t>(rng.UniformInt(0, 5))];
}

std::string RandomPredicate(Rng& rng, const std::vector<FuzzColumn>& columns) {
  size_t atoms = 1 + static_cast<size_t>(rng.UniformInt(0, 2));
  std::string out;
  for (size_t i = 0; i < atoms; ++i) {
    if (i > 0) out += " & ";
    const FuzzColumn& col = columns[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(columns.size()) - 1))];
    if (rng.Bernoulli(0.15) && col.is_string) {
      out += col.name + " IN {" + RandomValue(rng, true) + ", " +
             RandomValue(rng, true) + "}";
    } else {
      out += col.name + " " + RandomOp(rng, col.is_string) + " " +
             RandomValue(rng, col.is_string);
    }
  }
  return out;
}

std::string RandomDcLine(Rng& rng, const std::vector<FuzzColumn>& columns,
                         size_t index) {
  // Tuple variables t0..t2; occasionally t0-only or a gap — the parser or
  // binder must reject those cleanly.
  int max_tuple = rng.Bernoulli(0.1) ? 0 : (rng.Bernoulli(0.8) ? 1 : 2);
  size_t atoms = 1 + static_cast<size_t>(rng.UniformInt(0, 2));
  std::string out = "dc fz" + std::to_string(index) + ": !(";
  for (size_t i = 0; i < atoms; ++i) {
    if (i > 0) out += " & ";
    const FuzzColumn& col = columns[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(columns.size()) - 1))];
    int lhs = static_cast<int>(rng.UniformInt(0, max_tuple));
    if (rng.Bernoulli(0.35)) {
      // Binary cross-tuple atom, sometimes with an offset; the rhs column
      // can mismatch the lhs type (must bind to InvalidArgument).
      const FuzzColumn& rhs = rng.Bernoulli(0.85)
                                  ? col
                                  : columns[static_cast<size_t>(rng.UniformInt(
                                        0,
                                        static_cast<int64_t>(columns.size()) -
                                            1))];
      int rhs_tuple = static_cast<int>(rng.UniformInt(0, max_tuple));
      out += 't';
      out += std::to_string(lhs) + "." + col.name + " " +
             RandomOp(rng, col.is_string || rhs.is_string) + " t" +
             std::to_string(rhs_tuple) + "." + rhs.name;
      if (!col.is_string && !rhs.is_string && rng.Bernoulli(0.3)) {
        int64_t off = rng.UniformInt(-50, 50);
        if (off >= 0) out += "+";
        out += std::to_string(off);
      }
    } else {
      out += 't';
      out += std::to_string(lhs) + "." + col.name + " " +
             RandomOp(rng, col.is_string) + " " +
             RandomValue(rng, col.is_string);
    }
  }
  return out + ")";
}

// Deliberately broken lines the parser must reject with InvalidArgument.
const char* const kMalformed[] = {
    "cc bad1: COUNT(Age <",
    "dc bad2: !(t0.Rel = )",
    "cc bad3: COUNT() = 3",
    "dc bad4: !(t0.Rel = \"Owner\" & t5.Rel = \"Owner\")",
    "dc bad5: t0.Rel = \"Owner\"",
    "cc bad6: COUNT(NoSuchColumn = 1) = 2",
    "dc bad7: !(t0.Age <> 4)",
    "cc bad8: COUNT(Age = 4) = notanumber",
};

TEST(ConstraintFuzzSmoke, RandomSpecsSolveCleanOrFailClean) {
  // Small on purpose: arity-3 fuzz DCs cost O(n^3) hyperedge enumeration
  // when phase 1 concentrates rows into one partition.
  datagen::CensusOptions census;
  census.num_persons = 220;
  census.num_households = 90;
  census.seed = 9001;
  auto data = datagen::GenerateCensus(census);
  ASSERT_TRUE(data.ok()) << data.status();
  const PairSchema& names = data->names;

  // Attribute schemas exactly as the CLI builds them (keys excluded).
  std::vector<FuzzColumn> columns;
  std::vector<ColumnSpec> r1_attr_cols, r2_attr_cols;
  for (const std::string& a : names.r1_attrs) {
    const Schema& s = data->persons.schema();
    ColumnSpec spec = s.column(s.IndexOrDie(a));
    r1_attr_cols.push_back(spec);
    columns.push_back({a, spec.type == DataType::kString, true});
  }
  for (const std::string& b : names.r2_attrs) {
    const Schema& s = data->housing.schema();
    ColumnSpec spec = s.column(s.IndexOrDie(b));
    r2_attr_cols.push_back(spec);
    columns.push_back({b, spec.type == DataType::kString, false});
  }
  Schema r1_schema(r1_attr_cols);
  Schema r2_schema(r2_attr_cols);
  // DCs are FK constraints over R1 tuples (Definition 2.2); the verifier
  // evaluates them on r1_hat, so fuzzed DC atoms draw R1 columns only.
  // (CC predicates still span both sides.)
  std::vector<FuzzColumn> r1_columns;
  for (const FuzzColumn& c : columns) {
    if (c.in_r1) r1_columns.push_back(c);
  }

  size_t parse_failures = 0, solve_failures = 0, clean_solves = 0;
  constexpr uint64_t kNumSpecs = 300;
  for (uint64_t spec_seed = 1; spec_seed <= kNumSpecs; ++spec_seed) {
    Rng rng(spec_seed * 6364136223846793005ULL + 1442695040888963407ULL);
    std::string spec_text = "# fuzz spec " + std::to_string(spec_seed) + "\n";
    size_t num_ccs = static_cast<size_t>(rng.UniformInt(0, 5));
    for (size_t c = 0; c < num_ccs; ++c) {
      spec_text += "cc fc" + std::to_string(c) + ": COUNT(" +
                   RandomPredicate(rng, columns) +
                   ") = " + std::to_string(rng.UniformInt(0, 60)) + "\n";
    }
    size_t num_dcs = static_cast<size_t>(rng.UniformInt(0, 4));
    for (size_t d = 0; d < num_dcs; ++d) {
      spec_text += RandomDcLine(rng, r1_columns, d) + "\n";
    }
    if (rng.Bernoulli(0.15)) {
      size_t n = sizeof(kMalformed) / sizeof(kMalformed[0]);
      spec_text += std::string(kMalformed[static_cast<size_t>(rng.UniformInt(
                       0, static_cast<int64_t>(n) - 1))]) +
                   "\n";
    }

    auto spec = ParseConstraintSpec(spec_text, r1_schema, r2_schema);
    if (!spec.ok()) {
      EXPECT_FALSE(spec.status().message().empty()) << spec_text;
      ++parse_failures;
      continue;
    }
    SolverOptions options;
    options.seed = spec_seed;
    // Random intersecting CC systems can branch heavily; a tight search
    // budget keeps the sweep fast. CC optimality is not asserted here —
    // only DC cleanliness and the join identity, which hold regardless.
    options.phase1.ilp.ilp.max_nodes = 200;
    options.phase1.ilp.ilp.time_limit_seconds = 2.0;
    auto solution = SolveCExtension(data->persons, data->housing, names,
                                    spec->ccs, spec->dcs, options);
    if (!solution.ok()) {
      // A refused solve must carry a meaningful error, e.g. a DC the binder
      // rejects (mixed types, out-of-range tuple) — never an abort.
      EXPECT_FALSE(solution.status().message().empty()) << spec_text;
      ++solve_failures;
      continue;
    }
    auto dc_report = EvaluateDcError(spec->dcs, solution->r1_hat, "hid");
    ASSERT_TRUE(dc_report.ok()) << spec_text;
    EXPECT_EQ(dc_report->num_violations, 0u)
        << spec_text << dc_report->Summary();
    auto mismatches = CountJoinMismatches(
        solution->r1_hat, "hid", solution->r2_hat, "hid", solution->v_join,
        names.r2_attrs);
    ASSERT_TRUE(mismatches.ok()) << spec_text;
    EXPECT_EQ(mismatches.value(), 0u) << spec_text;
    ++clean_solves;
  }
  std::printf("fuzz: %zu clean solves, %zu parse rejections, "
              "%zu solve rejections (of %llu specs)\n",
              clean_solves, parse_failures, solve_failures,
              static_cast<unsigned long long>(kNumSpecs));
  // The sweep must actually exercise the solver, not just the parser.
  EXPECT_GT(clean_solves, kNumSpecs / 4);
  EXPECT_GT(parse_failures, 0u);
}

}  // namespace
}  // namespace cextend
