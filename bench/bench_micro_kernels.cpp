// Micro-benchmarks (google-benchmark) for the algorithmic kernels: simplex
// LP solves, conflict-oracle construction, greedy list coloring, CC pairwise
// classification, and binning.
//
// Every per-size run additionally appends one JSON-lines record
//   {"kernel": "<name>", "n": <arg>, "seconds": <time per iteration>}
// to the phase-2 perf trajectory (default `BENCH_phase2.json`, overridable
// via CEXTEND_BENCH_MICRO_JSON; set it to `off` to disable). The committed
// trajectory is the baseline that `tools/bench_diff.py` gates CI against;
// regenerate it with a Release build as documented in bench/README.md.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "constraints/relationship.h"
#include "core/binning.h"
#include "core/conflict.h"
#include "core/join_view.h"
#include "datagen/census.h"
#include "datagen/constraint_gen.h"
#include "graph/hypergraph.h"
#include "graph/list_coloring.h"
#include "ilp/solver.h"
#include "util/rng.h"

namespace cextend {
namespace {

// ---- Conflict-oracle construction + partition coloring. ----
//
// One census-shaped partition: Rel/Age/ML/G columns with the paper's DC
// shapes — an owner-owner clique DC (no cross atoms), an age-gap ordering
// DC, and an equality-bucketed group DC. This is the phase-2 hot path.

struct PartitionFixture {
  Table table;
  std::vector<BoundDenialConstraint> dcs;
  std::vector<uint32_t> rows;
  std::vector<int64_t> candidates;
};

PartitionFixture MakePartitionFixture(size_t n) {
  Rng rng(29);
  Schema schema{{"Rel", DataType::kString},
                {"Age", DataType::kInt64},
                {"ML", DataType::kInt64},
                {"G", DataType::kInt64}};
  Table t{schema};
  const char* rels[] = {"Owner", "Spouse", "Child", "Other"};
  for (size_t i = 0; i < n; ++i) {
    CEXTEND_CHECK(t.AppendRow({Value(rels[rng.UniformInt(0, 3)]),
                               Value(rng.UniformInt(0, 90)),
                               Value(rng.UniformInt(0, 1)),
                               Value(rng.UniformInt(0, 63))})
                      .ok());
  }
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
    dc.Binary(1, "Age", CompareOp::kLt, 0, "Age", -50);
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
  CEXTEND_CHECK(bound.ok());
  PartitionFixture fixture{std::move(t), std::move(bound).value(), {}, {}};
  for (uint32_t i = 0; i < n; ++i) fixture.rows.push_back(i);
  for (int64_t c = 0; c < 64; ++c) fixture.candidates.push_back(c);
  return fixture;
}

void BM_ConflictBuildIndexed(benchmark::State& state) {
  PartitionFixture f = MakePartitionFixture(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto oracle = PartitionConflictOracle::Build(f.table, f.dcs, f.rows);
    CEXTEND_CHECK(oracle.ok());
    benchmark::DoNotOptimize(oracle->CountEdges());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ConflictBuildIndexed)->Arg(512)->Arg(2048)->Arg(4096)->Complexity();

void BM_ConflictBuildNaive(benchmark::State& state) {
  PartitionFixture f = MakePartitionFixture(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto oracle = NaiveConflictOracle::Build(f.table, f.dcs, f.rows);
    CEXTEND_CHECK(oracle.ok());
    benchmark::DoNotOptimize(oracle->CountEdges());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ConflictBuildNaive)->Arg(512)->Arg(2048)->Complexity();

void BM_PartitionColoringIndexed(benchmark::State& state) {
  PartitionFixture f = MakePartitionFixture(static_cast<size_t>(state.range(0)));
  auto oracle = PartitionConflictOracle::Build(f.table, f.dcs, f.rows);
  CEXTEND_CHECK(oracle.ok());
  for (auto _ : state) {
    ListColoringResult r = GreedyListColoring(*oracle, {}, f.candidates);
    benchmark::DoNotOptimize(r.colors.data());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PartitionColoringIndexed)
    ->Arg(512)->Arg(2048)->Arg(4096)->Complexity();

void BM_PartitionColoringNaive(benchmark::State& state) {
  PartitionFixture f = MakePartitionFixture(static_cast<size_t>(state.range(0)));
  auto oracle = NaiveConflictOracle::Build(f.table, f.dcs, f.rows);
  CEXTEND_CHECK(oracle.ok());
  for (auto _ : state) {
    ListColoringResult r = GreedyListColoring(*oracle, {}, f.candidates);
    benchmark::DoNotOptimize(r.colors.data());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PartitionColoringNaive)->Arg(512)->Arg(2048)->Complexity();

void BM_ConflictBuildImplicitClique(benchmark::State& state) {
  // Single no-cross-atom DC over an all-matching partition: the implicit
  // biclique representation keeps construction O(n) (no materialized pair
  // list), where the CSR path would cost Θ(n²) memory and time.
  size_t n = static_cast<size_t>(state.range(0));
  Schema schema{{"Rel", DataType::kString}};
  Table t{schema};
  for (size_t i = 0; i < n; ++i) {
    CEXTEND_CHECK(t.AppendRow({Value("Owner")}).ok());
  }
  std::vector<DenialConstraint> dcs;
  {
    DenialConstraint dc(2, "owner-owner");
    dc.Unary(0, "Rel", CompareOp::kEq, Value("Owner"));
    dc.Unary(1, "Rel", CompareOp::kEq, Value("Owner"));
    dcs.push_back(std::move(dc));
  }
  auto bound = BindAll(dcs, t);
  CEXTEND_CHECK(bound.ok());
  std::vector<uint32_t> rows(n);
  for (uint32_t i = 0; i < n; ++i) rows[i] = i;
  for (auto _ : state) {
    auto oracle = PartitionConflictOracle::Build(t, bound.value(), rows);
    CEXTEND_CHECK(oracle.ok());
    CEXTEND_CHECK(oracle->num_materialized_pairs() == 0);
    benchmark::DoNotOptimize(oracle->CountEdges());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ConflictBuildImplicitClique)
    ->Arg(4096)->Arg(16384)->Arg(65536)->Complexity();

// ---- Invalid-tuple repair kernels (solveInvalidTuples pass 2). ----
//
// Probe kernels: one candidate-key probe for an invalid row against a
// same-key bucket of size B. The oracle path is one WouldViolate call — O(B)
// pair tests plus a hyperedge membership check — while ScanWouldViolate
// evaluates the DCs directly: O(B) pair tests per binary DC plus a Θ(B²)
// bucket-pair loop for the arity-3 DC (the probe row can fill it).
//
// Combo kernels: a whole repair combo through AssignRepairKeys with each
// conflict source forced, so the oracle build is charged too. They bracket
// the kBySize rule: a combo with no partition and a growing repair group
// (RepairGroup*, where the oracle wins), and a large colored partition that
// takes four repaired rows (RepairFew*, where scanning wins).

struct RepairFixture {
  Table table;
  std::vector<BoundDenialConstraint> dcs;
  std::vector<uint32_t> rows;
  std::vector<size_t> others;  // local ids eligible for the probe bucket
};

RepairFixture MakeRepairFixture(size_t n) {
  Rng rng(31);
  Schema schema{{"Rel", DataType::kString},
                {"Age", DataType::kInt64},
                {"ML", DataType::kInt64},
                {"G", DataType::kInt64}};
  Table t{schema};
  for (size_t i = 0; i < n; ++i) {
    bool owner = i < n / 4;
    CEXTEND_CHECK(t.AppendRow({Value(owner ? "Owner" : "Other"),
                               Value(rng.UniformInt(0, 90)),
                               Value(!owner && i % 32 == 0 ? int64_t{1}
                                                          : int64_t{0}),
                               Value(static_cast<int64_t>(i))})
                      .ok());
  }
  std::vector<DenialConstraint> dcs;
  {
    // Clique over the owners (implicit biclique).
    DenialConstraint dc(2, "owner-owner");
    dc.Unary(0, "Rel", CompareOp::kEq, Value("Owner"));
    dc.Unary(1, "Rel", CompareOp::kEq, Value("Owner"));
    dcs.push_back(std::move(dc));
  }
  {
    // Ordering DC between owners and the bucket population (indexed runs).
    DenialConstraint dc(2, "age-gap");
    dc.Unary(0, "Rel", CompareOp::kEq, Value("Owner"));
    dc.Unary(1, "Rel", CompareOp::kEq, Value("Other"));
    dc.Binary(1, "Age", CompareOp::kLt, 0, "Age", -50);
    dcs.push_back(std::move(dc));
  }
  {
    // Arity 3 with tight sides (hypergraph layer; the G chain keeps the
    // edge set sparse).
    DenialConstraint dc(3, "triple");
    for (int var = 0; var < 3; ++var) {
      dc.Unary(var, "Rel", CompareOp::kEq, Value("Other"));
      dc.Unary(var, "ML", CompareOp::kEq, Value(int64_t{1}));
    }
    dc.Binary(0, "G", CompareOp::kEq, 1, "G");
    dc.Binary(1, "G", CompareOp::kEq, 2, "G");
    dcs.push_back(std::move(dc));
  }
  auto bound = BindAll(dcs, t);
  CEXTEND_CHECK(bound.ok());
  RepairFixture f{std::move(t), std::move(bound).value(), {}, {}};
  for (uint32_t i = 0; i < n; ++i) {
    f.rows.push_back(i);
    if (i >= n / 4) f.others.push_back(i);
  }
  return f;
}

void BM_InvalidRepairOracleProbe(benchmark::State& state) {
  size_t bucket_size = static_cast<size_t>(state.range(0));
  RepairFixture f = MakeRepairFixture(8192);
  CEXTEND_CHECK(bucket_size + 1 <= f.others.size());
  auto oracle = BuildPartitionOracle(f.table, f.dcs, f.rows);
  CEXTEND_CHECK(oracle.ok());
  std::vector<size_t> bucket(f.others.begin(),
                             f.others.begin() + bucket_size);
  size_t probe = f.others.back();
  for (auto _ : state) {
    benchmark::DoNotOptimize((*oracle)->WouldViolate(probe, bucket));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_InvalidRepairOracleProbe)
    ->Arg(64)->Arg(256)->Arg(1024)->Arg(4096)->Complexity();

void BM_InvalidRepairScanProbe(benchmark::State& state) {
  size_t bucket_size = static_cast<size_t>(state.range(0));
  RepairFixture f = MakeRepairFixture(8192);
  CEXTEND_CHECK(bucket_size + 1 <= f.others.size());
  std::vector<size_t> bucket(f.others.begin(),
                             f.others.begin() + bucket_size);
  // A multilingual "Other" row past the bucket: it can fill the triple DC,
  // so the scan walks every bucket pair (the G chain never closes).
  const uint32_t probe_row = 8160;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ScanWouldViolate(f.table, f.dcs, probe_row, bucket, f.rows));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_InvalidRepairScanProbe)
    ->Arg(64)->Arg(256)->Arg(1024)->Complexity();

/// One repair combo over the repair fixture: `colored` partition rows in
/// same-key buckets of four, then `group` rows to repair. Rows are spread
/// over the fixture so owners and triple-DC rows mix.
void RunRepairCombo(benchmark::State& state, size_t colored, size_t group,
                    RepairProbe probe) {
  RepairFixture f = MakeRepairFixture(8192);
  CEXTEND_CHECK(colored + group <= f.rows.size());
  std::vector<uint32_t> rows;
  for (size_t j = 0; j < colored + group; ++j) {
    rows.push_back(f.rows[(j * 7919) % f.rows.size()]);
  }
  const int64_t num_keys = std::max<int64_t>(4, colored / 4);
  std::vector<int64_t> colored_keys;
  for (size_t v = 0; v < colored; ++v) {
    colored_keys.push_back(static_cast<int64_t>(v) % num_keys);
  }
  std::vector<int64_t> keys;
  for (int64_t k = 0; k < num_keys; ++k) keys.push_back(k);
  for (auto _ : state) {
    auto assigned =
        AssignRepairKeys(f.table, f.dcs, rows, colored_keys, keys, probe);
    CEXTEND_CHECK(assigned.ok());
    benchmark::DoNotOptimize(assigned->keys.data());
  }
  // Which side the production size rule takes on this combo.
  auto by_size = AssignRepairKeys(f.table, f.dcs, rows, colored_keys, keys);
  CEXTEND_CHECK(by_size.ok());
  state.counters["size_rule_oracle"] = by_size->used_oracle ? 1 : 0;
}

void BM_InvalidRepairGroupScan(benchmark::State& state) {
  RunRepairCombo(state, 0, static_cast<size_t>(state.range(0)),
                 RepairProbe::kScan);
}
BENCHMARK(BM_InvalidRepairGroupScan)->Arg(16)->Arg(64)->Arg(256);

void BM_InvalidRepairGroupOracle(benchmark::State& state) {
  RunRepairCombo(state, 0, static_cast<size_t>(state.range(0)),
                 RepairProbe::kOracle);
}
BENCHMARK(BM_InvalidRepairGroupOracle)->Arg(16)->Arg(64)->Arg(256);

void BM_InvalidRepairFewScan(benchmark::State& state) {
  RunRepairCombo(state, static_cast<size_t>(state.range(0)), 4,
                 RepairProbe::kScan);
}
BENCHMARK(BM_InvalidRepairFewScan)->Arg(1024)->Arg(4096);

void BM_InvalidRepairFewOracle(benchmark::State& state) {
  RunRepairCombo(state, static_cast<size_t>(state.range(0)), 4,
                 RepairProbe::kOracle);
}
BENCHMARK(BM_InvalidRepairFewOracle)->Arg(1024)->Arg(4096);

// ---- Simplex on random dense feasible LPs. ----
void BM_SimplexRandomLp(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  size_t m = n / 2;
  Rng rng(7);
  ilp::Model model;
  std::vector<double> witness(n);
  for (size_t j = 0; j < n; ++j) {
    model.AddVariable(1.0, false);
    witness[j] = static_cast<double>(rng.UniformInt(0, 5));
  }
  for (size_t i = 0; i < m; ++i) {
    std::vector<ilp::LinearTerm> terms;
    double rhs = 0.0;
    for (size_t j = 0; j < n; ++j) {
      if (rng.Bernoulli(0.3)) {
        terms.push_back({static_cast<int>(j), 1.0});
        rhs += witness[j];
      }
    }
    if (terms.empty()) continue;
    model.AddConstraint(std::move(terms), ilp::Sense::kEq, rhs);
  }
  for (auto _ : state) {
    ilp::LpResult result = ilp::SolveLp(model);
    benchmark::DoNotOptimize(result.objective);
  }
}
BENCHMARK(BM_SimplexRandomLp)->Arg(32)->Arg(128)->Arg(512);

// ---- Greedy list coloring on random graphs. ----
void BM_GreedyColoring(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Rng rng(11);
  Hypergraph g(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (rng.Bernoulli(8.0 / static_cast<double>(n))) {
        g.AddEdge({static_cast<int>(i), static_cast<int>(j)});
      }
    }
  }
  std::vector<int64_t> candidates;
  for (int64_t c = 0; c < 32; ++c) candidates.push_back(c);
  for (auto _ : state) {
    ListColoringResult result = GreedyListColoring(g, {}, candidates);
    benchmark::DoNotOptimize(result.colors.data());
  }
}
BENCHMARK(BM_GreedyColoring)->Arg(256)->Arg(1024)->Arg(4096);

// ---- CC pairwise classification. ----
void BM_ClassifyAll(benchmark::State& state) {
  size_t num_ccs = static_cast<size_t>(state.range(0));
  datagen::CensusOptions census;
  census.num_persons = 1000;
  census.num_households = 400;
  auto data = datagen::GenerateCensus(census);
  CEXTEND_CHECK(data.ok());
  datagen::CcFamilyOptions cc_options;
  cc_options.num_ccs = num_ccs;
  auto ccs = datagen::GenerateCcs(data.value(), cc_options);
  CEXTEND_CHECK(ccs.ok());
  auto v = MakeJoinView(data->persons, data->housing, data->names);
  CEXTEND_CHECK(v.ok());
  for (auto _ : state) {
    auto matrix = ClassifyAll(*ccs, v->schema(), data->housing.schema());
    CEXTEND_CHECK(matrix.ok());
    benchmark::DoNotOptimize(matrix->matrix.data());
  }
  state.SetComplexityN(static_cast<int64_t>(num_ccs));
}
BENCHMARK(BM_ClassifyAll)->Arg(64)->Arg(201)->Arg(400)->Complexity();

// ---- Binning (intervalization + assignment). ----
void BM_Binning(benchmark::State& state) {
  size_t persons = static_cast<size_t>(state.range(0));
  datagen::CensusOptions census;
  census.num_persons = persons;
  census.num_households = persons * 2 / 5;
  auto data = datagen::GenerateCensus(census);
  CEXTEND_CHECK(data.ok());
  datagen::CcFamilyOptions cc_options;
  cc_options.num_ccs = 100;
  auto ccs = datagen::GenerateCcs(data.value(), cc_options);
  CEXTEND_CHECK(ccs.ok());
  auto v = MakeJoinView(data->persons, data->housing, data->names);
  CEXTEND_CHECK(v.ok());
  for (auto _ : state) {
    auto binning = Binning::Create(v.value(), data->names.r1_attrs, *ccs);
    CEXTEND_CHECK(binning.ok());
    benchmark::DoNotOptimize(binning->num_bins());
  }
}
BENCHMARK(BM_Binning)->Arg(2500)->Arg(10000);

// ---- JSON-lines trajectory reporter. ----
//
// Wraps the console reporter and appends one record per concrete benchmark
// run (aggregates and BigO/RMS complexity rows are skipped). The record key
// is the benchmark name split at the first '/': "BM_PartitionColoring/4096"
// becomes kernel "PartitionColoring", n 4096 (the leading "BM_" is dropped
// so records read like the ROADMAP kernels).
class JsonLinesReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    const char* path = getenv("CEXTEND_BENCH_MICRO_JSON");
    if (path != nullptr && strcmp(path, "off") == 0) return;
    if (path == nullptr || *path == '\0') path = "BENCH_phase2.json";
    FILE* f = fopen(path, "a");
    if (f == nullptr) return;  // perf log is best-effort
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration) continue;
      std::string name = run.benchmark_name();
      if (name.rfind("BM_", 0) == 0) name = name.substr(3);
      size_t slash = name.find('/');
      long long n = 0;
      if (slash != std::string::npos) {
        n = atoll(name.c_str() + slash + 1);
        name = name.substr(0, slash);
      }
      // GetAdjustedRealTime is per-iteration time scaled into the run's
      // display unit (ns by default); divide the unit back out for seconds.
      double seconds = run.GetAdjustedRealTime() /
                       benchmark::GetTimeUnitMultiplier(run.time_unit);
      fprintf(f, "{\"kernel\": \"%s\", \"n\": %lld, \"seconds\": %.9f}\n",
              name.c_str(), n, seconds);
    }
    fclose(f);
  }
};

}  // namespace
}  // namespace cextend

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  cextend::JsonLinesReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
