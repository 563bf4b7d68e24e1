// Micro-benchmarks (google-benchmark) for the algorithmic kernels: simplex
// LP solves, conflict-oracle construction, greedy list coloring, CC pairwise
// classification, phase-1 CC matching and the census ILP, binning, the
// phase-1 final fill, and the census and CC-family data set-up.
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
#include <unordered_set>

#include "constraints/relationship.h"
#include "core/binning.h"
#include "core/conflict.h"
#include "core/join_view.h"
#include "core/phase1_hasse.h"
#include "core/phase1_ilp.h"
#include "core/plan.h"
#include "core/solver.h"
#include "datagen/census.h"
#include "datagen/constraint_gen.h"
#include "graph/hypergraph.h"
#include "graph/list_coloring.h"
#include "ilp/simplex.h"
#include "util/rng.h"

namespace cextend {
namespace {

// ---- Conflict-oracle construction + partition coloring. ----
//
// One census-shaped partition: Rel/Age/ML/G columns with the paper's DC
// shapes — an owner-owner clique DC (no cross atoms: one self-adjacent
// group), an age-gap ordering DC, and an equality-bucketed group DC. This is
// the phase-2 hot path.

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

// The quotient build kernels time the DC classification with the build: a
// solve classifies the join view once, but the build classified each
// partition itself before, so the two together keep measuring that work.
void BM_ConflictBuildIndexed(benchmark::State& state) {
  PartitionFixture f = MakePartitionFixture(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    const DcRowClasses classes = DcRowClasses::Build(f.table, f.dcs);
    auto oracle = PartitionConflictOracle::Build(f.table, classes, f.rows);
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
  const DcRowClasses classes = DcRowClasses::Build(f.table, f.dcs);
  auto oracle = PartitionConflictOracle::Build(f.table, classes, f.rows);
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

// ---- CSR construction from a packed pair list. ----
//
// Shaped like the largest partition of a good_250k solve (13,333 vertices,
// ~600k unique pairs): 16 ordered DCs each pair the partition's owners
// (40% of its rows) with a run of other members, emitted owner by owner in
// ascending order, so owner rows are long and the list is only partly
// ordered. The duplicate-heavy variant repeats every pair 1-3 times, as
// overlapping DCs do.

std::vector<uint64_t> CensusShapedPairs(size_t n, bool duplicates) {
  Rng rng(31);
  size_t owners = n * 2 / 5;
  std::vector<uint64_t> pairs;
  std::unordered_set<uint64_t> seen;
  for (int dc = 0; dc < 16; ++dc) {
    for (size_t u = 0; u < owners; ++u) {
      int64_t run = rng.UniformInt(0, 14);
      for (int64_t k = 0; k < run; ++k) {
        size_t v = static_cast<size_t>(
            rng.UniformInt(static_cast<int64_t>(owners),
                           static_cast<int64_t>(n) - 1));
        uint64_t p = (static_cast<uint64_t>(u) << 32) | v;
        if (seen.insert(p).second) pairs.push_back(p);
      }
    }
  }
  if (duplicates) {
    size_t unique = pairs.size();
    for (int copy = 1; copy <= 2; ++copy) {
      for (size_t i = 0; i < unique; ++i) {
        if (rng.Bernoulli(copy == 1 ? 0.6 : 0.3)) pairs.push_back(pairs[i]);
      }
    }
  }
  return pairs;
}

void RunAdjacencyFromPackedPairs(benchmark::State& state, bool duplicates) {
  size_t n = static_cast<size_t>(state.range(0));
  const std::vector<uint64_t> pairs = CensusShapedPairs(n, duplicates);
  size_t edges = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<uint64_t> input = pairs;
    state.ResumeTiming();
    AdjacencyGraph g = AdjacencyGraph::FromPackedPairs(n, std::move(input));
    edges = g.num_edges();
    benchmark::DoNotOptimize(g.NeighborsBegin(0));
    benchmark::ClobberMemory();
  }
  state.counters["raw_pairs"] = static_cast<double>(pairs.size());
  state.counters["edges"] = static_cast<double>(edges);
}
void BM_AdjacencyFromPackedPairs(benchmark::State& state) {
  RunAdjacencyFromPackedPairs(state, false);
}
void BM_AdjacencyFromPackedPairsDuplicates(benchmark::State& state) {
  RunAdjacencyFromPackedPairs(state, true);
}
BENCHMARK(BM_AdjacencyFromPackedPairs)->Arg(13333);
BENCHMARK(BM_AdjacencyFromPackedPairsDuplicates)->Arg(13333);

// Census-shaped partitions: one census table of n persons (2n/5
// households) taken whole as a partition, with every census DC
// (MakeCensusDcs(false)). Its vertices fall into buckets by the codes the
// DCs read: the 16 ordered age-gap DCs link buckets, the four product DCs
// link groups. The coloring kernel uses 256 candidate keys.

struct CensusPartition {
  datagen::CensusData data;
  std::vector<BoundDenialConstraint> dcs;
  std::vector<uint32_t> rows;
  std::vector<int64_t> candidates;
};

CensusPartition MakeCensusPartition(size_t n) {
  datagen::CensusOptions census;
  census.num_persons = n;
  census.num_households = n * 2 / 5;
  auto data = datagen::GenerateCensus(census);
  CEXTEND_CHECK(data.ok());
  auto bound = BindAll(datagen::MakeCensusDcs(false), data->persons);
  CEXTEND_CHECK(bound.ok());
  CensusPartition p{std::move(data).value(), std::move(bound).value(), {}, {}};
  p.rows.resize(p.data.persons.NumRows());
  for (uint32_t i = 0; i < p.rows.size(); ++i) p.rows[i] = i;
  for (int64_t c = 0; c < 256; ++c) p.candidates.push_back(c);
  return p;
}

void BM_ConflictBuildCensus(benchmark::State& state) {
  CensusPartition p = MakeCensusPartition(static_cast<size_t>(state.range(0)));
  size_t buckets = 0;
  size_t pairs = 0;
  for (auto _ : state) {
    const DcRowClasses classes = DcRowClasses::Build(p.data.persons, p.dcs);
    auto oracle =
        PartitionConflictOracle::Build(p.data.persons, classes, p.rows);
    CEXTEND_CHECK(oracle.ok());
    buckets = oracle->num_buckets();
    pairs = oracle->num_materialized_pairs();
    benchmark::DoNotOptimize(oracle->CountEdges());
  }
  state.counters["buckets"] = static_cast<double>(buckets);
  state.counters["pairs"] = static_cast<double>(pairs);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ConflictBuildCensus)
    ->Arg(1024)->Arg(16384)->Arg(65536)->Complexity();

void BM_PartitionColoringCensus(benchmark::State& state) {
  CensusPartition p = MakeCensusPartition(static_cast<size_t>(state.range(0)));
  const DcRowClasses classes = DcRowClasses::Build(p.data.persons, p.dcs);
  auto oracle = PartitionConflictOracle::Build(p.data.persons, classes, p.rows);
  CEXTEND_CHECK(oracle.ok());
  bool csr_rung = false;
  for (auto _ : state) {
    ListColoringResult r = GreedyListColoring(*oracle, {}, p.candidates);
    csr_rung = r.csr_rung;
    benchmark::DoNotOptimize(r.colors.data());
  }
  state.counters["buckets"] = static_cast<double>(oracle->num_buckets());
  state.counters["csr_rung"] = csr_rung ? 1.0 : 0.0;
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PartitionColoringCensus)
    ->Arg(1024)->Arg(16384)->Arg(65536)->Complexity();

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
  DcRowClasses classes;
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
    // Clique over the owners (one self-adjacent group).
    DenialConstraint dc(2, "owner-owner");
    dc.Unary(0, "Rel", CompareOp::kEq, Value("Owner"));
    dc.Unary(1, "Rel", CompareOp::kEq, Value("Owner"));
    dcs.push_back(std::move(dc));
  }
  {
    // Ordering DC between owners and the bucket population (sorted runs).
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
  DcRowClasses classes = DcRowClasses::Build(t, std::move(bound).value());
  RepairFixture f{std::move(t), std::move(classes), {}, {}};
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
  auto oracle = BuildPartitionOracle(f.table, f.classes, f.rows);
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
        ScanWouldViolate(f.table, f.classes.dcs, probe_row, bucket, f.rows));
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
        AssignRepairKeys(f.table, f.classes, rows, colored_keys, keys, probe);
    CEXTEND_CHECK(assigned.ok());
    benchmark::DoNotOptimize(assigned->data());
  }
  // Which side the production size rule takes on this combo.
  Phase2Stats by_size;
  CEXTEND_CHECK(AssignRepairKeys(f.table, f.classes, rows, colored_keys, keys,
                                 RepairProbe::kBySize, {}, &by_size)
                    .ok());
  state.counters["size_rule_oracle"] =
      static_cast<double>(by_size.oracle_repair_combos);
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
//
// Census CC families at the perfbench workload sizes over the scale-1 census
// (25,099 persons): 201 CCs as in good_250k, 1001 as in bad_1001cc. The good
// and bad families are separate kernels so the trajectory key (kernel, n)
// tells them apart.
void BM_ClassifyAll(benchmark::State& state, bool intersecting) {
  size_t num_ccs = static_cast<size_t>(state.range(0));
  auto data = datagen::GenerateCensus(datagen::ScaledCensusOptions(1.0));
  CEXTEND_CHECK(data.ok());
  datagen::CcFamilyOptions cc_options;
  cc_options.num_ccs = num_ccs;
  cc_options.intersecting = intersecting;
  auto ccs = datagen::GenerateCcs(data.value(), cc_options);
  CEXTEND_CHECK(ccs.ok());
  auto v = MakeJoinView(data->persons, data->housing, data->names);
  CEXTEND_CHECK(v.ok());
  for (auto _ : state) {
    auto matrix = ClassifyAll(*ccs, v->schema(), data->housing.schema());
    CEXTEND_CHECK(matrix.ok());
    benchmark::DoNotOptimize(matrix->matrix.data());
  }
}
void BM_ClassifyAllGood(benchmark::State& state) {
  BM_ClassifyAll(state, /*intersecting=*/false);
}
void BM_ClassifyAllBad(benchmark::State& state) {
  BM_ClassifyAll(state, /*intersecting=*/true);
}
BENCHMARK(BM_ClassifyAllGood)->Arg(201)->Arg(1001);
BENCHMARK(BM_ClassifyAllBad)->Arg(201)->Arg(1001);

// ---- Phase-I CC matching (MatchCcs) and the class-merged ILP. ----
//
// The same census and CC families as the classification kernels. MatchCcs
// times the footprint table a solve builds once after binning: every CC's
// bins and combos, from per-atom bitsets. Phase1IlpCensusBad times
// Algorithm 1 (model build, component solves on one thread, greedy fill)
// with all 1001 intersecting CCs, as under HybridOptions::force_ilp, from a
// fresh fill state per iteration; counters give the model's variables and
// its largest component.
void BM_MatchCcs(benchmark::State& state, bool intersecting) {
  size_t num_ccs = static_cast<size_t>(state.range(0));
  auto data = datagen::GenerateCensus(datagen::ScaledCensusOptions(1.0));
  CEXTEND_CHECK(data.ok());
  datagen::CcFamilyOptions cc_options;
  cc_options.num_ccs = num_ccs;
  cc_options.intersecting = intersecting;
  auto ccs = datagen::GenerateCcs(data.value(), cc_options);
  CEXTEND_CHECK(ccs.ok());
  auto v = MakeJoinView(data->persons, data->housing, data->names);
  CEXTEND_CHECK(v.ok());
  auto binning = Binning::Create(v.value(), data->names.r1_attrs, *ccs);
  CEXTEND_CHECK(binning.ok());
  auto combos = ComboIndex::Build(data->housing, data->names);
  CEXTEND_CHECK(combos.ok());
  for (auto _ : state) {
    auto matches = MatchCcs(*binning, *combos, data->housing, *ccs);
    CEXTEND_CHECK(matches.ok());
    benchmark::DoNotOptimize(matches->data());
  }
}
void BM_MatchCcsGood(benchmark::State& state) {
  BM_MatchCcs(state, /*intersecting=*/false);
}
void BM_MatchCcsBad(benchmark::State& state) {
  BM_MatchCcs(state, /*intersecting=*/true);
}
BENCHMARK(BM_MatchCcsGood)->Arg(201)->Arg(1001);
BENCHMARK(BM_MatchCcsBad)->Arg(201)->Arg(1001);

void BM_Phase1IlpCensusBad(benchmark::State& state) {
  size_t num_ccs = static_cast<size_t>(state.range(0));
  auto data = datagen::GenerateCensus(datagen::ScaledCensusOptions(1.0));
  CEXTEND_CHECK(data.ok());
  datagen::CcFamilyOptions cc_options;
  cc_options.num_ccs = num_ccs;
  cc_options.intersecting = true;
  auto ccs = datagen::GenerateCcs(data.value(), cc_options);
  CEXTEND_CHECK(ccs.ok());
  auto v = MakeJoinView(data->persons, data->housing, data->names);
  CEXTEND_CHECK(v.ok());
  auto binning = Binning::Create(v.value(), data->names.r1_attrs, *ccs);
  CEXTEND_CHECK(binning.ok());
  auto combos = ComboIndex::Build(data->housing, data->names);
  CEXTEND_CHECK(combos.ok());
  auto matches = MatchCcs(*binning, *combos, data->housing, *ccs);
  CEXTEND_CHECK(matches.ok());
  Phase1IlpStats stats;
  for (auto _ : state) {
    state.PauseTiming();
    Table v_join = v->Clone();
    auto fill = FillState::Create(&v_join, data->names, &binning.value());
    CEXTEND_CHECK(fill.ok());
    stats = Phase1IlpStats{};
    state.ResumeTiming();
    CEXTEND_CHECK(RunPhase1Ilp(*fill, *combos, *ccs, *matches,
                               Phase1IlpOptions{}, &stats)
                      .ok());
    benchmark::DoNotOptimize(stats.slack_total);
  }
  state.counters["variables"] = static_cast<double>(stats.num_variables);
  state.counters["largest"] = static_cast<double>(stats.largest_component);
}
BENCHMARK(BM_Phase1IlpCensusBad)->Arg(1001)->Unit(benchmark::kMillisecond);

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
BENCHMARK(BM_Binning)->Arg(2500)->Arg(10000)->Arg(250990);

// ---- Code-tuple interning at the good_250k scale. ----
//
// The scale-10 census (250,990 persons, 98,200 households), as in
// perfbench's good_250k: ComboIndex::Build over R2, and PreparePlan over
// the plan a full phase 1 with the 201 good CCs and S_all_DC freezes, with
// phase 1's DC classification handed over as a solve hands it.
void BM_ComboIndexBuild(benchmark::State& state) {
  auto data = datagen::GenerateCensus(datagen::ScaledCensusOptions(
      static_cast<double>(state.range(0))));
  CEXTEND_CHECK(data.ok());
  for (auto _ : state) {
    auto combos = ComboIndex::Build(data->housing, data->names);
    CEXTEND_CHECK(combos.ok());
    benchmark::DoNotOptimize(combos->num_combos());
  }
}
BENCHMARK(BM_ComboIndexBuild)->Arg(10)->Unit(benchmark::kMillisecond);

void BM_PreparePlan(benchmark::State& state) {
  auto data = datagen::GenerateCensus(datagen::ScaledCensusOptions(
      static_cast<double>(state.range(0))));
  CEXTEND_CHECK(data.ok());
  datagen::CcFamilyOptions cc_options;
  cc_options.num_ccs = 201;
  auto ccs = datagen::GenerateCcs(data.value(), cc_options);
  CEXTEND_CHECK(ccs.ok());
  std::vector<DenialConstraint> dcs = datagen::MakeCensusDcs(false);
  auto planned = PlanCExtension(data->persons, data->housing, data->names,
                                *ccs, dcs);
  CEXTEND_CHECK(planned.ok());
  for (auto _ : state) {
    auto prepared = PreparePlan(planned->plan, planned->v_join, data->housing,
                                data->names, dcs, nullptr,
                                &*planned->dc_classes);
    CEXTEND_CHECK(prepared.ok());
    benchmark::DoNotOptimize(prepared->partitions.data());
  }
}
BENCHMARK(BM_PreparePlan)->Arg(10)->Unit(benchmark::kMillisecond);

// ---- Data set-up (census generation and CC targets). ----
//
// The set-up of perfbench's workloads, without its key relabelling, keyed by
// persons: GenerateCensus at good_250k's 250,990 persons, GenerateCcs for
// the good 201-CC family at that scale and for the bad 1001-CC family at
// bad_1001cc's 25,099 persons. GenerateCcs builds the R2-condition pool,
// the family, and its targets (CountCcTargets).
datagen::CensusOptions CensusForPersons(int64_t persons) {
  return datagen::ScaledCensusOptions(static_cast<double>(persons) / 25099.0);
}

void BM_GenerateCensus(benchmark::State& state) {
  const datagen::CensusOptions census = CensusForPersons(state.range(0));
  for (auto _ : state) {
    auto data = datagen::GenerateCensus(census);
    CEXTEND_CHECK(data.ok());
    benchmark::DoNotOptimize(data->persons_truth.NumRows());
  }
}
BENCHMARK(BM_GenerateCensus)->Arg(250990)->Unit(benchmark::kMillisecond);

void BM_GenerateCcs(benchmark::State& state, bool intersecting,
                    size_t num_ccs) {
  auto data = datagen::GenerateCensus(CensusForPersons(state.range(0)));
  CEXTEND_CHECK(data.ok());
  datagen::CcFamilyOptions cc_options;
  cc_options.num_ccs = num_ccs;
  cc_options.intersecting = intersecting;
  for (auto _ : state) {
    auto ccs = datagen::GenerateCcs(data.value(), cc_options);
    CEXTEND_CHECK(ccs.ok());
    benchmark::DoNotOptimize(ccs->data());
  }
}
void BM_GenerateCcsGood(benchmark::State& state) {
  BM_GenerateCcs(state, /*intersecting=*/false, 201);
}
void BM_GenerateCcsBad(benchmark::State& state) {
  BM_GenerateCcs(state, /*intersecting=*/true, 1001);
}
BENCHMARK(BM_GenerateCcsGood)->Arg(250990)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GenerateCcsBad)->Arg(25099)->Unit(benchmark::kMillisecond);

// ---- Phase-1 final fill (CompleteLeftoverRows). ----
//
// A census instance with the good 201-CC family and S_all_DC, after the
// Hasse recursion: as on a good-CC solve, the fill completes almost every
// row of the join view. Timed: the fill, the CC match table it reads
// (MatchCcs), which a solve builds once for all phase-1 stages, and the DC
// binding and classification it reads (DcRowClasses), which a solve also
// hands on to phase 2. The fill matched every CC and classified its rows
// itself before, so the three together keep this kernel measuring the same
// work.
void BM_FinalFill(benchmark::State& state) {
  size_t persons = static_cast<size_t>(state.range(0));
  datagen::CensusOptions census;
  census.num_persons = persons;
  census.num_households = persons * 2 / 5;
  auto data = datagen::GenerateCensus(census);
  CEXTEND_CHECK(data.ok());
  datagen::CcFamilyOptions cc_options;
  cc_options.num_ccs = 201;
  auto ccs = datagen::GenerateCcs(data.value(), cc_options);
  CEXTEND_CHECK(ccs.ok());
  std::vector<DenialConstraint> dcs = datagen::MakeCensusDcs(false);
  auto v = MakeJoinView(data->persons, data->housing, data->names);
  CEXTEND_CHECK(v.ok());
  auto binning = Binning::Create(v.value(), data->names.r1_attrs, *ccs);
  CEXTEND_CHECK(binning.ok());
  auto combos = ComboIndex::Build(data->housing, data->names);
  CEXTEND_CHECK(combos.ok());
  Rng rng(1);
  for (auto _ : state) {
    state.PauseTiming();
    Table v_join = v->Clone();
    auto fill = FillState::Create(&v_join, data->names, &binning.value());
    CEXTEND_CHECK(fill.ok());
    Phase1HasseStats hasse;
    CEXTEND_CHECK(RunPhase1HasseStandalone(
                      *fill, *combos, *ccs, v_join.schema(),
                      data->housing, &hasse)
                      .ok());
    FinalFillStats stats;
    state.ResumeTiming();
    auto matches = MatchCcs(*binning, *combos, data->housing, *ccs);
    CEXTEND_CHECK(matches.ok());
    auto bound = BindAll(dcs, v_join);
    CEXTEND_CHECK(bound.ok());
    const DcRowClasses dc_classes =
        DcRowClasses::Build(v_join, std::move(bound).value());
    auto invalid =
        CompleteLeftoverRows(*fill, *combos, *ccs, *matches, dc_classes,
                             LeftoverMode::kAvoidCcs, rng, &stats);
    CEXTEND_CHECK(invalid.ok());
    benchmark::DoNotOptimize(stats.completed_rows);
  }
}
BENCHMARK(BM_FinalFill)->Arg(25000)->Arg(100000)->Unit(benchmark::kMillisecond);

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
