// Chaos suite (fault injection x phases x thread counts): under any armed
// fault point the solver must yield either a verifier-clean database (zero
// DC violations, exact join identity, every FK assigned) or a clean non-OK
// Status — never a crash, a hang, or a silently corrupt database. Also
// covers the deadline/cancellation contract: an expired deadline returns
// kDeadlineExceeded promptly, a cancelled token returns kCancelled, and the
// warm→cold degradation rung is bit-identical to the warm path.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "constraints/metrics.h"
#include "core/plan.h"
#include "core/solver.h"
#include "core/stream_checkpoint.h"
#include "datagen/census.h"
#include "datagen/constraint_gen.h"
#include "ilp/branch_and_bound.h"
#include "util/deadline.h"
#include "util/fault_injection.h"
#include "util/rng.h"

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

Instance MakeInstance(uint64_t seed, size_t persons, size_t houses,
                      size_t num_ccs, bool bad_ccs = false) {
  CensusOptions options;
  options.num_persons = persons;
  options.num_households = houses;
  options.seed = seed;
  auto data = GenerateCensus(options);
  CEXTEND_CHECK(data.ok());
  CcFamilyOptions cc_options;
  cc_options.num_ccs = num_ccs;
  cc_options.intersecting = bad_ccs;
  cc_options.seed = seed * 13 + 1;
  auto ccs = GenerateCcs(data.value(), cc_options);
  CEXTEND_CHECK(ccs.ok()) << ccs.status().ToString();
  return Instance{std::move(data).value(), std::move(ccs).value(),
                  MakeCensusDcs(/*good_only=*/false)};
}

// The shared sweep instance: small enough that 8 sites x 3 thread counts
// stay fast, large enough to exercise both phases (ILP components, many
// partitions, invalid-tuple repair).
const Instance& SweepInstance() {
  static const Instance* instance =
      new Instance(MakeInstance(11, /*persons=*/700, /*houses=*/260,
                                /*num_ccs=*/30));
  return *instance;
}

// The invariant every chaos cell must satisfy when the solve reports OK.
void ExpectVerifierClean(const Instance& instance, const Solution& solution,
                         const std::string& context) {
  auto dc_report = EvaluateDcError(instance.dcs, solution.r1_hat, "hid");
  ASSERT_TRUE(dc_report.ok()) << context;
  EXPECT_EQ(dc_report->num_violations, 0u)
      << context << ": " << dc_report->Summary();
  auto mismatches = CountJoinMismatches(
      solution.r1_hat, "hid", solution.r2_hat, "hid", solution.v_join,
      instance.data.names.r2_attrs);
  ASSERT_TRUE(mismatches.ok()) << context << ": " << mismatches.status();
  EXPECT_EQ(mismatches.value(), 0u) << context;
  size_t hid_col = solution.r1_hat.schema().IndexOrDie("hid");
  for (size_t r = 0; r < solution.r1_hat.NumRows(); ++r) {
    ASSERT_FALSE(solution.r1_hat.IsNull(r, hid_col))
        << context << ": row " << r << " unassigned";
  }
}

// All registered fault points (kept in sync with util/fault_injection.h).
const char* const kFaultSites[] = {
    "oracle.build",          "oracle.pair_budget", "simplex.refactor",
    "simplex.iteration_cap", "dual.warm_start",    "pool.alloc",
    "shard.emit",
};

class ChaosSweepTest
    : public ::testing::TestWithParam<std::tuple<const char*, size_t>> {};

TEST_P(ChaosSweepTest, CleanDatabaseOrCleanStatus) {
  if (!FaultInjection::CompiledIn()) {
    GTEST_SKIP() << "fault injection compiled out";
  }
  auto [site, threads] = GetParam();
  const Instance& instance = SweepInstance();
  std::string context =
      std::string(site) + " @ " + std::to_string(threads) + " threads";

  // p = 1: every hit of the site fires, at any thread interleaving.
  ScopedFaults faults(site, /*seed=*/29);
  SolverOptions options;
  options.seed = 11;
  options.phase2.num_threads = threads;
  options.phase1.ilp.num_threads = threads;
  auto solution =
      SolveCExtension(instance.data.persons, instance.data.housing,
                      instance.data.names, instance.ccs, instance.dcs,
                      options);
  if (solution.ok()) {
    ExpectVerifierClean(instance, *solution, context);
  } else {
    // A refused solve must be a clean, meaningful error — never an
    // interrupt code (no deadline/cancel is configured here).
    StatusCode code = solution.status().code();
    EXPECT_NE(code, StatusCode::kDeadlineExceeded) << context;
    EXPECT_NE(code, StatusCode::kCancelled) << context;
    EXPECT_FALSE(solution.status().message().empty()) << context;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SitesByThreads, ChaosSweepTest,
    ::testing::Combine(::testing::ValuesIn(kFaultSites),
                       ::testing::Values<size_t>(1, 2, 8)));

// Fractional probabilities exercise mixed fired/clean interleavings of the
// same sites; output must still be clean under every arming.
TEST(ChaosMixedTest, AllSitesFractionalProbability) {
  if (!FaultInjection::CompiledIn()) {
    GTEST_SKIP() << "fault injection compiled out";
  }
  const Instance& instance = SweepInstance();
  std::string spec;
  for (const char* site : kFaultSites) {
    if (!spec.empty()) spec += ",";
    spec += std::string(site) + "=0.5";
  }
  for (uint64_t fault_seed : {1ull, 2ull, 3ull}) {
    ScopedFaults faults(spec, fault_seed);
    SolverOptions options;
    options.seed = 11;
    options.phase2.num_threads = 2;
    auto solution =
        SolveCExtension(instance.data.persons, instance.data.housing,
                        instance.data.names, instance.ccs, instance.dcs,
                        options);
    if (solution.ok()) {
      ExpectVerifierClean(instance, *solution,
                          "mixed p=0.5 seed " + std::to_string(fault_seed));
    } else {
      EXPECT_FALSE(solution.status().message().empty());
    }
  }
}

// The warm→cold rung: arming dual.warm_start makes every B&B child node
// skip the warm dual solve (the same path taken when SolveWarm returns
// nullopt on numerical failure). The cold path optimizes identical LP
// relaxations, so status and objective must match the warm run exactly, and
// the fallback must be observable in IlpResult::cold_fallbacks.
TEST(ChaosLadderTest, WarmStartFaultFallsBackToColdSameObjective) {
  if (!FaultInjection::CompiledIn()) {
    GTEST_SKIP() << "fault injection compiled out";
  }
  int checked = 0;
  for (uint64_t seed = 1; seed < 200 && checked < 8; ++seed) {
    Rng rng(seed * 977 + 3);
    size_t n = 3 + static_cast<size_t>(rng.UniformInt(0, 7));
    size_t m = 2 + static_cast<size_t>(rng.UniformInt(0, 5));
    ilp::Model model;
    for (size_t j = 0; j < n; ++j) {
      double upper = rng.Bernoulli(0.4)
                         ? static_cast<double>(rng.UniformInt(1, 8))
                         : ilp::kInfinity;
      model.AddVariable(static_cast<double>(rng.UniformInt(-3, 3)),
                        rng.Bernoulli(0.7), upper);
    }
    for (size_t i = 0; i < m; ++i) {
      std::vector<ilp::LinearTerm> terms;
      for (size_t j = 0; j < n; ++j) {
        if (rng.Bernoulli(0.45)) {
          terms.push_back({static_cast<int>(j),
                           static_cast<double>(rng.UniformInt(-3, 3))});
        }
      }
      if (terms.empty()) continue;
      ilp::Sense sense = rng.Bernoulli(0.4)   ? ilp::Sense::kLe
                         : rng.Bernoulli(0.5) ? ilp::Sense::kGe
                                              : ilp::Sense::kEq;
      model.AddConstraint(std::move(terms), sense,
                          static_cast<double>(rng.UniformInt(-6, 10)));
    }
    ilp::IlpResult warm = ilp::SolveIlp(model);
    // Only instances that actually branch and warm-start are informative.
    if (warm.status != ilp::IlpStatus::kOptimal || warm.warm_solves == 0) {
      continue;
    }
    ScopedFaults faults("dual.warm_start");
    ilp::IlpResult cold = ilp::SolveIlp(model);
    ASSERT_EQ(cold.status, ilp::IlpStatus::kOptimal)
        << "seed " << seed << "\n" << model.ToString();
    EXPECT_GT(cold.cold_fallbacks, 0) << "seed " << seed;
    EXPECT_GT(FaultInjection::Global().FiredCount("dual.warm_start"), 0u);
    EXPECT_NEAR(cold.objective, warm.objective, 1e-6)
        << "seed " << seed << "\n" << model.ToString();
    ++checked;
  }
  EXPECT_GE(checked, 4) << "too few branching instances exercised";
}

// The indexed→naive rung, driven through the oracle.build site: output must
// be bit-identical and the fallback visible in the ladder stats.
TEST(ChaosLadderTest, OracleBuildFaultFallsBackToNaiveBitIdentical) {
  if (!FaultInjection::CompiledIn()) {
    GTEST_SKIP() << "fault injection compiled out";
  }
  const Instance& instance = SweepInstance();
  SolverOptions options;
  options.seed = 11;
  auto indexed =
      SolveCExtension(instance.data.persons, instance.data.housing,
                      instance.data.names, instance.ccs, instance.dcs,
                      options);
  ASSERT_TRUE(indexed.ok()) << indexed.status();

  ScopedFaults faults("oracle.build");
  auto naive =
      SolveCExtension(instance.data.persons, instance.data.housing,
                      instance.data.names, instance.ccs, instance.dcs,
                      options);
  ASSERT_TRUE(naive.ok()) << naive.status();
  EXPECT_GT(naive->stats.ladder.naive_oracle_fallbacks, 0u);
  size_t hid_col = indexed->r1_hat.schema().IndexOrDie("hid");
  ASSERT_EQ(naive->r1_hat.NumRows(), indexed->r1_hat.NumRows());
  for (size_t r = 0; r < indexed->r1_hat.NumRows(); ++r) {
    ASSERT_EQ(naive->r1_hat.GetCode(r, hid_col),
              indexed->r1_hat.GetCode(r, hid_col))
        << "indexed/naive divergence at row " << r;
  }
}

// The lost-shard rung: a shard.emit fault kills individual shard emissions,
// and the executor regenerates each lost shard from the plan in place — no
// whole-run restart, and the synthesized database is bit-identical to the
// fault-free run. Fractional p with a single-threaded executor keeps the hit
// sequence deterministic; we sweep fault seeds until a run both regenerates
// at least one shard and completes (a seed that exhausts the retry budget on
// some shard is a legitimate clean failure, not an interesting cell).
TEST(ChaosLadderTest, ShardEmitFaultRegeneratesLostShardsBitIdentical) {
  if (!FaultInjection::CompiledIn()) {
    GTEST_SKIP() << "fault injection compiled out";
  }
  const Instance& instance = SweepInstance();
  SolverOptions options;
  options.seed = 11;
  options.phase2.num_threads = 1;
  options.phase2.num_shards = 6;
  options.phase2.max_resident_shards = 2;
  auto baseline =
      SolveCExtension(instance.data.persons, instance.data.housing,
                      instance.data.names, instance.ccs, instance.dcs,
                      options);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  ASSERT_EQ(baseline->stats.phase2.shard_regenerations, 0u);

  int exercised = 0;
  for (uint64_t fault_seed = 1; fault_seed < 64 && exercised < 3;
       ++fault_seed) {
    ScopedFaults faults("shard.emit=0.5", fault_seed);
    auto faulted =
        SolveCExtension(instance.data.persons, instance.data.housing,
                        instance.data.names, instance.ccs, instance.dcs,
                        options);
    if (!faulted.ok()) {
      // Retry budget exhausted on some shard: must be a clean error.
      EXPECT_FALSE(faulted.status().message().empty());
      continue;
    }
    if (faulted->stats.phase2.shard_regenerations == 0) continue;
    EXPECT_GT(FaultInjection::Global().FiredCount("shard.emit"), 0u);
    EXPECT_GT(faulted->stats.ladder.shard_regenerations, 0u);
    EXPECT_TRUE(faulted->stats.ladder.AnyDegradation());
    size_t hid_col = baseline->r1_hat.schema().IndexOrDie("hid");
    ASSERT_EQ(faulted->r1_hat.NumRows(), baseline->r1_hat.NumRows());
    for (size_t r = 0; r < baseline->r1_hat.NumRows(); ++r) {
      ASSERT_EQ(faulted->r1_hat.GetCode(r, hid_col),
                baseline->r1_hat.GetCode(r, hid_col))
          << "regenerated-shard divergence at row " << r << ", fault seed "
          << fault_seed;
    }
    ASSERT_EQ(faulted->r2_hat.NumRows(), baseline->r2_hat.NumRows());
    for (size_t r = 0; r < baseline->r2_hat.NumRows(); ++r) {
      for (size_t c = 0; c < baseline->r2_hat.NumColumns(); ++c) {
        ASSERT_EQ(faulted->r2_hat.GetCode(r, c),
                  baseline->r2_hat.GetCode(r, c))
            << "r2_hat divergence at row " << r << ", fault seed "
            << fault_seed;
      }
    }
    ++exercised;
  }
  EXPECT_GE(exercised, 1) << "no fault seed produced a regenerated shard";
}

// The crash/resume rung at the solver level: interrupt a durable streaming
// solve (ExecuteCExtensionPlanDurable) with each sink-I/O fault site, resume
// until it completes, and require the stream bytes *and* the synthesized
// tables to be identical to an uninterrupted run. The plan is built once and
// reconstituted from its serialized bytes each round — the same plan-cache
// discipline the CLI retry loop uses.
TEST(ChaosStreamingTest, InterruptedDurableSolveResumesBitIdentical) {
  if (!FaultInjection::CompiledIn()) {
    GTEST_SKIP() << "fault injection compiled out";
  }
  const Instance& instance = SweepInstance();
  SolverOptions options;
  options.seed = 11;
  options.phase2.num_threads = 2;
  options.phase2.num_shards = 6;
  options.phase2.max_resident_shards = 2;

  auto first = PlanCExtension(instance.data.persons, instance.data.housing,
                              instance.data.names, instance.ccs, instance.dcs,
                              options);
  ASSERT_TRUE(first.ok()) << first.status();
  const std::string plan_bytes = first->plan.Serialize();
  const Table v_join_master = first->v_join.Clone();
  const SolveStats plan_stats = first->stats;
  const double plan_seconds = first->plan_build_seconds;
  auto remake = [&]() {
    auto plan = SynthesisPlan::Deserialize(plan_bytes);
    CEXTEND_CHECK(plan.ok()) << plan.status().ToString();
    return PlannedCExtension{std::move(plan).value(), v_join_master.Clone(),
                             plan_stats, plan_seconds};
  };
  auto read_bytes = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    CEXTEND_CHECK(in.is_open()) << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };

  DurableStreamSpec ref_spec;
  ref_spec.stream_path = ::testing::TempDir() + "/chaos_solver_ref.stream";
  ref_spec.manifest_path = ref_spec.stream_path + ".manifest";
  auto reference = ExecuteCExtensionPlanDurable(
      remake(), instance.data.persons, instance.data.housing,
      instance.data.names, instance.dcs, ref_spec, options);
  ASSERT_TRUE(reference.ok()) << reference.status();
  const std::string reference_stream = read_bytes(ref_spec.stream_path);

  const char* const kSinkSites[] = {"sink.write", "sink.torn_write",
                                    "sink.flush", "manifest.commit"};
  for (const char* site : kSinkSites) {
    SCOPED_TRACE(site);
    std::string tag(site);
    for (char& c : tag) {
      if (c == '.') c = '_';
    }
    DurableStreamSpec spec;
    spec.stream_path = ::testing::TempDir() + "/chaos_solver_" + tag +
                       ".stream";
    spec.manifest_path = spec.stream_path + ".manifest";
    spec.resume = true;
    std::remove(spec.stream_path.c_str());
    std::remove(spec.manifest_path.c_str());

    uint64_t fired = 0;
    StatusOr<Solution> resumed = Status::Internal("unset");
    constexpr int kMaxRounds = 20;
    for (int round = 0; round < kMaxRounds && !resumed.ok(); ++round) {
      const bool armed = round < kMaxRounds - 2;
      ScopedFaults faults(armed ? std::string(site) + "=0.4" : "",
                          /*seed=*/500 + round);
      resumed = ExecuteCExtensionPlanDurable(
          remake(), instance.data.persons, instance.data.housing,
          instance.data.names, instance.dcs, spec, options);
      fired += FaultInjection::Global().FiredCount(site);
      if (!resumed.ok()) {
        ASSERT_EQ(resumed.status().code(), StatusCode::kInternal)
            << resumed.status();
      }
    }
    ASSERT_TRUE(resumed.ok()) << resumed.status();
    EXPECT_GT(fired, 0u) << site << " never fired";
    EXPECT_EQ(read_bytes(spec.stream_path), reference_stream);
    ExpectVerifierClean(instance, *resumed, site);
    size_t hid_col = reference->r1_hat.schema().IndexOrDie("hid");
    ASSERT_EQ(resumed->r1_hat.NumRows(), reference->r1_hat.NumRows());
    for (size_t r = 0; r < reference->r1_hat.NumRows(); ++r) {
      ASSERT_EQ(resumed->r1_hat.GetCode(r, hid_col),
                reference->r1_hat.GetCode(r, hid_col))
          << "resume divergence at row " << r;
    }
    ASSERT_EQ(resumed->r2_hat.NumRows(), reference->r2_hat.NumRows());
    for (size_t r = 0; r < reference->r2_hat.NumRows(); ++r) {
      for (size_t c = 0; c < reference->r2_hat.NumColumns(); ++c) {
        ASSERT_EQ(resumed->r2_hat.GetCode(r, c),
                  reference->r2_hat.GetCode(r, c))
            << "r2_hat divergence at row " << r;
      }
    }
  }
}

// ---- Deadline / cancellation contract (no fault injection required). ----

// Acceptance bar: a deliberately expired deadline returns kDeadlineExceeded
// in well under 2 seconds on the largest chaos instance.
TEST(DeadlineTest, ExpiredDeadlineReturnsPromptlyOnLargestInstance) {
  Instance instance = MakeInstance(77, /*persons=*/4000, /*houses=*/1400,
                                   /*num_ccs=*/80);
  SolverOptions options;
  options.seed = 77;
  options.phase2.num_threads = 4;
  options.run_control.deadline = Deadline::AfterMillis(0);
  auto start = std::chrono::steady_clock::now();
  auto solution =
      SolveCExtension(instance.data.persons, instance.data.housing,
                      instance.data.names, instance.ccs, instance.dcs,
                      options);
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  ASSERT_FALSE(solution.ok());
  EXPECT_EQ(solution.status().code(), StatusCode::kDeadlineExceeded)
      << solution.status();
  EXPECT_LT(elapsed, 2000) << "expired deadline took " << elapsed << "ms";
}

// A deadline expiring mid-solve must surface as kDeadlineExceeded (or the
// solve finishes first — both are valid), again promptly.
TEST(DeadlineTest, MidSolveDeadlineHonoredWithinOneChunk) {
  Instance instance = MakeInstance(78, /*persons=*/4000, /*houses=*/1400,
                                   /*num_ccs=*/80);
  SolverOptions options;
  options.seed = 78;
  options.run_control.deadline = Deadline::AfterMillis(20);
  auto start = std::chrono::steady_clock::now();
  auto solution =
      SolveCExtension(instance.data.persons, instance.data.housing,
                      instance.data.names, instance.ccs, instance.dcs,
                      options);
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  if (!solution.ok()) {
    EXPECT_EQ(solution.status().code(), StatusCode::kDeadlineExceeded)
        << solution.status();
  } else {
    ExpectVerifierClean(instance, *solution, "finished before deadline");
  }
  EXPECT_LT(elapsed, 2000) << "mid-solve deadline took " << elapsed << "ms";
}

TEST(DeadlineTest, CancelledTokenReturnsCancelled) {
  const Instance& instance = SweepInstance();
  CancelToken cancel;
  cancel.Cancel();
  SolverOptions options;
  options.seed = 11;
  options.run_control.cancel = &cancel;
  auto solution =
      SolveCExtension(instance.data.persons, instance.data.housing,
                      instance.data.names, instance.ccs, instance.dcs,
                      options);
  ASSERT_FALSE(solution.ok());
  EXPECT_EQ(solution.status().code(), StatusCode::kCancelled)
      << solution.status();
}

// An infinite default deadline and an unset token must never interfere.
TEST(DeadlineTest, DefaultRunControlSolvesNormally) {
  const Instance& instance = SweepInstance();
  SolverOptions options;
  options.seed = 11;
  ASSERT_FALSE(options.run_control.CanInterrupt());
  auto solution =
      SolveCExtension(instance.data.persons, instance.data.housing,
                      instance.data.names, instance.ccs, instance.dcs,
                      options);
  ASSERT_TRUE(solution.ok()) << solution.status();
  ExpectVerifierClean(instance, *solution, "default run control");
}

}  // namespace
}  // namespace cextend
