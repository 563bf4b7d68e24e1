// Plan-then-stream invariants (see src/core/README.md "Streaming &
// sharding"):
//
//  * SynthesisPlan serialize → deserialize → re-serialize is byte-stable.
//  * A shard is a pure function of (plan, shard id): shard i emitted alone
//    against a *deserialized* plan in a reconstituted join view, with the
//    DC classification PreparePlan rebuilds there, equals shard i from the
//    in-process run with the classification handed over.
//  * The sink stream is byte-identical for every (shard count,
//    max_resident_shards, thread count) — and so are the collected tables.
//  * max_resident_shards=1 bounds shards in flight to one and keeps peak
//    resident bytes below the single-shard (whole-database) run.
//  * num_threads bounds the threads alive while the executor runs.

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/interning_oracle.h"
#include "core/phase2.h"
#include "core/plan.h"
#include "core/shard_executor.h"
#include "core/solver.h"
#include "datagen/census.h"
#include "datagen/constraint_gen.h"
#include "test_util.h"
#include "util/rng.h"

namespace cextend {
namespace {

using testing_fixtures::CountProcessThreads;
using testing_fixtures::ExpectTablesEqual;
using testing_fixtures::Phase2Tables;
using testing_fixtures::PlanAndExecutePhase2;

struct Instance {
  Table persons;
  Table housing;
  PairSchema names;
  std::vector<DenialConstraint> dcs;
  Table v_join;
  std::vector<uint32_t> invalid;
};

/// Same shape as the phase-2 determinism fixture: 400 persons across 8 areas
/// with 2 houses each — crowded partitions (fresh keys), ~10% invalid rows
/// (repair), clique + ordering + arity-3 DCs.
Instance MakeInstance() {
  Schema persons_schema{{"pid", DataType::kInt64},
                        {"Age", DataType::kInt64},
                        {"Rel", DataType::kString},
                        {"ML", DataType::kInt64},
                        {"hid", DataType::kInt64}};
  Table persons{persons_schema};
  Rng rng(123);
  const char* rels[] = {"Owner", "Spouse", "Child", "Other"};
  constexpr size_t kPersons = 400;
  for (size_t i = 0; i < kPersons; ++i) {
    CEXTEND_CHECK(persons
                      .AppendRow({Value(static_cast<int64_t>(i + 1)),
                                  Value(rng.UniformInt(0, 90)),
                                  Value(rels[rng.UniformInt(0, 3)]),
                                  Value(rng.UniformInt(0, 1)), Value::Null()})
                      .ok());
  }
  Schema housing_schema{{"hid", DataType::kInt64}, {"Area", DataType::kString}};
  Table housing{housing_schema};
  constexpr size_t kAreas = 8;
  for (size_t h = 0; h < 2 * kAreas; ++h) {
    std::string area = "A";
    area += std::to_string(h / 2);
    CEXTEND_CHECK(
        housing.AppendRow({Value(static_cast<int64_t>(h + 1)), Value(area)})
            .ok());
  }
  auto names = PairSchema::Infer(persons, housing, "pid", "hid", "hid");
  CEXTEND_CHECK(names.ok());

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
    dc.Binary(1, "Age", CompareOp::kLt, 0, "Age", -40);
    dcs.push_back(std::move(dc));
  }
  {
    DenialConstraint dc(3, "three-ml-children");
    for (int var = 0; var < 3; ++var) {
      dc.Unary(var, "Rel", CompareOp::kEq, Value("Child"));
      dc.Unary(var, "ML", CompareOp::kEq, Value(int64_t{1}));
    }
    dcs.push_back(std::move(dc));
  }

  auto v = MakeJoinView(persons, housing, names.value());
  CEXTEND_CHECK(v.ok());
  Table v_join = std::move(v).value();
  size_t area_v = v_join.schema().IndexOrDie("Area");
  size_t area_r2 = housing.schema().IndexOrDie("Area");
  std::vector<uint32_t> invalid;
  for (size_t r = 0; r < kPersons; ++r) {
    if (r % 10 == 0) {
      invalid.push_back(static_cast<uint32_t>(r));
      continue;
    }
    v_join.SetCode(r, area_v, housing.GetCode(2 * (r % kAreas), area_r2));
  }
  return Instance{std::move(persons),       std::move(housing),
                  std::move(names).value(), std::move(dcs),
                  std::move(v_join),        std::move(invalid)};
}

SynthesisPlan BuildPlanFor(const Instance& instance, Table& v_join,
                           size_t num_shards) {
  SynthesisPlanOptions options;
  options.seed = 9;
  options.num_shards = num_shards;
  auto plan = BuildSynthesisPlan(v_join, instance.housing, instance.names, {},
                                 instance.invalid, options);
  CEXTEND_CHECK(plan.ok()) << plan.status().ToString();
  return std::move(plan).value();
}

TEST(SynthesisPlanTest, SerializeRoundTripIsByteStable) {
  Instance instance = MakeInstance();
  Table v_join = instance.v_join.Clone();
  SynthesisPlan plan = BuildPlanFor(instance, v_join, 7);
  EXPECT_EQ(plan.num_shards(), 7u);

  std::string bytes = plan.Serialize();
  auto restored = SynthesisPlan::Deserialize(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value().seed, plan.seed);
  EXPECT_EQ(restored.value().num_rows, plan.num_rows);
  EXPECT_EQ(restored.value().b_names, plan.b_names);
  EXPECT_EQ(restored.value().combo_table, plan.combo_table);
  EXPECT_EQ(restored.value().row_combo, plan.row_combo);
  EXPECT_EQ(restored.value().invalid_rows, plan.invalid_rows);
  EXPECT_EQ(restored.value().shard_begin, plan.shard_begin);
  // Byte stability: re-serializing the deserialized plan is the identity.
  EXPECT_EQ(restored.value().Serialize(), bytes);
}

/// Little-endian CXPL v2 fields, for hand-built corrupt plans.
void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}
void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}
std::string PlanHeader(uint64_t num_rows, uint32_t q) {
  std::string out = "CXPL";
  AppendU32(&out, 2);  // version
  AppendU64(&out, 7);  // seed
  AppendU64(&out, num_rows);
  AppendU32(&out, q);
  for (uint32_t i = 0; i < q; ++i) AppendU32(&out, 0);  // empty names
  return out;
}

TEST(SynthesisPlanTest, DeserializeRejectsCorruption) {
  Instance instance = MakeInstance();
  Table v_join = instance.v_join.Clone();
  std::string bytes = BuildPlanFor(instance, v_join, 3).Serialize();

  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_FALSE(SynthesisPlan::Deserialize(bad_magic).ok());
  EXPECT_FALSE(
      SynthesisPlan::Deserialize(bytes.substr(0, bytes.size() / 2)).ok());
  EXPECT_FALSE(SynthesisPlan::Deserialize(bytes + "x").ok());

  // A v1 plan (it carried per-shard seeds) is refused by its version field.
  std::string v1 = bytes;
  v1[4] = 1;
  auto old_version = SynthesisPlan::Deserialize(v1);
  EXPECT_EQ(old_version.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(old_version.status().ToString().find(
                "unsupported SynthesisPlan version"),
            std::string::npos);

  // Each count claims more entries than the remaining bytes can encode; the
  // decoder must say so instead of sizing a vector from it.
  std::string huge_rows = PlanHeader(uint64_t{1} << 61, 0);
  AppendU32(&huge_rows, 0);  // num_combos
  ASSERT_EQ(huge_rows.size(), 32u);
  auto rows = SynthesisPlan::Deserialize(huge_rows);
  EXPECT_EQ(rows.status().code(), StatusCode::kInvalidArgument);

  std::string huge_shards = PlanHeader(0, 0);
  AppendU32(&huge_shards, 0);            // num_combos
  AppendU32(&huge_shards, 0);            // num_invalid
  AppendU32(&huge_shards, 0xFFFFFFFFu);  // num_shards (+ 1 wraps in 32 bits)
  auto shards = SynthesisPlan::Deserialize(huge_shards);
  EXPECT_EQ(shards.status().code(), StatusCode::kInvalidArgument);

  std::string huge_combos = PlanHeader(0, 4096);
  AppendU32(&huge_combos, 0xFFFFFFFFu);  // num_combos
  auto combos = SynthesisPlan::Deserialize(huge_combos);
  EXPECT_EQ(combos.status().code(), StatusCode::kInvalidArgument);

  // Two rows over a two-combo table: well-formed when the combos differ,
  // rejected when they are equal (the partitions, keyed by combo id, would
  // split one combo's rows over one candidate list).
  auto two_combos = [](int64_t first, int64_t second) {
    std::string out = PlanHeader(2, 2);
    AppendU32(&out, 2);  // num_combos
    for (int64_t code : {first, int64_t{-1}, second, int64_t{-1}}) {
      AppendU64(&out, static_cast<uint64_t>(code));
    }
    AppendU32(&out, 0);  // row 0 -> combo 0
    AppendU32(&out, 1);  // row 1 -> combo 1
    AppendU32(&out, 0);  // num_invalid
    AppendU32(&out, 1);  // num_shards
    AppendU64(&out, 0);  // shard_begin
    AppendU64(&out, 2);
    return out;
  };
  EXPECT_TRUE(SynthesisPlan::Deserialize(two_combos(4, 5)).ok());
  auto duplicate = SynthesisPlan::Deserialize(two_combos(4, 4));
  EXPECT_EQ(duplicate.status().code(), StatusCode::kInvalidArgument);
}

TEST(SynthesisPlanTest, PreparePlanMatchesReferenceOnBothRepairShapes) {
  // Area A0 loses its valid rows to A1, and a CC steers only the owners'
  // repair away from A0: the other repaired rows land on A0, whose combo no
  // valid row carries (kNoPartition), the owners on a colored partition.
  Instance instance = MakeInstance();
  Table v_join = instance.v_join.Clone();
  const size_t area_v = v_join.schema().IndexOrDie("Area");
  const size_t area_r2 = instance.housing.schema().IndexOrDie("Area");
  const int64_t a0 = instance.housing.GetCode(0, area_r2);
  const int64_t a1 = instance.housing.GetCode(2, area_r2);
  for (size_t r = 0; r < v_join.NumRows(); ++r) {
    if (v_join.GetCode(r, area_v) == a0) v_join.SetCode(r, area_v, a1);
  }
  CardinalityConstraint owners_in_a0;
  owners_in_a0.r1_condition.Eq("Rel", Value("Owner"));
  owners_in_a0.r2_condition.Eq("Area", Value("A0"));
  SynthesisPlanOptions options;
  options.num_shards = 3;
  auto built = BuildSynthesisPlan(v_join, instance.housing, instance.names,
                                  {owners_in_a0}, instance.invalid, options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const SynthesisPlan& plan = *built;
  auto prepared = PreparePlan(plan, v_join, instance.housing, instance.names,
                              instance.dcs);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  size_t without_partition = 0;
  for (const auto& [combo_id, group] : prepared->repair_groups) {
    if (prepared->partition_of_combo[plan.row_combo[group.front()]] ==
        PreparedPlan::kNoPartition) {
      ++without_partition;
    }
  }
  EXPECT_GT(without_partition, 0u);
  EXPECT_LT(without_partition, prepared->repair_groups.size());
  interning_oracle::ExpectPreparedMatches(
      *prepared,
      interning_oracle::PrepareReference(plan, instance.housing,
                                         instance.names),
      "hand-built");
}

/// A census instance whose phase 1 leaves invalid rows: on top of the good
/// CC family, `all_kids` caps the rows with Age <= 17 at 5 over every
/// Tenure value, so the final fill can place no further such row on any
/// combo (existing or synthesized) without newly satisfying it, and they go
/// to the repair path.
struct CensusRepairInstance {
  datagen::CensusData data;
  std::vector<CardinalityConstraint> ccs;
  std::vector<DenialConstraint> dcs;
};

CensusRepairInstance MakeCensusRepairInstance() {
  datagen::CensusOptions census;
  census.num_persons = 3000;
  census.num_households = 1200;
  auto data = datagen::GenerateCensus(census);
  CEXTEND_CHECK(data.ok());
  datagen::CcFamilyOptions cc_options;
  cc_options.num_ccs = 60;
  auto ccs = datagen::GenerateCcs(data.value(), cc_options);
  CEXTEND_CHECK(ccs.ok());
  CardinalityConstraint all_kids;
  all_kids.name = "all_kids";
  all_kids.r1_condition.Le("Age", Value(int64_t{17}));
  all_kids.r2_condition.In("Tenure", {Value("Owned-mortgage"),
                                      Value("Owned-free"), Value("Rented"),
                                      Value("No-rent")});
  all_kids.target = 5;
  ccs->push_back(all_kids);
  return {std::move(data).value(), std::move(ccs).value(),
          datagen::MakeCensusDcs(false)};
}

TEST(SynthesisPlanTest, PreparePlanMatchesReferenceOnCensusRepair) {
  CensusRepairInstance in = MakeCensusRepairInstance();
  std::string bytes_1t;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SolverOptions options;
    options.seed = 3;
    options.phase1.ilp.num_threads = threads;
    options.phase2.num_threads = threads;
    options.phase2.num_shards = 6;
    auto planned = PlanCExtension(in.data.persons, in.data.housing,
                                  in.data.names, in.ccs, in.dcs, options);
    ASSERT_TRUE(planned.ok()) << planned.status().ToString();
    const SynthesisPlan& plan = planned->plan;
    ASSERT_GT(plan.invalid_rows.size(), 0u);

    // Plan bytes do not depend on the thread count.
    if (threads == 1) {
      bytes_1t = plan.Serialize();
    } else {
      EXPECT_EQ(plan.Serialize(), bytes_1t);
    }

    auto prepared = PreparePlan(plan, planned->v_join, in.data.housing,
                                in.data.names, in.dcs);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    ASSERT_FALSE(prepared->repair_groups.empty());
    interning_oracle::ExpectPreparedMatches(
        *prepared,
        interning_oracle::PrepareReference(plan, in.data.housing,
                                           in.data.names),
        threads == 1 ? "1 thread" : "4 threads");
  }
}

TEST(ShardExecutorTest, ShardEmittedAloneFromDeserializedPlanIsByteIdentical) {
  // Simulate a distributed re-emission: a "fresh process" that has only
  // (R1, R2, plan bytes) reconstitutes the join view and emits one shard;
  // it must equal the in-process shard — the property that makes lost
  // shards regenerable anywhere. In process, the DC classification is built
  // before the plan writes the repaired rows' B cells and handed over, as
  // phase 1 does; the fresh PreparePlan rebuilds it from the completed view.
  Instance instance = MakeInstance();
  Table v_join = instance.v_join.Clone();
  auto bound = BindAll(instance.dcs, v_join);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  const DcRowClasses handed = DcRowClasses::Build(v_join, bound.value());
  SynthesisPlan plan = BuildPlanFor(instance, v_join, 5);
  auto prepared = PreparePlan(plan, v_join, instance.housing, instance.names,
                              instance.dcs, nullptr, &handed);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  auto restored = SynthesisPlan::Deserialize(plan.Serialize());
  ASSERT_TRUE(restored.ok());
  auto fresh_join =
      MakeJoinView(instance.persons, instance.housing, instance.names);
  ASSERT_TRUE(fresh_join.ok());
  Table fresh_v_join = std::move(fresh_join).value();
  ASSERT_TRUE(ApplyPlanToJoinView(restored.value(), fresh_v_join,
                                  instance.names)
                  .ok());
  auto fresh_prepared = PreparePlan(restored.value(), fresh_v_join,
                                    instance.housing, instance.names,
                                    instance.dcs);
  ASSERT_TRUE(fresh_prepared.ok()) << fresh_prepared.status().ToString();
  ASSERT_NE(fresh_prepared->owned_dc_classes, nullptr);

  Phase2Options options;
  options.seed = 9;
  for (size_t s = 0; s < plan.num_shards(); ++s) {
    auto in_process = EmitShard(prepared.value(), s, options);
    ASSERT_TRUE(in_process.ok()) << in_process.status().ToString();
    auto fresh = EmitShard(fresh_prepared.value(), s, options);
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    EXPECT_TRUE(in_process.value() == fresh.value()) << "shard " << s;
  }
}

/// Keeps a copy of every retired shard.
class RecordingSink : public RowSink {
 public:
  Status Consume(const ResolvedShard& shard) override {
    shards_.push_back(shard);
    return Status::Ok();
  }
  const std::vector<ResolvedShard>& shards() const { return shards_; }

 private:
  std::vector<ResolvedShard> shards_;
};

TEST(ShardExecutorTest, RetiredShardsAreIdenticalAcrossThreadCounts) {
  Instance instance = MakeInstance();
  Table v_join = instance.v_join.Clone();
  SynthesisPlan plan = BuildPlanFor(instance, v_join, 5);
  auto prepared = PreparePlan(plan, v_join, instance.housing, instance.names,
                              instance.dcs);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  std::vector<ResolvedShard> reference;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    Phase2Options options;
    options.seed = 9;
    options.num_threads = threads;
    options.max_resident_shards = 2;
    RecordingSink sink;
    auto stats = ExecutePlan(prepared.value(), options, &sink);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(sink.shards().size(), plan.num_shards() + 1);  // + repair
    EXPECT_LE(stats.value().max_shards_in_flight, 2u);
    if (reference.empty()) {
      reference = sink.shards();
    } else {
      EXPECT_TRUE(sink.shards() == reference) << threads << " threads";
    }
  }
}

TEST(ShardExecutorTest, StreamBytesIndependentOfShardGeometry) {
  // The tentpole invariant: the concatenated stream is byte-identical to the
  // single-shard (monolithic) emission for every shard count, admission
  // window, and thread count.
  Instance instance = MakeInstance();
  struct Config {
    size_t shards, max_resident, threads;
  };
  const Config configs[] = {
      {1, 0, 1}, {7, 1, 1}, {7, 2, 2}, {7, 0, 8}, {3, 1, 8}, {0, 1, 2},
  };
  std::string reference;
  for (const Config& config : configs) {
    Table v_join = instance.v_join.Clone();
    SynthesisPlanOptions plan_options;
    plan_options.seed = 9;
    plan_options.num_shards = config.shards;
    plan_options.num_threads_hint = config.threads;
    auto plan = BuildSynthesisPlan(v_join, instance.housing, instance.names,
                                   {}, instance.invalid, plan_options);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    auto prepared = PreparePlan(plan.value(), v_join, instance.housing,
                                instance.names, instance.dcs);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    Phase2Options options;
    options.seed = 9;
    options.num_threads = config.threads;
    options.max_resident_shards = config.max_resident;
    std::ostringstream stream;
    TextStreamSink sink(stream);
    auto stats = ExecutePlan(prepared.value(), options, &sink);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    if (reference.empty()) {
      reference = stream.str();
      EXPECT_NE(reference.find("cextend-stream v1"), std::string::npos);
    } else {
      EXPECT_EQ(stream.str(), reference)
          << "shards=" << config.shards
          << " max_resident=" << config.max_resident
          << " threads=" << config.threads;
    }
  }
}

TEST(ShardExecutorTest, TablesIndependentOfShardGeometry) {
  Instance instance = MakeInstance();
  auto run = [&](size_t shards, size_t max_resident, size_t threads) {
    Table v_join = instance.v_join.Clone();
    Phase2Options options;
    options.seed = 9;
    options.num_threads = threads;
    options.num_shards = shards;
    options.max_resident_shards = max_resident;
    auto result = PlanAndExecutePhase2(v_join, instance.persons,
                                       instance.housing, instance.names,
                                       instance.dcs, {}, instance.invalid,
                                       options);
    CEXTEND_CHECK(result.ok()) << result.status().ToString();
    return std::move(result).value();
  };
  Phase2Tables mono = run(1, 0, 1);
  EXPECT_GT(mono.stats.skipped_vertices, 0u);
  EXPECT_GT(mono.stats.new_r2_tuples, 0u);
  EXPECT_EQ(mono.stats.shards_emitted, 1u);
  for (auto [shards, max_resident, threads] :
       {std::tuple<size_t, size_t, size_t>{8, 1, 1},
        {8, 2, 8},
        {0, 0, 8},
        {3, 1, 2}}) {
    Phase2Tables sharded = run(shards, max_resident, threads);
    ExpectTablesEqual(mono.r1_hat, sharded.r1_hat, "r1_hat");
    ExpectTablesEqual(mono.r2_hat, sharded.r2_hat, "r2_hat");
    EXPECT_EQ(mono.stats.skipped_vertices, sharded.stats.skipped_vertices);
    EXPECT_EQ(mono.stats.new_r2_tuples, sharded.stats.new_r2_tuples);
  }
}

TEST(ShardExecutorTest, BoundedAdmissionCapsResidencyBelowMonolithic) {
  Instance instance = MakeInstance();
  auto run = [&](size_t shards, size_t max_resident) {
    Table v_join = instance.v_join.Clone();
    Phase2Options options;
    options.seed = 9;
    options.num_threads = 1;
    options.num_shards = shards;
    options.max_resident_shards = max_resident;
    auto result = PlanAndExecutePhase2(v_join, instance.persons,
                                       instance.housing, instance.names,
                                       instance.dcs, {}, instance.invalid,
                                       options);
    CEXTEND_CHECK(result.ok()) << result.status().ToString();
    return result.value().stats;
  };
  Phase2Stats mono = run(1, 0);
  Phase2Stats bounded = run(8, 1);
  EXPECT_EQ(bounded.max_shards_in_flight, 1u);
  EXPECT_EQ(bounded.shards_emitted, 8u);
  EXPECT_GT(bounded.peak_resident_bytes, 0u);
  // One shard at a time must be strictly cheaper than holding the entire
  // emission resident (the monolithic single-shard run).
  EXPECT_LT(bounded.peak_resident_bytes, mono.peak_resident_bytes);
}

/// Records the process thread count at every retirement.
class ThreadCountingSink : public RowSink {
 public:
  Status Consume(const ResolvedShard& /*shard*/) override {
    max_threads_ = std::max(max_threads_, CountProcessThreads());
    ++consumed_;
    return Status::Ok();
  }
  size_t max_threads() const { return max_threads_; }
  size_t consumed() const { return consumed_; }

 private:
  size_t max_threads_ = 0;
  size_t consumed_ = 0;
};

TEST(ShardExecutorTest, NumThreadsBoundsProcessThreads) {
  // num_threads bounds the threads phase 2 runs on: at most num_threads
  // shard workers, the calling thread being one of them, so at most
  // num_threads - 1 threads are started.
  // Threads alive before the run (1, plus any a sanitizer runtime keeps).
  const size_t baseline = CountProcessThreads();
  if (baseline == 0) GTEST_SKIP() << "no /proc/self/task";
  Instance instance = MakeInstance();
  Table v_join = instance.v_join.Clone();
  SynthesisPlan plan = BuildPlanFor(instance, v_join, 16);
  ASSERT_GE(plan.num_shards(), 8u);
  auto prepared = PreparePlan(plan, v_join, instance.housing, instance.names,
                              instance.dcs);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  constexpr size_t kThreads = 4;
  Phase2Options options;
  options.seed = 9;
  options.num_threads = kThreads;
  ThreadCountingSink sink;
  auto stats = ExecutePlan(prepared.value(), options, &sink);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(sink.consumed(), plan.num_shards() + 1);  // + repair
  EXPECT_LE(sink.max_threads(), baseline + kThreads - 1);
}

TEST(ShardExecutorTest, PlanExecuteSolverApiMatchesSolveCExtension) {
  // The legacy one-call API and the two-stage API must synthesize the same
  // database, and the streaming tee must observe the identical stream that a
  // direct executor run produces.
  testing_fixtures::PaperExample ex = testing_fixtures::MakePaperExample();
  SolverOptions options;
  options.seed = 5;
  options.phase2.num_shards = 3;
  options.phase2.max_resident_shards = 1;
  auto direct = SolveCExtension(ex.persons, ex.housing, ex.names, ex.ccs,
                                ex.dcs, options);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  auto planned = PlanCExtension(ex.persons, ex.housing, ex.names, ex.ccs,
                                ex.dcs, options);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  std::ostringstream stream;
  TextStreamSink tee(stream);
  auto staged =
      ExecuteCExtensionPlan(std::move(planned).value(), ex.persons, ex.housing,
                            ex.names, ex.dcs, options, &tee);
  ASSERT_TRUE(staged.ok()) << staged.status().ToString();

  ExpectTablesEqual(direct.value().r1_hat, staged.value().r1_hat, "r1_hat");
  ExpectTablesEqual(direct.value().r2_hat, staged.value().r2_hat, "r2_hat");
  ExpectTablesEqual(direct.value().v_join, staged.value().v_join, "v_join");
  EXPECT_NE(stream.str().find("cextend-stream v1"), std::string::npos);
  EXPECT_NE(stream.str().find("\nend rows="), std::string::npos);
}

}  // namespace
}  // namespace cextend
