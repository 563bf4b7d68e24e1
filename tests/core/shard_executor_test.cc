// Plan-then-stream invariants (see src/core/README.md "Streaming &
// sharding"):
//
//  * SynthesisPlan serialize → deserialize → re-serialize is byte-stable.
//  * A shard is a pure function of (plan, shard id): shard i emitted alone
//    against a *deserialized* plan in a reconstituted join view is
//    byte-identical to shard i from the in-process run, at 1/2/8 threads.
//  * The sink stream is byte-identical for every (shard count,
//    max_resident_shards, thread count) — and so are the collected tables.
//  * max_resident_shards=1 bounds shards in flight to one and keeps peak
//    resident bytes below the single-shard (whole-database) run.

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/phase2.h"
#include "core/plan.h"
#include "core/shard_executor.h"
#include "core/solver.h"
#include "test_util.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace cextend {
namespace {

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
    std::string area = "A" + std::to_string(h / 2);
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
  EXPECT_EQ(restored.value().shard_seeds, plan.shard_seeds);
  // Byte stability: re-serializing the deserialized plan is the identity.
  EXPECT_EQ(restored.value().Serialize(), bytes);
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
}

TEST(ShardExecutorTest, ShardEmittedAloneFromDeserializedPlanIsByteIdentical) {
  // Simulate a distributed re-emission: a "fresh process" that has only
  // (R1, R2, plan bytes) reconstitutes the join view and emits one shard;
  // its output must serialize identically to the in-process shard — the
  // property that makes lost shards regenerable anywhere.
  Instance instance = MakeInstance();
  Table v_join = instance.v_join.Clone();
  SynthesisPlan plan = BuildPlanFor(instance, v_join, 5);
  auto prepared = PreparePlan(plan, v_join, instance.housing, instance.names,
                              instance.dcs);
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

  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
    Phase2Options options;
    options.seed = 9;
    options.num_threads = threads;
    for (size_t s = 0; s < plan.num_shards(); ++s) {
      auto in_process = EmitShard(prepared.value(), s, options, pool.get());
      ASSERT_TRUE(in_process.ok()) << in_process.status().ToString();
      auto fresh = EmitShard(fresh_prepared.value(), s, options, pool.get());
      ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
      EXPECT_EQ(SerializeShardOutput(in_process.value()),
                SerializeShardOutput(fresh.value()))
          << "shard " << s << " at " << threads << " threads";
    }
  }
}

/// Captures the canonical bytes of every retired shard.
class RecordingSink : public RowSink {
 public:
  Status Consume(const ResolvedShard& shard) override {
    shards_.push_back(SerializeResolvedShard(shard));
    return Status::Ok();
  }
  const std::vector<std::string>& shards() const { return shards_; }

 private:
  std::vector<std::string> shards_;
};

TEST(ShardExecutorTest, RetiredShardsAreIdenticalAcrossThreadCounts) {
  Instance instance = MakeInstance();
  Table v_join = instance.v_join.Clone();
  SynthesisPlan plan = BuildPlanFor(instance, v_join, 5);
  auto prepared = PreparePlan(plan, v_join, instance.housing, instance.names,
                              instance.dcs);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  std::vector<std::string> reference;
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
      EXPECT_EQ(sink.shards(), reference) << threads << " threads";
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
