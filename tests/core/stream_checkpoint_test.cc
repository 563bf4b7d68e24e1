// Crash-safe resumable streaming (src/core/stream_checkpoint.h). The pinned
// invariant: interrupt a durable streaming run anywhere — torn manifest
// record, torn stream tail, injected sink/manifest fault — then resume (any
// number of times, under any thread count and admission window), and the
// final stream bytes and rebuilt tables are identical to an uninterrupted
// run. Also pins the refusal cases: a manifest for a different plan and a
// stream that contradicts committed checksums must not resume.

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/phase2.h"
#include "core/plan.h"
#include "core/shard_executor.h"
#include "core/stream_checkpoint.h"
#include "test_util.h"
#include "util/fault_injection.h"
#include "util/rng.h"

namespace cextend {
namespace {

using testing_fixtures::ExpectTablesEqual;

struct Instance {
  Table persons;
  Table housing;
  PairSchema names;
  std::vector<DenialConstraint> dcs;
  Table v_join;
  std::vector<uint32_t> invalid;
};

/// Same shape as the shard-executor fixture: 400 persons across 8 areas with
/// 2 houses each — crowded partitions (fresh keys), ~10% invalid rows so the
/// repair stage and its retained colors are exercised by every resume.
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

/// Plan + the join view it points into + the prepared execution state, built
/// in place so PreparedPlan's internal pointers stay valid.
struct Planned {
  Table v_join;
  SynthesisPlan plan;
  PreparedPlan prepared;

  Planned(Table v, SynthesisPlan p) : v_join(std::move(v)), plan(std::move(p)) {}
};

std::unique_ptr<Planned> Prepare(const Instance& instance, size_t num_shards,
                                 uint64_t seed = 9) {
  Table v_join = instance.v_join.Clone();
  SynthesisPlanOptions options;
  options.seed = seed;
  options.num_shards = num_shards;
  auto plan = BuildSynthesisPlan(v_join, instance.housing, instance.names, {},
                                 instance.invalid, options);
  CEXTEND_CHECK(plan.ok()) << plan.status().ToString();
  auto planned =
      std::make_unique<Planned>(std::move(v_join), std::move(plan).value());
  auto prepared = PreparePlan(planned->plan, planned->v_join, instance.housing,
                              instance.names, instance.dcs);
  CEXTEND_CHECK(prepared.ok()) << prepared.status().ToString();
  planned->prepared = std::move(prepared).value();
  return planned;
}

Phase2Options MakeOptions(size_t threads, size_t max_resident) {
  Phase2Options options;
  options.seed = 9;
  options.num_threads = threads;
  options.max_resident_shards = max_resident;
  return options;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  CEXTEND_CHECK(in.is_open()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  CEXTEND_CHECK(out.is_open()) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  CEXTEND_CHECK(out.good()) << path;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/cextend_ckpt_" + name;
}

/// The uninterrupted run every crash/resume scenario must reproduce:
/// stream bytes from the plain (non-durable) executor, which the durable
/// layer is required to match byte for byte.
std::string ReferenceStream(const Planned& planned) {
  std::ostringstream stream;
  TextStreamSink sink(stream);
  auto stats = ExecutePlan(planned.prepared, MakeOptions(1, 0), &sink);
  CEXTEND_CHECK(stats.ok()) << stats.status().ToString();
  return stream.str();
}

TEST(StreamCheckpointTest, FreshDurableRunMatchesPlainExecutorBytes) {
  Instance instance = MakeInstance();
  auto planned = Prepare(instance, 7);
  const std::string reference = ReferenceStream(*planned);

  const std::string stream_path = TempPath("fresh.stream");
  const std::string manifest_path = TempPath("fresh.manifest");
  DurableStreamSpec spec;
  spec.stream_path = stream_path;
  spec.manifest_path = manifest_path;
  auto stats = ExecutePlanDurable(planned->prepared, MakeOptions(2, 2), spec);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  EXPECT_EQ(ReadFileBytes(stream_path), reference);
  EXPECT_EQ(stats.value().resumed_shards, 0u);
  // header + 7 partition shards + repair shard + finish.
  EXPECT_EQ(stats.value().manifest_commits, 10u);

  // The manifest's committed state covers the whole stream and says so.
  auto rp = LoadResumePoint(stream_path, manifest_path, planned->plan);
  ASSERT_TRUE(rp.ok()) << rp.status().ToString();
  EXPECT_TRUE(rp.value().finished);
  EXPECT_EQ(rp.value().committed_offset, reference.size());
}

TEST(StreamCheckpointTest, PlanDigestSeparatesPlans) {
  Instance instance = MakeInstance();
  auto a = Prepare(instance, 7, /*seed=*/9);
  auto b = Prepare(instance, 7, /*seed=*/10);
  auto c = Prepare(instance, 3, /*seed=*/9);
  EXPECT_NE(PlanDigest(a->plan), PlanDigest(b->plan));
  EXPECT_NE(PlanDigest(a->plan), PlanDigest(c->plan));
  EXPECT_EQ(PlanDigest(a->plan), PlanDigest(Prepare(instance, 7)->plan));
}

// The exhaustive crash-window sweep. A crash can leave (manifest, stream) in
// any state where the stream covers the manifest's committed prefix: the
// manifest cut anywhere (mid-record tails must be discarded), and the stream
// holding anything from exactly the committed bytes up to the full
// uninterrupted output (durable-but-uncommitted tail). Every such state must
// resume to byte-identical output — and an identical manifest, since
// committed offsets, checksums, and the fresh-key counter are deterministic.
TEST(StreamCheckpointTest, ResumeFromEveryTruncationCutIsByteIdentical) {
  Instance instance = MakeInstance();
  auto planned = Prepare(instance, 7);
  const std::string reference = ReferenceStream(*planned);

  const std::string stream_path = TempPath("cut.stream");
  const std::string manifest_path = TempPath("cut.manifest");
  DurableStreamSpec fresh;
  fresh.stream_path = stream_path;
  fresh.manifest_path = manifest_path;
  ASSERT_TRUE(ExecutePlanDurable(planned->prepared, MakeOptions(1, 0), fresh)
                  .ok());
  const std::string full_manifest = ReadFileBytes(manifest_path);
  ASSERT_EQ(ReadFileBytes(stream_path), reference);

  DurableStreamSpec resume = fresh;
  resume.resume = true;
  size_t exercised = 0;
  for (size_t cut = 0; cut < full_manifest.size(); cut += 3) {
    SCOPED_TRACE("manifest cut at byte " + std::to_string(cut));
    const std::string manifest_prefix = full_manifest.substr(0, cut);

    // What does this prefix commit? (Validated against the full stream.)
    WriteFileBytes(manifest_path, manifest_prefix);
    WriteFileBytes(stream_path, reference);
    auto rp = LoadResumePoint(stream_path, manifest_path, planned->plan);
    ASSERT_TRUE(rp.ok()) << rp.status().ToString();
    ASSERT_LE(rp.value().committed_offset, reference.size());

    // Crash state A: stream has durable-but-uncommitted bytes past the cut.
    auto stats =
        ExecutePlanDurable(planned->prepared, MakeOptions(2, 2), resume);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    ASSERT_EQ(ReadFileBytes(stream_path), reference);
    ASSERT_EQ(ReadFileBytes(manifest_path), full_manifest);

    // Crash state B: stream ends exactly at the committed offset.
    WriteFileBytes(manifest_path, manifest_prefix);
    WriteFileBytes(stream_path,
                   reference.substr(0, rp.value().committed_offset));
    stats = ExecutePlanDurable(planned->prepared, MakeOptions(1, 1), resume);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    ASSERT_EQ(ReadFileBytes(stream_path), reference);
    ASSERT_EQ(ReadFileBytes(manifest_path), full_manifest);
    ++exercised;
  }
  EXPECT_GT(exercised, 100u);  // the sweep really swept
}

TEST(StreamCheckpointTest, TornStreamTailIsTruncatedOnResume) {
  Instance instance = MakeInstance();
  auto planned = Prepare(instance, 7);
  const std::string reference = ReferenceStream(*planned);

  const std::string stream_path = TempPath("torn.stream");
  const std::string manifest_path = TempPath("torn.manifest");
  DurableStreamSpec fresh;
  fresh.stream_path = stream_path;
  fresh.manifest_path = manifest_path;
  ASSERT_TRUE(ExecutePlanDurable(planned->prepared, MakeOptions(1, 0), fresh)
                  .ok());
  const std::string full_manifest = ReadFileBytes(manifest_path);

  // Commit only the first few records, then give the stream a torn tail that
  // is not a prefix of the real output (half a record of garbage).
  const std::string manifest_prefix = full_manifest.substr(0, 24 + 64 + 70);
  WriteFileBytes(manifest_path, manifest_prefix);
  WriteFileBytes(stream_path, reference);
  auto rp = LoadResumePoint(stream_path, manifest_path, planned->plan);
  ASSERT_TRUE(rp.ok()) << rp.status().ToString();
  const uint64_t committed = rp.value().committed_offset;
  ASSERT_LT(committed, reference.size());
  WriteFileBytes(stream_path,
                 reference.substr(0, committed) + "r 999999 99\xff\xfe");

  DurableStreamSpec resume = fresh;
  resume.resume = true;
  auto stats = ExecutePlanDurable(planned->prepared, MakeOptions(2, 1), resume);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(ReadFileBytes(stream_path), reference);
  EXPECT_EQ(ReadFileBytes(manifest_path), full_manifest);
}

TEST(StreamCheckpointTest, FinishedRunResumesWithoutReexecution) {
  Instance instance = MakeInstance();
  auto planned = Prepare(instance, 5);
  const std::string reference = ReferenceStream(*planned);

  const std::string stream_path = TempPath("done.stream");
  const std::string manifest_path = TempPath("done.manifest");
  DurableStreamSpec spec;
  spec.stream_path = stream_path;
  spec.manifest_path = manifest_path;
  ASSERT_TRUE(ExecutePlanDurable(planned->prepared, MakeOptions(2, 2), spec)
                  .ok());

  // Reference tables, rebuilt from scratch for comparison.
  TableSink expected(instance.persons, instance.housing, instance.names);
  ASSERT_TRUE(ExecutePlan(planned->prepared, MakeOptions(1, 0), &expected)
                  .ok());

  spec.resume = true;
  TableSink replayed(instance.persons, instance.housing, instance.names);
  auto stats =
      ExecutePlanDurable(planned->prepared, MakeOptions(8, 2), spec, &replayed);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().resumed_shards, planned->plan.num_shards() + 1);
  EXPECT_EQ(stats.value().manifest_commits, 0u);
  EXPECT_EQ(stats.value().new_r2_tuples, expected.new_r2_tuples());
  EXPECT_EQ(ReadFileBytes(stream_path), reference);
  ExpectTablesEqual(expected.r1_hat(), replayed.r1_hat(), "r1_hat");
  ExpectTablesEqual(expected.r2_hat(), replayed.r2_hat(), "r2_hat");
}

// Injected-fault crash loop: arm one sink/manifest fault site with a
// fractional probability, run resume-until-success rounds (fresh fault seed
// per round, disarmed final round as a backstop), and require the surviving
// bytes — and the tables rebuilt from them — to match the uninterrupted run.
// Matrix: every new I/O fault site x thread counts {1, 2, 8} x two shard
// geometries, per the acceptance bar in ISSUE.md.
struct ChaosCase {
  const char* site;
  size_t shards, max_resident, threads;
};

class StreamCheckpointChaos : public ::testing::TestWithParam<ChaosCase> {};

TEST_P(StreamCheckpointChaos, CrashLoopConvergesToReferenceBytes) {
  if (!FaultInjection::CompiledIn()) {
    GTEST_SKIP() << "fault injection not compiled in";
  }
  const ChaosCase& c = GetParam();
  Instance instance = MakeInstance();
  auto planned = Prepare(instance, c.shards);
  const std::string reference = ReferenceStream(*planned);

  const std::string tag =
      std::string(c.site) + "_" + std::to_string(c.shards) + "_" +
      std::to_string(c.threads);
  std::string safe_tag = tag;
  for (char& ch : safe_tag) {
    if (ch == '.') ch = '_';
  }
  DurableStreamSpec spec;
  spec.stream_path = TempPath(safe_tag + ".stream");
  spec.manifest_path = TempPath(safe_tag + ".manifest");
  spec.resume = true;
  std::remove(spec.stream_path.c_str());
  std::remove(spec.manifest_path.c_str());

  const Phase2Options options = MakeOptions(c.threads, c.max_resident);
  uint64_t fired = 0;
  bool completed = false;
  constexpr int kMaxRounds = 24;
  for (int round = 0; round < kMaxRounds && !completed; ++round) {
    // Backstop: the last two rounds run disarmed so the loop always ends.
    const bool armed = round < kMaxRounds - 2;
    Status round_status;
    {
      ScopedFaults faults(armed ? std::string(c.site) + "=0.4" : "",
                          /*seed=*/1000 + round);
      auto stats = ExecutePlanDurable(planned->prepared, options, spec);
      round_status = stats.status();
      fired += FaultInjection::Global().FiredCount(c.site);
    }
    if (round_status.ok()) {
      completed = true;
    } else {
      // Only the injected failure is acceptable mid-loop.
      ASSERT_EQ(round_status.code(), StatusCode::kInternal)
          << round_status.ToString();
    }
  }
  ASSERT_TRUE(completed);
  EXPECT_GT(fired, 0u) << "fault " << c.site << " never fired";
  EXPECT_EQ(ReadFileBytes(spec.stream_path), reference);

  // One more resume over the finished manifest rebuilds the tables the
  // uninterrupted run would have produced.
  TableSink expected(instance.persons, instance.housing, instance.names);
  ASSERT_TRUE(ExecutePlan(planned->prepared, MakeOptions(1, 0), &expected)
                  .ok());
  TableSink replayed(instance.persons, instance.housing, instance.names);
  auto stats = ExecutePlanDurable(planned->prepared, options, spec, &replayed);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ExpectTablesEqual(expected.r1_hat(), replayed.r1_hat(), "r1_hat");
  ExpectTablesEqual(expected.r2_hat(), replayed.r2_hat(), "r2_hat");
}

INSTANTIATE_TEST_SUITE_P(
    SinkFaults, StreamCheckpointChaos,
    ::testing::Values(ChaosCase{"sink.write", 7, 1, 1},
                      ChaosCase{"sink.write", 3, 2, 8},
                      ChaosCase{"sink.torn_write", 7, 1, 2},
                      ChaosCase{"sink.torn_write", 3, 2, 1},
                      ChaosCase{"sink.flush", 7, 2, 8},
                      ChaosCase{"sink.flush", 3, 1, 2},
                      ChaosCase{"manifest.commit", 7, 1, 8},
                      ChaosCase{"manifest.commit", 3, 2, 2}),
    [](const ::testing::TestParamInfo<ChaosCase>& info) {
      std::string name = std::string(info.param.site) + "_s" +
                         std::to_string(info.param.shards) + "_t" +
                         std::to_string(info.param.threads);
      for (char& c : name) {
        if (c == '.') c = '_';
      }
      return name;
    });

TEST(StreamCheckpointTest, ResumeRefusesManifestForDifferentPlan) {
  Instance instance = MakeInstance();
  auto planned = Prepare(instance, 5);
  const std::string stream_path = TempPath("wrongplan.stream");
  const std::string manifest_path = TempPath("wrongplan.manifest");
  DurableStreamSpec spec;
  spec.stream_path = stream_path;
  spec.manifest_path = manifest_path;
  ASSERT_TRUE(ExecutePlanDurable(planned->prepared, MakeOptions(1, 0), spec)
                  .ok());

  auto other = Prepare(instance, 5, /*seed=*/10);
  auto rp = LoadResumePoint(stream_path, manifest_path, other->plan);
  ASSERT_FALSE(rp.ok());
  EXPECT_EQ(rp.status().code(), StatusCode::kInvalidArgument);

  spec.resume = true;
  auto stats = ExecutePlanDurable(other->prepared, MakeOptions(1, 0), spec);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
}

TEST(StreamCheckpointTest, ResumeRefusesStreamThatContradictsManifest) {
  Instance instance = MakeInstance();
  auto planned = Prepare(instance, 5);
  const std::string stream_path = TempPath("corrupt.stream");
  const std::string manifest_path = TempPath("corrupt.manifest");
  DurableStreamSpec spec;
  spec.stream_path = stream_path;
  spec.manifest_path = manifest_path;
  ASSERT_TRUE(ExecutePlanDurable(planned->prepared, MakeOptions(1, 0), spec)
                  .ok());
  const std::string good = ReadFileBytes(stream_path);

  // A committed byte silently flipped after its fsync: checksum mismatch.
  std::string bad = good;
  bad[bad.size() / 2] ^= 0x20;
  WriteFileBytes(stream_path, bad);
  auto rp = LoadResumePoint(stream_path, manifest_path, planned->plan);
  ASSERT_FALSE(rp.ok());
  EXPECT_EQ(rp.status().code(), StatusCode::kInvalidArgument);

  // A stream shorter than the committed offset: bytes lost after fsync.
  WriteFileBytes(stream_path, good.substr(0, good.size() / 2));
  rp = LoadResumePoint(stream_path, manifest_path, planned->plan);
  ASSERT_FALSE(rp.ok());
  EXPECT_EQ(rp.status().code(), StatusCode::kInvalidArgument);
}

TEST(StreamCheckpointTest, MissingManifestIsAFreshRun) {
  Instance instance = MakeInstance();
  auto planned = Prepare(instance, 5);
  auto rp = LoadResumePoint(TempPath("nope.stream"), TempPath("nope.manifest"),
                            planned->plan);
  ASSERT_TRUE(rp.ok());
  EXPECT_FALSE(rp.value().header_committed);
  EXPECT_EQ(rp.value().next_shard, 0u);
  EXPECT_EQ(rp.value().committed_offset, 0u);
}

TEST(ShardExecutorResumeTest, RejectsInconsistentResumePoints) {
  Instance instance = MakeInstance();
  auto planned = Prepare(instance, 5);
  std::ostringstream stream;
  TextStreamSink sink(stream);

  ExecuteResume past_end;
  past_end.first_shard = planned->plan.num_shards() + 2;
  EXPECT_EQ(ExecutePlan(planned->prepared, MakeOptions(1, 0), &sink, past_end)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  ExecuteResume repair_without_shards;
  repair_without_shards.repair_done = true;
  repair_without_shards.first_shard = 1;
  EXPECT_EQ(ExecutePlan(planned->prepared, MakeOptions(1, 0), &sink,
                        repair_without_shards)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(TextStreamSinkTest, SurfacesStreamFailuresAsStatus) {
  Instance instance = MakeInstance();
  auto planned = Prepare(instance, 3);
  std::ostringstream stream;
  stream.setstate(std::ios::badbit);
  TextStreamSink sink(stream);
  auto stats = ExecutePlan(planned->prepared, MakeOptions(1, 0), &sink);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInternal);
  EXPECT_NE(stats.status().message().find("stream write failed"),
            std::string::npos);
}

}  // namespace
}  // namespace cextend
