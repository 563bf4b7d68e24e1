// cextend_cli — solve a C-Extension instance from CSV files and a
// constraint spec, no C++ required.
//
//   cextend_cli --r1=persons.csv --r1-schema="pid:int,Age:int,Rel:str,hid:int"
//               --r2=housing.csv --r2-schema="hid:int,Area:str"
//               --key1=pid --fk=hid --key2=hid
//               --constraints=spec.txt
//               [--out-r1=r1_hat.csv] [--out-r2=r2_hat.csv]
//               [--out-join=v_join.csv] [--seed=N] [--threads=N]
//               [--timeout-ms=N] [--max-attempts=N]
//               [--stream-out=PATH] [--manifest=PATH] [--resume]
//               [--shards=N] [--max-resident-shards=K]
//               [--method=hybrid|baseline|baseline-marginals]
//
// --timeout-ms bounds each solve attempt with a monotonic deadline (expiry
// returns DEADLINE_EXCEEDED). A transient failure (INTERNAL: sink or
// manifest I/O) is retried with the same options, up to --max-attempts
// attempts; RESOURCE_EXHAUSTED (the deterministic hyperedge cap) is not
// retried. The solver already degrades in place (naive-oracle fallback,
// warm→cold solves), so a retry never switches paths. The plan is built once and cached in serialized form, so retries
// only re-execute shards, never phase 1 or planning (unless planning itself
// failed).
//
// --stream-out streams phase 2 to PATH as shards retire from the
// bounded-memory executor (format: src/core/shard_executor.h), instead of
// only materializing tables at the end; --shards / --max-resident-shards
// pick the shard count and admission window (0 = auto / unbounded). The
// stream bytes are identical for any shard geometry and thread count.
//
// Streaming is durable (src/core/stream_checkpoint.h): a sidecar CXMF
// manifest (--manifest, default <stream-out>.manifest) is fsync'd at every
// shard retirement. --resume restarts an interrupted run from the last
// committed shard boundary instead of from scratch, and a retried attempt
// likewise resumes from the durable prefix. The resumed stream is
// byte-identical to an uninterrupted run.
//
// The spec file holds one constraint per line (see constraints/parser.h):
//     cc chicago_owners: COUNT(Rel = "Owner" & Area = "Chicago") = 4
//     dc one_owner:      !(t0.Rel = "Owner" & t1.Rel = "Owner")

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>

#include "constraints/metrics.h"
#include "constraints/parser.h"
#include "core/baseline.h"
#include "core/shard_executor.h"
#include "core/solver.h"
#include "core/stream_checkpoint.h"
#include "relational/csv.h"
#include "util/string_util.h"

namespace cextend {
namespace {

struct CliArgs {
  std::string r1_path, r1_schema;
  std::string r2_path, r2_schema;
  std::string key1, fk, key2;
  std::string constraints_path;
  std::string out_r1 = "r1_hat.csv";
  std::string out_r2 = "r2_hat.csv";
  std::string out_join;
  std::string method = "hybrid";
  std::string stream_out;        // empty = no streaming sink
  std::string manifest;          // empty = <stream_out>.manifest
  bool resume = false;           // continue from the durable prefix
  uint64_t seed = 1;
  size_t threads = 1;
  size_t shards = 0;             // 0 = auto
  size_t max_resident_shards = 0;  // 0 = unbounded
  int64_t timeout_ms = 0;  // 0 = no deadline
  size_t max_attempts = 5; // 1 = no retries
};

SolverOptions OptionsForAttempt(const CliArgs& args) {
  SolverOptions options;
  options.seed = args.seed;
  // Both phases write the same bytes at any thread count.
  options.phase1.ilp.num_threads = args.threads;
  options.phase2.num_threads = args.threads;
  options.phase2.num_shards = args.shards;
  options.phase2.max_resident_shards = args.max_resident_shards;
  if (args.timeout_ms > 0) {
    // Fresh per-attempt deadline: a retry gets the full budget.
    options.run_control.deadline = Deadline::AfterMillis(args.timeout_ms);
  }
  return options;
}

// A retry only helps with transient failures: kInternal from sink/manifest
// I/O. Everything else fails the run immediately — bad
// input (kInvalidArgument, kNotFound), an expired deadline, and
// kResourceExhausted, whose only source that reaches here is the
// deterministic hyperedge cap, which a rerun would hit identically.
bool IsRetryable(StatusCode code) { return code == StatusCode::kInternal; }

StatusOr<Schema> ParseSchemaSpec(const std::string& spec) {
  std::vector<ColumnSpec> columns;
  for (const std::string& field : StrSplit(spec, ',')) {
    std::vector<std::string> parts = StrSplit(field, ':');
    if (parts.size() != 2) {
      return Status::InvalidArgument("bad schema field '" + field +
                                     "'; expected name:int or name:str");
    }
    std::string name(StrTrim(parts[0]));
    std::string type(StrTrim(parts[1]));
    if (type == "int" || type == "i64" || type == "int64") {
      columns.push_back({name, DataType::kInt64});
    } else if (type == "str" || type == "string") {
      columns.push_back({name, DataType::kString});
    } else {
      return Status::InvalidArgument("unknown column type: " + type);
    }
  }
  if (columns.empty()) return Status::InvalidArgument("empty schema spec");
  return Schema::Create(std::move(columns));
}

StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --r1=CSV --r1-schema=SPEC --r2=CSV --r2-schema=SPEC \\\n"
      "          --key1=COL --fk=COL --key2=COL --constraints=FILE \\\n"
      "          [--out-r1=CSV] [--out-r2=CSV] [--out-join=CSV] \\\n"
      "          [--seed=N] [--threads=N] [--timeout-ms=N] "
      "[--max-attempts=N] \\\n"
      "          [--stream-out=PATH] [--manifest=PATH] [--resume] "
      "[--shards=N] [--max-resident-shards=K] \\\n"
      "          [--method=hybrid|baseline|baseline-marginals]\n",
      argv0);
  return 2;
}

Status Run(const CliArgs& args) {
  CEXTEND_ASSIGN_OR_RETURN(Schema r1_schema, ParseSchemaSpec(args.r1_schema));
  CEXTEND_ASSIGN_OR_RETURN(Schema r2_schema, ParseSchemaSpec(args.r2_schema));
  CEXTEND_ASSIGN_OR_RETURN(Table r1, ReadCsv(args.r1_path, r1_schema));
  CEXTEND_ASSIGN_OR_RETURN(Table r2, ReadCsv(args.r2_path, r2_schema));
  CEXTEND_ASSIGN_OR_RETURN(
      PairSchema names,
      PairSchema::Infer(r1, r2, args.key1, args.fk, args.key2));
  CEXTEND_ASSIGN_OR_RETURN(std::string spec_text,
                           ReadFile(args.constraints_path));
  // The spec's CC columns are resolved against the *attribute* schemas so
  // key/FK columns cannot be constrained by accident.
  std::vector<ColumnSpec> r1_attr_cols, r2_attr_cols;
  for (const std::string& a : names.r1_attrs)
    r1_attr_cols.push_back({a, r1_schema.column(r1_schema.IndexOrDie(a)).type});
  for (const std::string& b : names.r2_attrs)
    r2_attr_cols.push_back({b, r2_schema.column(r2_schema.IndexOrDie(b)).type});
  CEXTEND_ASSIGN_OR_RETURN(
      ConstraintSpec spec,
      ParseConstraintSpec(spec_text, Schema(r1_attr_cols),
                          Schema(r2_attr_cols)));
  std::printf("loaded R1=%zu rows, R2=%zu rows, %zu CCs, %zu DCs\n",
              r1.NumRows(), r2.NumRows(), spec.ccs.size(), spec.dcs.size());

  if (args.method != "hybrid" && args.method != "baseline" &&
      args.method != "baseline-marginals") {
    return Status::InvalidArgument("unknown method: " + args.method);
  }
  if (!args.stream_out.empty() && args.method != "hybrid") {
    return Status::InvalidArgument(
        "--stream-out requires --method=hybrid (baselines have no "
        "plan/execute split)");
  }
  if (args.resume && args.stream_out.empty()) {
    return Status::InvalidArgument(
        "--resume requires --stream-out (only streamed runs are durable)");
  }
  const size_t max_attempts = std::max<size_t>(args.max_attempts, 1);
  // The plan does not depend on the attempt, so it is built once and cached
  // in serialized form; retries deserialize it and jump straight to shard
  // execution.
  struct PlanCache {
    std::string plan_bytes;
    std::optional<Table> v_join;
    SolveStats stats;
    double plan_build_seconds = 0.0;
  };
  PlanCache cache;
  // Whether the next streaming attempt continues from the durable prefix:
  // --resume opts in up front, and any streaming attempt that got far enough
  // to commit manifest records makes the *retry* resume.
  bool resume_stream = args.resume;
  auto attempt_hybrid = [&](const SolverOptions& options)
      -> StatusOr<Solution> {
    StatusOr<PlannedCExtension> planned = Status::Internal("unset");
    if (cache.v_join.has_value()) {
      CEXTEND_ASSIGN_OR_RETURN(SynthesisPlan plan,
                               SynthesisPlan::Deserialize(cache.plan_bytes));
      planned = PlannedCExtension{std::move(plan), cache.v_join->Clone(),
                                  cache.stats, cache.plan_build_seconds};
    } else {
      planned = PlanCExtension(r1, r2, names, spec.ccs, spec.dcs, options);
      if (planned.ok()) {
        cache.plan_bytes = planned->plan.Serialize();
        cache.v_join = planned->v_join.Clone();
        cache.stats = planned->stats;
        cache.plan_build_seconds = planned->plan_build_seconds;
      }
    }
    CEXTEND_RETURN_IF_ERROR(planned.status());
    if (args.stream_out.empty()) {
      return ExecuteCExtensionPlan(std::move(planned).value(), r1, r2, names,
                                   spec.dcs, options);
    }
    DurableStreamSpec stream;
    stream.stream_path = args.stream_out;
    stream.manifest_path = args.manifest;
    stream.resume = resume_stream;
    resume_stream = true;  // whatever this attempt committed stays durable
    return ExecuteCExtensionPlanDurable(std::move(planned).value(), r1, r2,
                                        names, spec.dcs, stream, options);
  };
  StatusOr<Solution> solution = Status::Internal("unset");
  for (size_t attempt = 0; attempt < max_attempts; ++attempt) {
    SolverOptions options = OptionsForAttempt(args);
    if (attempt > 0) {
      std::fprintf(stderr, "retrying (attempt %zu/%zu)%s\n", attempt + 1,
                   max_attempts,
                   cache.v_join.has_value() ? ", reusing cached plan" : "");
    }
    if (args.method == "hybrid") {
      solution = attempt_hybrid(options);
    } else if (args.method == "baseline") {
      solution = SolveBaseline(r1, r2, names, spec.ccs, spec.dcs,
                               BaselineKind::kPlain, options);
    } else {
      solution = SolveBaseline(r1, r2, names, spec.ccs, spec.dcs,
                               BaselineKind::kWithMarginals, options);
    }
    if (solution.ok()) break;
    if (!IsRetryable(solution.status().code()) ||
        attempt + 1 == max_attempts) {
      break;
    }
    std::fprintf(stderr, "solve failed: %s\n",
                 solution.status().ToString().c_str());
  }
  CEXTEND_RETURN_IF_ERROR(solution.status());
  if (solution->stats.AnyDegradation()) {
    std::fprintf(stderr, "note: degraded paths were used: %s\n",
                 solution->stats.Summary().c_str());
  }

  CEXTEND_ASSIGN_OR_RETURN(CcErrorReport cc_report,
                           EvaluateCcError(spec.ccs, solution->v_join));
  CEXTEND_ASSIGN_OR_RETURN(
      DcErrorReport dc_report,
      EvaluateDcError(spec.dcs, solution->r1_hat, names.fk));
  std::printf("%s\n%s\n", cc_report.Summary().c_str(),
              dc_report.Summary().c_str());
  std::printf("new R2 tuples: %zu\n",
              solution->stats.phase2.new_r2_tuples);
  std::printf("%s", solution->stats.BreakdownTable().c_str());
  if (!args.stream_out.empty()) {
    std::printf("streamed %zu shards to %s (%s)\n",
                solution->stats.phase2.shards_emitted,
                args.stream_out.c_str(),
                solution->stats.Summary().c_str());
  }

  CEXTEND_RETURN_IF_ERROR(WriteCsv(solution->r1_hat, args.out_r1));
  CEXTEND_RETURN_IF_ERROR(WriteCsv(solution->r2_hat, args.out_r2));
  std::printf("wrote %s and %s\n", args.out_r1.c_str(), args.out_r2.c_str());
  if (!args.out_join.empty()) {
    CEXTEND_RETURN_IF_ERROR(WriteCsv(solution->v_join, args.out_join));
    std::printf("wrote %s\n", args.out_join.c_str());
  }
  return Status::Ok();
}

}  // namespace
}  // namespace cextend

int main(int argc, char** argv) {
  cextend::CliArgs args;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      size_t len = strlen(prefix);
      return strncmp(arg, prefix, len) == 0 ? arg + len : nullptr;
    };
    if (const char* v = value("--r1=")) args.r1_path = v;
    else if (const char* v = value("--r1-schema=")) args.r1_schema = v;
    else if (const char* v = value("--r2=")) args.r2_path = v;
    else if (const char* v = value("--r2-schema=")) args.r2_schema = v;
    else if (const char* v = value("--key1=")) args.key1 = v;
    else if (const char* v = value("--fk=")) args.fk = v;
    else if (const char* v = value("--key2=")) args.key2 = v;
    else if (const char* v = value("--constraints=")) args.constraints_path = v;
    else if (const char* v = value("--out-r1=")) args.out_r1 = v;
    else if (const char* v = value("--out-r2=")) args.out_r2 = v;
    else if (const char* v = value("--out-join=")) args.out_join = v;
    else if (const char* v = value("--method=")) args.method = v;
    else if (const char* v = value("--stream-out=")) args.stream_out = v;
    else if (const char* v = value("--manifest=")) args.manifest = v;
    else if (strcmp(arg, "--resume") == 0) args.resume = true;
    else if (const char* v = value("--seed=")) args.seed = strtoull(v, nullptr, 10);
    else if (const char* v = value("--threads=")) args.threads = strtoull(v, nullptr, 10);
    else if (const char* v = value("--shards=")) args.shards = strtoull(v, nullptr, 10);
    else if (const char* v = value("--max-resident-shards=")) args.max_resident_shards = strtoull(v, nullptr, 10);
    else if (const char* v = value("--timeout-ms=")) args.timeout_ms = strtoll(v, nullptr, 10);
    else if (const char* v = value("--max-attempts=")) args.max_attempts = strtoull(v, nullptr, 10);
    else return cextend::Usage(argv[0]);
  }
  if (args.r1_path.empty() || args.r2_path.empty() ||
      args.r1_schema.empty() || args.r2_schema.empty() || args.key1.empty() ||
      args.fk.empty() || args.key2.empty() || args.constraints_path.empty()) {
    return cextend::Usage(argv[0]);
  }
  cextend::Status status = cextend::Run(args);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
