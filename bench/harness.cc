#include "harness.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "util/string_util.h"
#include "util/timer.h"

namespace cextend {
namespace bench {
void RecordPhase2Bench(const Dataset& dataset, Method method,
                       const RunResult& result) {
  const char* path = getenv("CEXTEND_BENCH_JSON");
  if (path != nullptr && strcmp(path, "off") == 0) return;
  if (path == nullptr || *path == '\0') path = "BENCH_phase2.json";
  const Phase2Stats& p2 = result.stats.phase2;
  // One JSON object per line, appended, so records from every bench binary
  // of a sweep accumulate in one trajectory file; delete the file to start a
  // fresh trajectory.
  FILE* f = fopen(path, "a");
  if (f == nullptr) return;  // perf log is best-effort
  fprintf(f,
          "{\"method\": \"%s\", \"scale\": %.3f, \"persons\": %zu, "
          "\"households\": %zu, \"total_seconds\": %.6f, "
          "\"phase2_seconds\": %.6f, \"partition_seconds\": %.6f, "
          "\"coloring_seconds\": %.6f, \"invalid_seconds\": %.6f, "
          "\"num_partitions\": %zu, \"skipped_vertices\": %zu, "
          "\"new_r2_tuples\": %zu}\n",
          MethodName(method), dataset.scale, dataset.data.persons.NumRows(),
          dataset.data.housing.NumRows(), result.seconds,
          result.stats.phase2_seconds, p2.partition_seconds,
          p2.coloring_seconds, p2.invalid_seconds, p2.num_partitions,
          p2.skipped_vertices, p2.new_r2_tuples);
  fclose(f);
}

HarnessOptions HarnessOptions::FromArgs(int argc, char** argv) {
  HarnessOptions options;
  if (const char* env = getenv("CEXTEND_PAPER"); env && *env == '1') {
    options.unit_persons = 25099;
    options.unit_households = 9820;
    options.num_ccs = 1001;
  }
  if (const char* env = getenv("CEXTEND_UNIT")) {
    options.unit_persons = static_cast<size_t>(atoll(env));
    options.unit_households =
        static_cast<size_t>(options.unit_persons * 9820ull / 25099ull);
  }
  if (const char* env = getenv("CEXTEND_NUM_CCS")) {
    options.num_ccs = static_cast<size_t>(atoll(env));
  }
  if (const char* env = getenv("CEXTEND_MAX_SCALE")) {
    options.max_scale = atof(env);
  }
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      size_t len = strlen(prefix);
      return strncmp(arg, prefix, len) == 0 ? arg + len : nullptr;
    };
    if (const char* v = value("--unit=")) {
      options.unit_persons = static_cast<size_t>(atoll(v));
      options.unit_households =
          static_cast<size_t>(options.unit_persons * 9820ull / 25099ull);
    } else if (const char* v = value("--households=")) {
      options.unit_households = static_cast<size_t>(atoll(v));
    } else if (const char* v = value("--num-ccs=")) {
      options.num_ccs = static_cast<size_t>(atoll(v));
    } else if (const char* v = value("--seed=")) {
      options.seed = static_cast<uint64_t>(atoll(v));
    } else if (const char* v = value("--threads=")) {
      options.threads = static_cast<size_t>(atoll(v));
    } else if (const char* v = value("--max-scale=")) {
      options.max_scale = atof(v);
    } else if (strcmp(arg, "--paper") == 0) {
      options.unit_persons = 25099;
      options.unit_households = 9820;
      options.num_ccs = 1001;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      exit(2);
    }
  }
  return options;
}

std::string HarnessOptions::Describe() const {
  return StrFormat(
      "unit=%zu persons/%zu households, num_ccs=%zu, seed=%llu, threads=%zu, "
      "max_scale=%.0f",
      unit_persons, unit_households, num_ccs,
      static_cast<unsigned long long>(seed), threads, max_scale);
}

StatusOr<Dataset> MakeDataset(const HarnessOptions& options, double scale,
                              bool bad_ccs, bool all_dcs,
                              size_t num_r2_columns,
                              size_t num_ccs_override) {
  datagen::CensusOptions census = datagen::ScaledCensusOptions(
      scale, options.unit_persons, options.unit_households);
  census.num_r2_columns = num_r2_columns;
  census.seed = options.seed;
  CEXTEND_ASSIGN_OR_RETURN(datagen::CensusData data,
                           datagen::GenerateCensus(census));
  datagen::CcFamilyOptions cc_options;
  cc_options.num_ccs =
      num_ccs_override > 0 ? num_ccs_override : options.num_ccs;
  cc_options.intersecting = bad_ccs;
  cc_options.seed = options.seed * 17 + 3;
  CEXTEND_ASSIGN_OR_RETURN(std::vector<CardinalityConstraint> ccs,
                           datagen::GenerateCcs(data, cc_options));
  Dataset dataset{std::move(data), std::move(ccs),
                  datagen::MakeCensusDcs(!all_dcs), scale};
  return dataset;
}

const char* MethodName(Method method) {
  switch (method) {
    case Method::kHybrid:
      return "hybrid";
    case Method::kBaseline:
      return "baseline";
    case Method::kBaselineMarginals:
      return "baseline+marg";
  }
  return "?";
}

StatusOr<RunResult> RunMethod(const Dataset& dataset, Method method,
                              const HarnessOptions& options) {
  SolverOptions solver_options;
  solver_options.seed = options.seed;
  solver_options.phase2.num_threads = options.threads;
  solver_options.phase1.ilp.num_threads = options.threads;
  Stopwatch watch;
  StatusOr<Solution> solution = Status::Internal("unset");
  switch (method) {
    case Method::kHybrid:
      solution = SolveCExtension(dataset.data.persons, dataset.data.housing,
                                 dataset.data.names, dataset.ccs, dataset.dcs,
                                 solver_options);
      break;
    case Method::kBaseline:
      solution = SolveBaseline(dataset.data.persons, dataset.data.housing,
                               dataset.data.names, dataset.ccs, dataset.dcs,
                               BaselineKind::kPlain, solver_options);
      break;
    case Method::kBaselineMarginals:
      solution = SolveBaseline(dataset.data.persons, dataset.data.housing,
                               dataset.data.names, dataset.ccs, dataset.dcs,
                               BaselineKind::kWithMarginals, solver_options);
      break;
  }
  if (!solution.ok()) return solution.status();
  RunResult result;
  result.seconds = watch.ElapsedSeconds();
  result.stats = solution->stats;
  result.new_r2_tuples = solution->stats.phase2.new_r2_tuples;
  CEXTEND_ASSIGN_OR_RETURN(result.cc,
                           EvaluateCcError(dataset.ccs, solution->v_join));
  CEXTEND_ASSIGN_OR_RETURN(
      result.dc,
      EvaluateDcError(dataset.dcs, solution->r1_hat, dataset.data.names.fk));
  RecordPhase2Bench(dataset, method, result);
  return result;
}

void PrintBanner(const std::string& title, const HarnessOptions& options) {
  std::printf("# %s\n# %s\n#\n", title.c_str(), options.Describe().c_str());
}

std::vector<double> ClipScales(std::vector<double> scales, double max_scale) {
  std::vector<double> out;
  for (double s : scales) {
    if (s <= max_scale) out.push_back(s);
  }
  if (out.empty()) out.push_back(1.0);
  return out;
}

}  // namespace bench
}  // namespace cextend
