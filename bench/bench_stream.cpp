// Streamed vs monolithic phase-2 emission: the bounded-memory shard
// executor's headline claim. For each scale the same dataset is solved four
// times through the plan-then-stream API — once as a single shard (the whole
// emission resident, equivalent to the legacy monolithic path), once with
// 64 shards admitted one at a time (max_resident_shards=1), retiring each
// shard to a file sink as it completes, once more like that at 1 thread
// whatever --threads says (the thread-scaling baseline of the streamed
// run), and once through the durable manifest path (fsync per shard
// retirement), whose extra cost over plain streaming is recorded as
// resume_overhead. Records land in the phase-2 JSON trajectory
// (CEXTEND_BENCH_JSON, default BENCH_phase2.json) under the methods
// "hybrid-mono" / "hybrid-stream" / "hybrid-stream-1t" / "hybrid-durable",
// keyed by scale, so tools/bench_diff.py gates wall time (the streamed run
// at --threads and at 1 thread); peak_resident_bytes carries the memory
// claim. Byte-level agreement is unnecessary here — that invariant is pinned
// by tests — but the executor's resident high-water mark must be strictly
// lower under admission control.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "core/shard_executor.h"
#include "core/stream_checkpoint.h"
#include "harness.h"
#include "util/string_util.h"
#include "util/timer.h"

using namespace cextend;
using namespace cextend::bench;

namespace {

struct StreamRun {
  SolveStats stats;
  double seconds = 0.0;
  size_t streamed_bytes = 0;
};

enum class Mode { kMono, kStream, kDurable };

StreamRun RunOnce(const Dataset& dataset, const HarnessOptions& options,
                  size_t num_shards, size_t max_resident, Mode mode) {
  SolverOptions solver_options;
  solver_options.seed = options.seed;
  solver_options.phase2.num_threads = options.threads;
  solver_options.phase1.ilp.num_threads = options.threads;
  solver_options.phase2.num_shards = num_shards;
  solver_options.phase2.max_resident_shards = max_resident;
  Stopwatch watch;
  auto planned =
      PlanCExtension(dataset.data.persons, dataset.data.housing,
                     dataset.data.names, dataset.ccs, dataset.dcs,
                     solver_options);
  CEXTEND_CHECK(planned.ok()) << planned.status().ToString();
  StreamRun run;
  const char* path = "bench_stream.out";
  const char* manifest = "bench_stream.out.manifest";
  if (mode == Mode::kStream) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    CEXTEND_CHECK(out.good());
    TextStreamSink sink(out);
    auto solution = ExecuteCExtensionPlan(
        std::move(planned).value(), dataset.data.persons, dataset.data.housing,
        dataset.data.names, dataset.dcs, solver_options, &sink);
    CEXTEND_CHECK(solution.ok()) << solution.status().ToString();
    run.stats = solution->stats;
    out.flush();
    run.streamed_bytes = static_cast<size_t>(out.tellp());
  } else if (mode == Mode::kDurable) {
    std::remove(path);
    std::remove(manifest);
    DurableStreamSpec spec;
    spec.stream_path = path;
    spec.manifest_path = manifest;
    auto solution = ExecuteCExtensionPlanDurable(
        std::move(planned).value(), dataset.data.persons, dataset.data.housing,
        dataset.data.names, dataset.dcs, spec, solver_options);
    CEXTEND_CHECK(solution.ok()) << solution.status().ToString();
    run.stats = solution->stats;
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    run.streamed_bytes = static_cast<size_t>(in.tellg());
  } else {
    auto solution = ExecuteCExtensionPlan(
        std::move(planned).value(), dataset.data.persons, dataset.data.housing,
        dataset.data.names, dataset.dcs, solver_options);
    CEXTEND_CHECK(solution.ok()) << solution.status().ToString();
    run.stats = solution->stats;
  }
  run.seconds = watch.ElapsedSeconds();
  std::remove(path);
  std::remove(manifest);
  return run;
}

void Record(const Dataset& dataset, const char* method, const StreamRun& run,
            double resume_overhead = -1.0) {
  const char* path = getenv("CEXTEND_BENCH_JSON");
  if (path != nullptr && strcmp(path, "off") == 0) return;
  if (path == nullptr || *path == '\0') path = "BENCH_phase2.json";
  FILE* f = fopen(path, "a");
  if (f == nullptr) return;  // perf log is best-effort
  const Phase2Stats& p2 = run.stats.phase2;
  fprintf(f,
          "{\"method\": \"%s\", \"scale\": %.3f, \"persons\": %zu, "
          "\"households\": %zu, \"total_seconds\": %.6f, "
          "\"phase2_seconds\": %.6f, \"shards_emitted\": %zu, "
          "\"max_shards_in_flight\": %zu, \"peak_resident_bytes\": %zu, "
          "\"streamed_bytes\": %zu",
          method, dataset.scale, dataset.data.persons.NumRows(),
          dataset.data.housing.NumRows(), run.seconds,
          run.stats.phase2_seconds, p2.shards_emitted, p2.max_shards_in_flight,
          p2.peak_resident_bytes, run.streamed_bytes);
  if (resume_overhead >= 0.0) {
    fprintf(f, ", \"resume_overhead\": %.6f, \"manifest_commits\": %zu",
            resume_overhead, p2.manifest_commits);
  }
  fprintf(f, "}\n");
  fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  HarnessOptions options = HarnessOptions::FromArgs(argc, argv);
  PrintBanner("Streamed vs monolithic phase-2 emission (shard executor)",
              options);
  std::printf("%7s %16s %12s %18s %10s\n", "scale", "method", "wall",
              "peak_resident", "shards");
  for (double scale : ClipScales({4.0, 10.0}, options.max_scale)) {
    auto dataset = MakeDataset(options, scale, /*bad_ccs=*/false,
                               /*all_dcs=*/true);
    CEXTEND_CHECK(dataset.ok()) << dataset.status().ToString();

    StreamRun mono = RunOnce(dataset.value(), options, /*num_shards=*/1,
                             /*max_resident=*/0, Mode::kMono);
    Record(dataset.value(), "hybrid-mono", mono);
    std::printf("%6.1fx %16s %12s %17zuB %10zu\n", scale, "hybrid-mono",
                FormatDuration(mono.seconds).c_str(),
                mono.stats.phase2.peak_resident_bytes,
                mono.stats.phase2.shards_emitted);

    StreamRun streamed = RunOnce(dataset.value(), options, /*num_shards=*/64,
                                 /*max_resident=*/1, Mode::kStream);
    Record(dataset.value(), "hybrid-stream", streamed);
    std::printf("%6.1fx %16s %12s %17zuB %10zu  (streamed %zuB, hwm %zu)\n",
                scale, "hybrid-stream", FormatDuration(streamed.seconds).c_str(),
                streamed.stats.phase2.peak_resident_bytes,
                streamed.stats.phase2.shards_emitted, streamed.streamed_bytes,
                streamed.stats.phase2.max_shards_in_flight);

    HarnessOptions one_thread = options;
    one_thread.threads = 1;
    StreamRun streamed_1t = RunOnce(dataset.value(), one_thread,
                                    /*num_shards=*/64, /*max_resident=*/1,
                                    Mode::kStream);
    Record(dataset.value(), "hybrid-stream-1t", streamed_1t);
    std::printf(
        "%6.1fx %16s %12s %17zuB %10zu  (speedup at %zu threads: %.2fx)\n",
        scale, "hybrid-stream-1t", FormatDuration(streamed_1t.seconds).c_str(),
        streamed_1t.stats.phase2.peak_resident_bytes,
        streamed_1t.stats.phase2.shards_emitted, options.threads,
        streamed_1t.seconds / streamed.seconds);

    StreamRun durable = RunOnce(dataset.value(), options, /*num_shards=*/64,
                                /*max_resident=*/1, Mode::kDurable);
    // resume_overhead: what durability costs over plain streaming on the
    // same geometry — one fsync pair per shard retirement plus the manifest
    // records themselves. Clamped at 0 so timer noise on fast runs doesn't
    // record a negative cost.
    double overhead = durable.seconds > streamed.seconds
                          ? durable.seconds - streamed.seconds
                          : 0.0;
    Record(dataset.value(), "hybrid-durable", durable, overhead);
    std::printf("%6.1fx %16s %12s %17zuB %10zu  (overhead %s, commits %zu)\n",
                scale, "hybrid-durable",
                FormatDuration(durable.seconds).c_str(),
                durable.stats.phase2.peak_resident_bytes,
                durable.stats.phase2.shards_emitted,
                FormatDuration(overhead).c_str(),
                durable.stats.phase2.manifest_commits);

    // The memory claim the trajectory carries: one-shard-at-a-time admission
    // keeps the resident high-water mark strictly below holding the whole
    // emission, at every scale this canary runs at.
    CEXTEND_CHECK(streamed.stats.phase2.max_shards_in_flight == 1);
    CEXTEND_CHECK(streamed.stats.phase2.peak_resident_bytes <
                  mono.stats.phase2.peak_resident_bytes)
        << "streamed resident bytes not below monolithic at scale " << scale;
    // Durable run: header + one record per emitted shard + repair + finish,
    // all committed by this (fresh, uninterrupted) run.
    CEXTEND_CHECK(durable.stats.phase2.manifest_commits ==
                  durable.stats.phase2.shards_emitted + 3)
        << "unexpected manifest commit count at scale " << scale;
    CEXTEND_CHECK(durable.stats.phase2.resumed_shards == 0);
  }
  std::printf(
      "# peak_resident is the executor's tracked shard-output high-water\n"
      "# mark: max_resident_shards=1 must stay well below the monolithic\n"
      "# (single-shard) run, which holds the entire emission resident.\n");
  return 0;
}
