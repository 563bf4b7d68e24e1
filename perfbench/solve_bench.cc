// Whole-solve benchmark for the C-Extension solver.
//
//   solve_bench --workload NAME --seed N --seconds S --trace 0|1
//               [--out-dir DIR] [--scale-mult X] [--plant-fault]
//
// The seed relabels the keys of one generated census instance (MakeDataset);
// the solver receives the tables and constraints with fixed solver options.
//
// --trace 0 times whole solves through the public API (PlanCExtension, then
// ExecuteCExtensionPlan or ExecuteCExtensionPlanDurable) and prints the
// end-to-end metrics. --trace 1 alternates those solves with a traced solve
// that makes the same library calls one layer at a time (MakeJoinView,
// RunHybridPhase1, BuildSynthesisPlan, PreparePlan, TableSink, ExecutePlan),
// timed from here, plus standalone probes of single layers; it prints the
// per-layer metrics and writes a Chrome trace-event file. Nothing inside the
// library is instrumented.
//
// Every output is checked outside the timed region: the first solve of a run
// gets the full check (CheckOutput), every later output must reproduce its
// digest. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// See README.md beside this file for the metrics and workloads.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "constraints/metrics.h"
#include "constraints/relationship.h"
#include "core/binning.h"
#include "core/hybrid.h"
#include "core/join_view.h"
#include "core/plan.h"
#include "core/shard_executor.h"
#include "core/solver.h"
#include "core/stream_checkpoint.h"
#include "datagen/census.h"
#include "datagen/constraint_gen.h"
#include "util/hash.h"
#include "util/rng.h"

namespace cextend {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Load comes from this one process: phase-1 ILP and phase-2 executor threads.
constexpr size_t kThreads = 4;
/// Set-up runs this many times per run; setup_s is the median.
constexpr int kSetupRepeats = 3;
/// Measured solves per run even when --seconds has already elapsed.
constexpr size_t kMinSolves = 3;
/// Solves that must lie beyond the reported tail percentile.
constexpr size_t kTailBeyond = 10;

struct Workload {
  const char* name;
  double scale;         ///< ScaledCensusOptions factor (1 = 25,099 persons)
  size_t num_ccs;
  bool bad_ccs;         ///< S_bad_CC (intersecting Age intervals)
  bool durable;         ///< ExecuteCExtensionPlanDurable into a stream file
  size_t num_shards;    ///< 0 = auto
  size_t max_resident;  ///< admission window, 0 = unbounded
  bool dc_check;        ///< EvaluateDcError in the output check
};

// Why these three: good_250k exercises the executor, coloring, fill and
// binning at scale and never reaches the ILP; bad_1001cc is dominated by
// pairwise classification and the ILP and barely uses the executor;
// durable_250k runs good_250k's solve through the one-shard window and an
// fsync'd manifest per retirement. Its solve time follows the host's fsync
// latency, so BENCHMARK.json leaves it out and the traced runs of the other
// two measure the durable layer as a probe. EvaluateDcError takes tens of
// seconds on a 250k-row output, so only bad_1001cc runs it.
constexpr Workload kWorkloads[] = {
    {"good_250k", 10.0, 201, false, false, 0, 0, false},
    {"bad_1001cc", 1.0, 1001, true, false, 0, 0, true},
    {"durable_250k", 10.0, 201, false, true, 64, 1, false},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
  double scale_mult = 1.0;  ///< shrinks the inputs (self-test smoke runs)
  bool plant_fault = false;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Resets the kernel's peak-RSS mark (VmHWM, the mark getrusage's ru_maxrss
/// reports) to the current RSS, so that PeakRssMb() covers only what runs
/// after this call.
void ResetPeakRss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
}

/// VmHWM, the peak-RSS mark ResetPeakRss() resets.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Inputs.

struct Dataset {
  datagen::CensusData data;
  std::vector<CardinalityConstraint> ccs;
  std::vector<DenialConstraint> dcs;
};

struct SetupTimes {
  double census_s = 0.0;
  double ccs_s = 0.0;
  double total_s = 0.0;
};

/// Census generator seed of every workload. Solve cost is set by the largest
/// phase-2 partition and swings by 2x between generator seeds (5x under row
/// permutations), so --seed does not pick the census; see RelabelKeys.
constexpr uint64_t kCensusSeed = 42;

/// Replaces the values of key column `key` of `owner` by a seeded
/// permutation of themselves, and rewrites the columns in `refs` that hold
/// the same keys with the same map. The relabelled instance has the same
/// structure, CC targets and solve cost, but different input and output
/// bytes.
void RelabelKeys(Rng& rng, Table& owner, const std::string& key,
                 const std::vector<std::pair<Table*, std::string>>& refs) {
  const size_t col = owner.schema().IndexOrDie(key);
  const std::vector<int64_t> old_keys = owner.ColumnCodes(col);
  std::vector<int64_t> new_keys = old_keys;
  rng.Shuffle(new_keys);
  std::unordered_map<int64_t, int64_t> relabel;
  relabel.reserve(old_keys.size());
  for (size_t row = 0; row < old_keys.size(); ++row) {
    relabel.emplace(old_keys[row], new_keys[row]);
    owner.SetCode(row, col, new_keys[row]);
  }
  for (const auto& [table, name] : refs) {
    const size_t ref_col = table->schema().IndexOrDie(name);
    for (size_t row = 0; row < table->NumRows(); ++row) {
      const int64_t code = table->GetCode(row, ref_col);
      if (code != kNullCode) table->SetCode(row, ref_col, relabel.at(code));
    }
  }
}

/// Builds the workload's inputs: the census tables with keys relabelled by
/// `args.seed`, the CC family with targets counted on the ground truth, and
/// S_all_DC.
StatusOr<Dataset> MakeDataset(const Workload& w, const Args& args,
                              SetupTimes* times) {
  const Clock::time_point start = Clock::now();
  datagen::CensusOptions census =
      datagen::ScaledCensusOptions(w.scale * args.scale_mult);
  census.seed = kCensusSeed;
  CEXTEND_ASSIGN_OR_RETURN(datagen::CensusData data,
                           datagen::GenerateCensus(census));
  const PairSchema& names = data.names;
  Rng rng(args.seed);
  RelabelKeys(rng, data.persons, names.key1,
              {{&data.persons_truth, names.key1}});
  RelabelKeys(rng, data.housing, names.key2, {{&data.persons_truth, names.fk}});
  times->census_s = SecondsSince(start);
  const Clock::time_point ccs_start = Clock::now();
  datagen::CcFamilyOptions cc_options;
  cc_options.num_ccs = w.num_ccs;
  cc_options.intersecting = w.bad_ccs;
  CEXTEND_ASSIGN_OR_RETURN(std::vector<CardinalityConstraint> ccs,
                           datagen::GenerateCcs(data, cc_options));
  times->ccs_s = SecondsSince(ccs_start);
  Dataset dataset{std::move(data), std::move(ccs),
                  datagen::MakeCensusDcs(/*good_only=*/false)};
  times->total_s = SecondsSince(start);
  return dataset;
}

SolverOptions MakeSolverOptions(const Workload& w, size_t threads) {
  SolverOptions options;
  options.phase1.ilp.num_threads = threads;
  options.phase2.num_threads = threads;
  options.phase2.num_shards = w.num_shards;
  options.phase2.max_resident_shards = w.max_resident;
  return options;
}

// ---------------------------------------------------------------------------
// Output digests and checks.

uint64_t DigestTable(uint64_t h, const Table& t) {
  h = MixHash64(h, t.NumRows());
  h = MixHash64(h, t.NumColumns());
  for (size_t c = 0; c < t.NumColumns(); ++c) {
    for (int64_t code : t.ColumnCodes(c)) {
      h = MixHash64(h, static_cast<uint64_t>(code));
    }
  }
  return h;
}

StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Digest of one solve's output: R̂1, R̂2, the completed join view and, for a
/// durable solve, the stream file's bytes.
StatusOr<uint64_t> DigestOutput(const Table& r1_hat, const Table& r2_hat,
                                const Table& v_join,
                                const std::string& stream_path) {
  uint64_t h = DigestTable(DigestTable(DigestTable(0, r1_hat), r2_hat), v_join);
  if (stream_path.empty()) return h;
  CEXTEND_ASSIGN_OR_RETURN(std::string bytes, ReadFile(stream_path));
  h = MixHash64(h, bytes.size());
  for (size_t i = 0; i < bytes.size(); i += 8) {
    uint64_t word = 0;
    std::memcpy(&word, bytes.data() + i, std::min<size_t>(8, bytes.size() - i));
    h = MixHash64(h, word);
  }
  return h;
}

struct CheckSummary {
  double cc_error_mean = 0.0;
  double cc_exact_frac = 0.0;
};

/// The full output check. Independent of the solver's own bookkeeping: it
/// reads only the input tables and the output tables.
Status CheckOutput(const Dataset& d, const Table& r1_hat, const Table& r2_hat,
                   const Table& v_join, bool dc_check, CheckSummary* out) {
  const PairSchema& names = d.data.names;
  const Table& r1 = d.data.persons;
  const Table& r2 = d.data.housing;
  if (r1_hat.NumRows() != r1.NumRows() || v_join.NumRows() != r1.NumRows()) {
    return Status::Internal("R̂1 or V_join row count differs from R1");
  }
  if (r2_hat.NumRows() < r2.NumRows() ||
      r1_hat.NumColumns() != r1.NumColumns() ||
      r2_hat.NumColumns() != r2.NumColumns()) {
    return Status::Internal("R̂1/R̂2 shape differs from the input");
  }
  // Row preservation: R1 outside its FK column, and R2's original rows.
  const size_t fk_col = r1_hat.schema().IndexOrDie(names.fk);
  for (size_t c = 0; c < r1.NumColumns(); ++c) {
    if (c != fk_col && r1_hat.ColumnCodes(c) != r1.ColumnCodes(c)) {
      return Status::Internal("R̂1 changed an input column");
    }
  }
  for (size_t c = 0; c < r2.NumColumns(); ++c) {
    const std::vector<int64_t>& in = r2.ColumnCodes(c);
    if (!std::equal(in.begin(), in.end(), r2_hat.ColumnCodes(c).begin())) {
      return Status::Internal("R̂2 changed an input row");
    }
  }
  // R̂2 keys are unique and every FK references one.
  std::vector<int64_t> keys =
      r2_hat.ColumnCodes(r2_hat.schema().IndexOrDie(names.key2));
  std::sort(keys.begin(), keys.end());
  if (std::adjacent_find(keys.begin(), keys.end()) != keys.end()) {
    return Status::Internal("duplicate R̂2 key");
  }
  if (!keys.empty() && keys.front() == kNullCode) {
    return Status::Internal("NULL R̂2 key");
  }
  for (int64_t fk : r1_hat.ColumnCodes(fk_col)) {
    if (fk == kNullCode || !std::binary_search(keys.begin(), keys.end(), fk)) {
      return Status::Internal("R̂1 FK references no R̂2 key");
    }
  }
  // Prop. 5.5: R̂1 ⋈ R̂2 reproduces the completed join view.
  CEXTEND_ASSIGN_OR_RETURN(
      size_t mismatches,
      CountJoinMismatches(r1_hat, names.fk, r2_hat, names.key2, v_join,
                          names.r2_attrs));
  if (mismatches != 0) {
    return Status::Internal(std::to_string(mismatches) +
                            " join rows differ from V_join (Prop. 5.5)");
  }
  CEXTEND_ASSIGN_OR_RETURN(CcErrorReport cc, EvaluateCcError(d.ccs, v_join));
  out->cc_error_mean = cc.mean;
  out->cc_exact_frac =
      d.ccs.empty() ? 1.0
                    : static_cast<double>(cc.num_exact) /
                          static_cast<double>(d.ccs.size());
  if (dc_check) {
    CEXTEND_ASSIGN_OR_RETURN(DcErrorReport dc,
                             EvaluateDcError(d.dcs, r1_hat, names.fk));
    if (dc.num_violating_tuples != 0) {
      return Status::Internal(dc.Summary());
    }
  }
  return Status::Ok();
}

/// A wrong output for the self-test: R̂1 with the FKs of row 0 and of the
/// first row whose join-view combo differs swapped, so the join no longer
/// reproduces V_join.
StatusOr<Table> PlantWrongFk(const Table& r1_hat, const Table& v_join,
                             const PairSchema& names) {
  Table bad = r1_hat.Clone();
  const size_t fk_col = bad.schema().IndexOrDie(names.fk);
  std::vector<size_t> b_cols;
  for (const std::string& b : names.r2_attrs) {
    b_cols.push_back(v_join.schema().IndexOrDie(b));
  }
  for (size_t row = 1; row < v_join.NumRows(); ++row) {
    for (size_t b : b_cols) {
      if (v_join.GetCode(row, b) != v_join.GetCode(0, b)) {
        const int64_t fk = bad.GetCode(0, fk_col);
        bad.SetCode(0, fk_col, bad.GetCode(row, fk_col));
        bad.SetCode(row, fk_col, fk);
        return bad;
      }
    }
  }
  return Status::FailedPrecondition("all rows share one combo");
}

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory, written as Chrome trace-event JSON.

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  /// Records a span that ran on the calling thread. Safe from any thread.
  void Add(const std::string& name, const char* cat, Clock::time_point start,
           double seconds, std::string args = "") {
    AddAt(name, cat, OffsetUs(start), seconds, std::move(args));
  }

  /// Records a span at an explicit offset on the calling thread (children
  /// reported by the program, laid out inside their parent).
  void AddAt(const std::string& name, const char* cat, double start_us,
             double seconds, std::string args) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, cat, start_us, seconds * 1e6, TidLocked(),
                      std::move(args)});
  }

  double OffsetUs(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  bool Write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      std::fprintf(f,
                   "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
                   "\"args\": {%s}}%s\n",
                   s.name.c_str(), s.cat, s.start_us, s.dur_us, s.tid,
                   s.args.c_str(), i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct SpanRecord {
    std::string name;
    const char* cat;
    double start_us;
    double dur_us;
    int tid;
    std::string args;
  };

  int TidLocked() {
    auto it = tids_.find(std::this_thread::get_id());
    if (it == tids_.end()) {
      it = tids_.emplace(std::this_thread::get_id(),
                         static_cast<int>(tids_.size()) + 1)
               .first;
    }
    return it->second;
  }

  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::map<std::thread::id, int> tids_;
};

/// Times one call into a layer and records it as a span.
class Span {
 public:
  Span(Tracer* tracer, std::string name, const char* cat = "layer")
      : tracer_(tracer), name_(std::move(name)), cat_(cat),
        start_(Clock::now()) {}

  double End(std::string args = "") {
    const double seconds = SecondsSince(start_);
    tracer_->Add(name_, cat_, start_, seconds, std::move(args));
    return seconds;
  }

  Clock::time_point start() const { return start_; }

 private:
  Tracer* tracer_;
  std::string name_;
  const char* cat_;
  Clock::time_point start_;
};

/// RowSink decorator that times every call into the wrapped sink. The
/// executor calls sinks from one thread at a time, but not always the same
/// one, hence the lock.
class TimedSink : public RowSink {
 public:
  TimedSink(RowSink* inner, std::string name, Tracer* tracer)
      : inner_(inner), name_(std::move(name)), tracer_(tracer) {}

  Status Begin(const PreparedPlan& prepared) override {
    return Time([&] { return inner_->Begin(prepared); });
  }
  Status Consume(const ResolvedShard& shard) override {
    return Time([&] { return inner_->Consume(shard); });
  }
  Status Finish() override {
    return Time([&] { return inner_->Finish(); });
  }

  double seconds() const {
    std::lock_guard<std::mutex> lock(mu_);
    return seconds_;
  }

 private:
  template <typename Call>
  Status Time(Call&& call) {
    const Clock::time_point start = Clock::now();
    Status status = call();
    const double seconds = SecondsSince(start);
    {
      std::lock_guard<std::mutex> lock(mu_);
      seconds_ += seconds;
    }
    tracer_->Add(name_, "sink", start, seconds);
    return status;
  }

  RowSink* inner_;
  std::string name_;
  Tracer* tracer_;
  mutable std::mutex mu_;
  double seconds_ = 0.0;
};

// ---------------------------------------------------------------------------
// Solves.

struct StreamPaths {
  std::string stream;
  std::string manifest;

  void Remove() const {
    std::remove(stream.c_str());
    std::remove(manifest.c_str());
  }
};

StreamPaths PathsFor(const std::string& dir, const char* tag) {
  const std::string stream = dir + "/" + tag + ".stream";
  return {stream, stream + ".manifest"};
}

/// One solve through the public API, as a user runs it.
StatusOr<Solution> SolveOnce(const Dataset& d, const Workload& w,
                             const SolverOptions& options,
                             const StreamPaths& paths) {
  const datagen::CensusData& in = d.data;
  CEXTEND_ASSIGN_OR_RETURN(
      PlannedCExtension planned,
      PlanCExtension(in.persons, in.housing, in.names, d.ccs, d.dcs, options));
  if (!w.durable) {
    return ExecuteCExtensionPlan(std::move(planned), in.persons, in.housing,
                                 in.names, d.dcs, options);
  }
  DurableStreamSpec spec;
  spec.stream_path = paths.stream;
  spec.manifest_path = paths.manifest;
  return ExecuteCExtensionPlanDurable(std::move(planned), in.persons,
                                      in.housing, in.names, d.dcs, spec,
                                      options);
}

struct ExecTimes {
  double execute_s = 0.0;
  double consume_s = 0.0;       ///< TableSink calls
  double stream_write_s = 0.0;  ///< TextStreamSink calls under the durable sink
  double commit_s = 0.0;        ///< DurableStreamSink calls minus the above
  Phase2Stats stats;
};

/// ExecutePlan into `table`; with `paths`, through the stack
/// ExecutePlanDurable assembles (DurableFile + TextStreamSink +
/// DurableStreamSink, teed with the table sink). Every sink is wrapped in a
/// TimedSink. File creation counts towards execute_s, as it does inside
/// ExecutePlanDurable.
Status ExecuteStack(const PreparedPlan& prepared, const Phase2Options& options,
                    TableSink* table, const StreamPaths* paths,
                    const std::string& span_name, Tracer* tracer,
                    ExecTimes* out) {
  TimedSink timed_table(table, "sink.consume", tracer);
  Span span(tracer, span_name);
  if (paths == nullptr) {
    CEXTEND_ASSIGN_OR_RETURN(out->stats,
                             ExecutePlan(prepared, options, &timed_table));
  } else {
    CEXTEND_ASSIGN_OR_RETURN(std::unique_ptr<DurableFile> data,
                             DurableFile::Create(paths->stream));
    CEXTEND_ASSIGN_OR_RETURN(std::unique_ptr<DurableFile> manifest,
                             DurableFile::Create(paths->manifest));
    TextStreamSink text(data->stream());
    TimedSink timed_text(&text, "durable.stream_write", tracer);
    DurableStreamSink durable(&timed_text, data.get(), manifest.get(),
                              prepared, /*resume=*/nullptr);
    TimedSink timed_durable(&durable, "durable.sink", tracer);
    TeeSink tee(&timed_durable, &timed_table);
    CEXTEND_ASSIGN_OR_RETURN(out->stats, ExecutePlan(prepared, options, &tee));
    out->stream_write_s = timed_text.seconds();
    out->commit_s = timed_durable.seconds() - out->stream_write_s;
  }
  out->execute_s = span.End();
  out->consume_s = timed_table.seconds();
  return Status::Ok();
}

using Sample = std::map<std::string, double>;
/// (what produced it, output digest)
using Digests = std::vector<std::pair<std::string, uint64_t>>;

/// One traced solve: the library calls PlanCExtension and
/// ExecuteCExtensionPlan[Durable] make, one at a time, each timed here; then
/// standalone probes of single layers. Fills `sample` with the per-layer
/// metrics and `digests` with every output it produced.
Status TracedSolve(const Dataset& d, const Workload& w,
                   const SolverOptions& options, const std::string& tmp_dir,
                   Tracer* tracer, Sample* sample, Digests* digests) {
  const datagen::CensusData& in = d.data;
  const PairSchema& names = in.names;
  const Phase2Options& p2 = options.phase2;
  Sample& s = *sample;
  const StreamPaths traced_paths = PathsFor(tmp_dir, "traced");
  const StreamPaths* paths = w.durable ? &traced_paths : nullptr;

  ResetPeakRss();
  Span solve(tracer, "solve");
  Span make(tracer, "join_view.make");
  CEXTEND_ASSIGN_OR_RETURN(Table v_join,
                           MakeJoinView(in.persons, in.housing, names));
  s["join_view.make_s"] = make.End();

  Span hybrid(tracer, "phase1.hybrid");
  CEXTEND_ASSIGN_OR_RETURN(
      HybridResult phase1,
      RunHybridPhase1(v_join, in.housing, names, d.ccs, d.dcs,
                      options.phase1));
  const double hybrid_s = hybrid.End();
  const HybridStats& hs = phase1.stats;
  const std::pair<const char*, double> children[] = {
      {"phase1.pairwise", hs.pairwise_seconds},
      {"phase1.binning", hs.binning_seconds},
      {"phase1.recursion", hs.recursion_seconds},
      {"phase1.ilp", hs.ilp_seconds},
      {"phase1.final_fill", hs.final_fill_seconds},
  };
  double offset_us = tracer->OffsetUs(hybrid.start());
  double children_s = 0.0;
  for (const auto& [name, seconds] : children) {
    s[std::string(name) + "_s"] = seconds;
    tracer->AddAt(name, "program-reported", offset_us, seconds,
                  "\"source\": \"HybridStats\"");
    offset_us += seconds * 1e6;
    children_s += seconds;
  }
  s["phase1.hybrid_s"] = hybrid_s;
  s["phase1.unattributed_s"] = hybrid_s - children_s;
  tracer->AddAt("phase1.unattributed", "unattributed", offset_us,
                std::max(0.0, hybrid_s - children_s), "");
  s["ilp.bnb_nodes"] = static_cast<double>(hs.ilp.bnb_nodes);
  s["ilp.lp_iterations"] = static_cast<double>(hs.ilp.lp_iterations);
  s["ilp.components"] = static_cast<double>(hs.ilp.num_components);
  s["ilp.largest_component"] = static_cast<double>(hs.ilp.largest_component);
  s["ilp.cold_fallbacks"] = static_cast<double>(hs.ilp.cold_fallbacks);

  SynthesisPlanOptions plan_options;
  plan_options.seed = p2.seed;
  plan_options.num_shards = p2.num_shards;
  plan_options.num_threads_hint = p2.num_threads;
  Span build(tracer, "plan.build");
  CEXTEND_ASSIGN_OR_RETURN(
      SynthesisPlan plan,
      BuildSynthesisPlan(v_join, in.housing, names, d.ccs,
                         phase1.invalid_rows, plan_options, &phase1.combos));
  s["plan.build_s"] = build.End();
  s["mem.rss_after_plan_mb"] = PeakRssMb();

  Span prepare(tracer, "plan.prepare");
  CEXTEND_ASSIGN_OR_RETURN(
      PreparedPlan prepared,
      PreparePlan(plan, v_join, in.housing, names, d.dcs));
  s["plan.prepare_s"] = prepare.End();

  Span table_init(tracer, "sink.table_init");
  TableSink table(in.persons, in.housing, names);
  s["sink.table_init_s"] = table_init.End();

  ExecTimes ex;
  CEXTEND_RETURN_IF_ERROR(ExecuteStack(prepared, p2, &table, paths,
                                       "executor.execute", tracer, &ex));
  s["mem.rss_after_execute_mb"] = PeakRssMb();
  const double execute_unattributed =
      ex.execute_s - ex.consume_s - ex.stream_write_s - ex.commit_s;
  const double solve_s = solve.End(
      "\"executor.unattributed_s\": " + std::to_string(execute_unattributed));

  s["solve.traced_s"] = solve_s;
  s["solve.unattributed_s"] =
      solve_s - (s["join_view.make_s"] + hybrid_s + s["plan.build_s"] +
                 s["plan.prepare_s"] + s["sink.table_init_s"] + ex.execute_s);
  s["executor.execute_s"] = ex.execute_s;
  s["executor.unattributed_s"] = execute_unattributed;
  s["executor.skipped_vertices"] =
      static_cast<double>(ex.stats.skipped_vertices);
  s["executor.max_shards_in_flight"] =
      static_cast<double>(ex.stats.max_shards_in_flight);
  s["sink.consume_s"] = ex.consume_s;
  s["plan.bytes"] = static_cast<double>(plan.Serialize().size());
  s["plan.partitions"] = static_cast<double>(prepared.partitions.size());
  s["plan.shards"] = static_cast<double>(plan.num_shards());
  s["plan.invalid_rows"] = static_cast<double>(plan.invalid_rows.size());
  CEXTEND_ASSIGN_OR_RETURN(
      uint64_t digest,
      DigestOutput(table.r1_hat(), table.r2_hat(), v_join,
                   w.durable ? traced_paths.stream : ""));
  digests->push_back({"traced solve", digest});

  // Standalone probes of single layers; not part of the solve above.
  Span classify(tracer, "probe.constraints.classify");
  CEXTEND_ASSIGN_OR_RETURN(
      CcRelationMatrix relations,
      ClassifyAll(d.ccs, v_join.schema(), in.housing.schema()));
  s["constraints.classify_s"] = classify.End();

  Span binning(tracer, "probe.binning.create");
  CEXTEND_ASSIGN_OR_RETURN(Binning bins,
                           Binning::Create(v_join, names.r1_attrs, d.ccs));
  s["binning.create_s"] = binning.End();

  Span combo(tracer, "probe.join_view.combo_index");
  CEXTEND_ASSIGN_OR_RETURN(ComboIndex combos,
                           ComboIndex::Build(in.housing, names));
  s["join_view.combo_index_s"] = combo.End();

  double emit_sum = 0.0;
  double emit_max = 0.0;
  for (size_t shard = 0; shard < prepared.num_shards(); ++shard) {
    Span emit(tracer, "probe.executor.emit_shard");
    CEXTEND_ASSIGN_OR_RETURN(ShardOutput output,
                             EmitShard(prepared, shard, p2));
    const double seconds =
        emit.End("\"shard\": " + std::to_string(shard));
    emit_sum += seconds;
    emit_max = std::max(emit_max, seconds);
  }
  const double emit_mean =
      prepared.num_shards() == 0
          ? 0.0
          : emit_sum / static_cast<double>(prepared.num_shards());
  s["executor.emit_s_sum"] = emit_sum;
  s["executor.emit_s_max"] = emit_max;
  s["executor.emit_skew"] = emit_mean > 0.0 ? emit_max / emit_mean : 0.0;

  // The same execution at one thread: the speedup, and the same bytes.
  Phase2Options one_thread = p2;
  one_thread.num_threads = 1;
  const StreamPaths paths_1t = PathsFor(tmp_dir, "traced_1t");
  TableSink table_1t(in.persons, in.housing, names);
  ExecTimes ex_1t;
  CEXTEND_RETURN_IF_ERROR(ExecuteStack(prepared, one_thread, &table_1t,
                                       w.durable ? &paths_1t : nullptr,
                                       "probe.executor.execute_1t", tracer,
                                       &ex_1t));
  s["executor.speedup_4t"] = ex_1t.execute_s / ex.execute_s;
  CEXTEND_ASSIGN_OR_RETURN(
      uint64_t digest_1t,
      DigestOutput(table_1t.r1_hat(), table_1t.r2_hat(), v_join,
                   w.durable ? paths_1t.stream : ""));
  digests->push_back({"1-thread execute", digest_1t});

  // Durable streaming on this workload's plan. The durable workload's traced
  // solve already ran the assembled stack; the others run it here.
  ExecTimes stack = ex;
  const StreamPaths stack_probe_paths = PathsFor(tmp_dir, "stack_probe");
  const StreamPaths& stack_paths =
      w.durable ? traced_paths : stack_probe_paths;
  if (!w.durable) {
    TableSink table_stack(in.persons, in.housing, names);
    CEXTEND_RETURN_IF_ERROR(ExecuteStack(prepared, p2, &table_stack,
                                         &stack_paths, "probe.durable.stack",
                                         tracer, &stack));
    CEXTEND_ASSIGN_OR_RETURN(
        uint64_t digest_stack,
        DigestOutput(table_stack.r1_hat(), table_stack.r2_hat(), v_join, ""));
    digests->push_back({"durable stack", digest_stack});
  }
  s["durable.stream_write_s"] = stack.stream_write_s;
  s["durable.commit_s"] = stack.commit_s;

  const StreamPaths api_paths = PathsFor(tmp_dir, "api");
  DurableStreamSpec spec;
  spec.stream_path = api_paths.stream;
  spec.manifest_path = api_paths.manifest;
  TableSink table_api(in.persons, in.housing, names);
  Span durable(tracer, "probe.durable.execute");
  CEXTEND_ASSIGN_OR_RETURN(
      Phase2Stats stats, ExecutePlanDurable(prepared, p2, spec, &table_api));
  s["durable.execute_s"] = durable.End();
  CEXTEND_ASSIGN_OR_RETURN(std::string api_bytes, ReadFile(api_paths.stream));
  CEXTEND_ASSIGN_OR_RETURN(std::string stack_bytes,
                           ReadFile(stack_paths.stream));
  if (api_bytes != stack_bytes) {
    return Status::Internal(
        "ExecutePlanDurable wrote other bytes than the assembled stack");
  }
  const double bytes = static_cast<double>(api_bytes.size());
  s["durable.manifest_commits"] = static_cast<double>(stats.manifest_commits);
  s["durable.stream_bytes"] = bytes;
  s["durable.stream_bytes_per_row"] =
      bytes / static_cast<double>(in.persons.NumRows());
  CEXTEND_ASSIGN_OR_RETURN(
      uint64_t digest_api,
      DigestOutput(table_api.r1_hat(), table_api.r2_hat(), v_join,
                   w.durable ? api_paths.stream : ""));
  digests->push_back({"ExecutePlanDurable", digest_api});
  for (const StreamPaths* p :
       {&traced_paths, &paths_1t, &stack_probe_paths, &api_paths}) {
    p->Remove();
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Result record.

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

const char* UnitOf(const std::string& name) {
  auto ends_with = [&](const char* suffix) {
    const size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends_with("_mb")) return "MB";
  if (ends_with("_per_row")) return "B/row";
  if (ends_with(".bytes") || ends_with("_bytes")) return "B";
  if (ends_with("speedup_4t") || ends_with("skew")) return "x";
  if (ends_with("cc_error_mean")) return "frac";
  if (ends_with("_s") || ends_with("_s_sum") || ends_with("_s_max")) {
    return "s";
  }
  return "count";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    line += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------

int Usage() {
  std::fprintf(stderr,
               "usage: solve_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] [--scale-mult X] "
               "[--plant-fault]\nworkloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--plant-fault") {
      args->plant_fault = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
      if (!args->trace && std::strcmp(value, "0") != 0) return false;
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--scale-mult") {
      args->scale_mult = std::strtod(value, &end);
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == value)) return false;
  }
  return !args->workload.empty() && args->seconds >= 0.0 &&
         args->scale_mult > 0.0;
}

int Run(const Args& args) {
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (args.workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) return Usage();
  const std::string tmp_dir = args.out_dir + "/tmp";
  std::filesystem::create_directories(tmp_dir);

  // Set-up, repeated; every repeat must generate identical inputs.
  std::vector<double> setup_s, census_s, ccs_s;
  std::optional<Dataset> dataset;
  uint64_t input_digest = 0;
  for (int i = 0; i < kSetupRepeats; ++i) {
    dataset.reset();
    SetupTimes times;
    StatusOr<Dataset> made = MakeDataset(*w, args, &times);
    if (!made.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   made.status().ToString().c_str());
      return 1;
    }
    dataset.emplace(std::move(made).value());
    setup_s.push_back(times.total_s);
    census_s.push_back(times.census_s);
    ccs_s.push_back(times.ccs_s);
    uint64_t digest = DigestTable(DigestTable(0, dataset->data.persons),
                                  dataset->data.housing);
    for (const CardinalityConstraint& cc : dataset->ccs) {
      digest = MixHash64(digest, static_cast<uint64_t>(cc.target));
    }
    if (i > 0 && digest != input_digest) {
      std::fprintf(stderr, "set-up is not deterministic for seed %llu\n",
                   static_cast<unsigned long long>(args.seed));
      return 1;
    }
    input_digest = digest;
  }
  const Dataset& d = *dataset;
  const size_t persons = d.data.persons.NumRows();
  const SolverOptions options = MakeSolverOptions(*w, kThreads);
  const StreamPaths paths = PathsFor(tmp_dir, "solve");

  size_t attempted = 0;
  size_t failed = 0;
  std::string first_error;
  auto fail = [&](const std::string& what) {
    ++failed;
    if (first_error.empty()) first_error = what;
  };

  // Warm-up solve (untimed): lazy set-up finishes, and its output is the
  // reference every later output must reproduce.
  paths.Remove();
  uint64_t reference = 0;
  bool reference_ok = false;
  CheckSummary check;
  size_t new_r2_tuples = 0;
  {
    ++attempted;
    StatusOr<Solution> solution = SolveOnce(d, *w, options, paths);
    if (!solution.ok()) {
      std::fprintf(stderr, "warm-up solve failed: %s\n",
                   solution.status().ToString().c_str());
      return 1;
    }
    new_r2_tuples = solution->stats.phase2.new_r2_tuples;
    Status checked = CheckOutput(d, solution->r1_hat, solution->r2_hat,
                                 solution->v_join, w->dc_check, &check);
    StatusOr<uint64_t> digest =
        DigestOutput(solution->r1_hat, solution->r2_hat, solution->v_join,
                     w->durable ? paths.stream : "");
    if (!checked.ok() || !digest.ok()) {
      fail("output check: " +
           (checked.ok() ? digest.status() : checked).ToString());
    } else {
      reference = *digest;
      reference_ok = true;
    }
    if (args.plant_fault) {
      ++attempted;
      StatusOr<Table> planted = PlantWrongFk(solution->r1_hat,
                                             solution->v_join, d.data.names);
      CheckSummary ignored;
      if (!planted.ok() ||
          !CheckOutput(d, *planted, solution->r2_hat, solution->v_join,
                       w->dc_check, &ignored)
               .ok()) {
        fail("planted wrong FK");
      }
    }
  }
  auto check_digest = [&](const char* what, StatusOr<uint64_t> digest) {
    if (!digest.ok()) {
      fail(std::string(what) + ": " + digest.status().ToString());
    } else if (!reference_ok || *digest != reference) {
      fail(std::string(what) + ": output differs from the checked output");
    }
  };

  std::vector<double> solve_times;
  std::vector<double> solve_rss_mb;  ///< process peak RSS during each solve
  std::vector<double> traced_times;
  std::vector<Sample> samples;
  Tracer tracer;
  const Clock::time_point loop_start = Clock::now();
  while (SecondsSince(loop_start) < args.seconds ||
         solve_times.size() < (args.trace ? 1 : kMinSolves)) {
    paths.Remove();
    ++attempted;
    {
      ResetPeakRss();
      const Clock::time_point start = Clock::now();
      StatusOr<Solution> solution = SolveOnce(d, *w, options, paths);
      const double seconds = SecondsSince(start);
      if (!solution.ok()) {
        fail("solve: " + solution.status().ToString());
        continue;
      }
      solve_times.push_back(seconds);
      solve_rss_mb.push_back(PeakRssMb());
      check_digest("solve",
                   DigestOutput(solution->r1_hat, solution->r2_hat,
                                solution->v_join,
                                w->durable ? paths.stream : ""));
    }
    if (!args.trace) continue;

    Sample sample;
    Digests digests;
    Status traced =
        TracedSolve(d, *w, options, tmp_dir, &tracer, &sample, &digests);
    for (const auto& [what, digest] : digests) {
      ++attempted;
      check_digest(what.c_str(), digest);
    }
    if (!traced.ok()) {
      ++attempted;
      fail("traced solve: " + traced.ToString());
      continue;
    }
    traced_times.push_back(sample["solve.traced_s"]);
    samples.push_back(std::move(sample));
  }
  std::error_code ignored;
  std::filesystem::remove_all(tmp_dir, ignored);

  std::vector<Metric> metrics;
  std::sort(solve_times.begin(), solve_times.end());
  const double p50 = Median(solve_times);
  if (!args.trace) {
    // Highest percentile with at least kTailBeyond solves beyond it.
    const size_t n = solve_times.size();
    const size_t tail_idx = n > kTailBeyond ? n - kTailBeyond - 1 : n - 1;
    const double tail_pct =
        100.0 * static_cast<double>(tail_idx + 1) / static_cast<double>(n);
    // The tail is stated on the record line, not gated: a minute of load
    // elsewhere on the host moves it by more than the largest bound allowed.
    std::printf("# %s seed=%llu persons=%zu ccs=%zu solves=%zu "
                "solve_s_tail=%.6f s at p%.1f (%zu solves beyond it)\n",
                w->name, static_cast<unsigned long long>(args.seed), persons,
                d.ccs.size(), n, n == 0 ? 0.0 : solve_times[tail_idx],
                tail_pct, n - tail_idx - 1);
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"solve_s_p50", p50, "s"},
        {"rows_per_s", p50 > 0.0 ? static_cast<double>(persons) / p50 : 0.0,
         "1/s"},
        {"peak_rss_mb", Median(solve_rss_mb), "MB"},
        {"cc_exact_frac", check.cc_exact_frac, "frac"},
        {"new_r2_tuples", static_cast<double>(new_r2_tuples), "count"},
        {"ok_frac",
         static_cast<double>(attempted - failed) /
             static_cast<double>(attempted),
         "frac"},
    };
  } else {
    // Medians over the traced solves (counts repeat exactly).
    Sample layers;
    if (!samples.empty()) {
      for (const auto& entry : samples.front()) {
        std::vector<double> values;
        for (const Sample& sample : samples) {
          values.push_back(sample.at(entry.first));
        }
        layers[entry.first] = Median(values);
      }
    }
    layers["datagen.census_s"] = Median(census_s);
    layers["datagen.ccs_s"] = Median(ccs_s);
    layers["trace.overhead_s"] = Median(traced_times) - p50;
    layers["check.cc_error_mean"] = check.cc_error_mean;
    const std::string trace_path = args.out_dir + "/trace-" + w->name +
                                   "-seed" + std::to_string(args.seed) +
                                   ".json";
    if (!tracer.Write(trace_path)) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      return 1;
    }
    std::printf("# %s seed=%llu persons=%zu ccs=%zu traced_solves=%zu "
                "untraced_solves=%zu trace=%s\n",
                w->name, static_cast<unsigned long long>(args.seed), persons,
                d.ccs.size(), samples.size(), solve_times.size(),
                trace_path.c_str());
    for (const auto& [name, value] : layers) {
      metrics.push_back({name, value, UnitOf(name)});
    }
  }
  if (!first_error.empty()) {
    std::fprintf(stderr, "FAILED (%zu of %zu): %s\n", failed, attempted,
                 first_error.c_str());
  }
  PrintResult(failed == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace cextend

int main(int argc, char** argv) {
  cextend::perfbench::Args args;
  if (!cextend::perfbench::ParseArgs(argc, argv, &args)) {
    return cextend::perfbench::Usage();
  }
  return cextend::perfbench::Run(args);
}
