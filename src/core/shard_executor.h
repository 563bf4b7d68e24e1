// The shard executor: streams phase 2 out of a SynthesisPlan under a
// bounded-memory admission policy (see src/core/README.md "Streaming &
// sharding").
//
// A shard covers a contiguous range of the partition worklist. EmitShard is a
// pure function of (prepared plan, shard id): per-partition RNG streams
// derive from plan.seed and the *global* worklist index, and fresh keys are
// provisional (shard-local) until retirement, so a shard can be emitted in
// any process, in any order, any number of times — shard loss is repaired by
// re-emission, never by restarting the run.
//
// ExecutePlan drives emission with at most `max_resident_shards` shards in
// flight; shards retire to the RowSink strictly in shard order, which is when
// provisional fresh keys are renumbered into the global sequence. Because the
// worklist order, per-partition streams, and renumbering order are all
// independent of the shard map and the thread count, the concatenated sink
// stream is byte-identical to the monolithic solve for the same seed.

#ifndef CEXTEND_CORE_SHARD_EXECUTOR_H_
#define CEXTEND_CORE_SHARD_EXECUTOR_H_

#include <cstdint>
#include <iosfwd>
#include <utility>
#include <vector>

#include "core/phase2.h"
#include "core/plan.h"
#include "relational/table.h"
#include "util/statusor.h"

namespace cextend {

/// One colored join-view row. Keys >= the plan's fresh base are provisional
/// (shard-local) in a ShardOutput and final (globally renumbered) in a
/// ResolvedShard.
struct ShardRow {
  uint32_t row;
  int64_t key;
  bool operator==(const ShardRow&) const = default;
};

/// Raw output of EmitShard: one block per partition, in worklist order.
/// `num_fresh` counts the provisional keys the partition drew (all carrying
/// the partition's combo); provisional values are fresh_base + a shard-local
/// counter, consecutive across the shard's blocks in order.
struct ShardOutput {
  size_t shard_id = 0;
  struct Block {
    uint64_t worklist_idx;
    size_t partition;  ///< index into PreparedPlan::partitions
    std::vector<ShardRow> rows;
    uint64_t num_fresh = 0;
    bool operator==(const Block&) const = default;
  };
  std::vector<Block> blocks;
  // Per-shard degradation/ladder accounting, merged at retirement.
  size_t skipped_vertices = 0;
  size_t naive_oracle_fallbacks = 0;
  size_t csr_partitions = 0;
  size_t conflict_buckets = 0;
  size_t materialized_pairs = 0;

  /// Estimated resident footprint, for the executor's memory accounting.
  size_t ApproxBytes() const;

  /// Field-wise; the shard-purity tests compare shards emitted from an
  /// in-process plan and from a deserialized one.
  bool operator==(const ShardOutput&) const = default;
};

/// A retired shard: final keys, plus the new R2 tuples its fresh keys mint.
/// Blocks stay per-partition so sink bytes never depend on the shard map.
/// The repair stage retires as one extra ResolvedShard (shard_id =
/// plan.num_shards()) with a single block of worklist_idx = kRepairBlock.
struct ResolvedShard {
  static constexpr uint64_t kRepairBlock = UINT64_MAX;
  struct NewTuple {
    int64_t key;
    std::vector<int64_t> combo;
    bool operator==(const NewTuple&) const = default;
  };
  struct Block {
    uint64_t worklist_idx;
    std::vector<ShardRow> rows;        ///< final keys
    std::vector<NewTuple> new_tuples;  ///< keys ascending
    bool operator==(const Block&) const = default;
  };
  size_t shard_id = 0;
  std::vector<Block> blocks;
  bool operator==(const ResolvedShard&) const = default;
};

/// Where retired shards go. Consume is called strictly in shard order
/// (partition blocks in worklist order, repair last), exactly once per shard,
/// from one thread at a time. Any non-OK status aborts the run.
class RowSink {
 public:
  virtual ~RowSink() = default;
  virtual Status Begin(const PreparedPlan& /*prepared*/) {
    return Status::Ok();
  }
  virtual Status Consume(const ResolvedShard& shard) = 0;
  virtual Status Finish() { return Status::Ok(); }
};

/// In-memory sink for the table-returning API: clones R1/R2 up front,
/// writes FK cells and appends new R2 tuples as shards retire. Finish
/// verifies every join view row received a key.
class TableSink : public RowSink {
 public:
  TableSink(const Table& r1, const Table& r2, const PairSchema& names);

  Status Begin(const PreparedPlan& prepared) override;
  Status Consume(const ResolvedShard& shard) override;
  Status Finish() override;

  Table& r1_hat() { return r1_hat_; }
  Table& r2_hat() { return r2_hat_; }
  size_t new_r2_tuples() const { return new_r2_tuples_; }

 private:
  Table r1_hat_;
  Table r2_hat_;
  size_t fk_col_ = 0;
  size_t k2_col_ = 0;
  std::vector<size_t> b_cols_r2_;
  size_t rows_written_ = 0;
  size_t expected_rows_ = 0;
  size_t new_r2_tuples_ = 0;
};

/// Buffered text sink for the CLI streaming mode. Format (one record per
/// line, LF-terminated, dictionary codes as decimal):
///
///   cextend-stream v1 rows=<n> b=<q> seed=<seed>
///   r <join view row> <key>
///   n <key> <b0 code> ... <bq-1 code>
///   end rows=<rows written> new=<tuples written>
///
/// No shard or block framing appears in the stream, so the bytes are
/// identical for every (shard count, max_resident_shards, thread count).
/// Every write is checked: a failbit/short write surfaces as an Internal
/// Status from the call that hit it, and the failure is sticky — later calls
/// return the same status instead of writing past the corruption.
class TextStreamSink : public RowSink {
 public:
  explicit TextStreamSink(std::ostream& out) : out_(out) {}

  /// Seeds the trailer counters when resuming over a durable prefix that
  /// already holds `rows` row records and `tuples` new-tuple records, so the
  /// resumed trailer equals the uninterrupted one.
  void ResumeCounts(size_t rows, size_t tuples) {
    rows_written_ = rows;
    tuples_written_ = tuples;
  }

  Status Begin(const PreparedPlan& prepared) override;
  Status Consume(const ResolvedShard& shard) override;
  Status Finish() override;

  size_t rows_written() const { return rows_written_; }
  size_t tuples_written() const { return tuples_written_; }

 private:
  Status Fail(const char* what);

  std::ostream& out_;
  Status status_;  ///< sticky first failure
  size_t rows_written_ = 0;
  size_t tuples_written_ = 0;
};

/// Forwards every call to both sinks (CLI: stream to disk *and* keep tables
/// for verification/summary).
class TeeSink : public RowSink {
 public:
  TeeSink(RowSink* a, RowSink* b) : a_(a), b_(b) {}

  Status Begin(const PreparedPlan& prepared) override;
  Status Consume(const ResolvedShard& shard) override;
  Status Finish() override;

 private:
  RowSink* a_;
  RowSink* b_;
};

/// Emits one shard: colors every partition in the shard's worklist range
/// (or random-assigns when options.random_assignment). Keys >= fresh_base in
/// the result are provisional. A pure function of (plan, shard id), so a
/// failure repeats on a re-emission. Runs entirely on the calling thread;
/// options.num_threads is not read here.
StatusOr<ShardOutput> EmitShard(const PreparedPlan& prepared, size_t shard_id,
                                const Phase2Options& options);

/// Restart state for ExecutePlan when resuming over a durable prefix (see
/// src/core/stream_checkpoint.h, which derives one from a CXMF manifest).
/// Default-constructed = a fresh run. Because shards are pure functions of
/// (plan, shard id) and renumbering is in retirement order, an execution
/// resumed from this state produces exactly the bytes the uninterrupted run
/// would have appended after the checkpoint.
struct ExecuteResume {
  /// First shard to emit; shards [0, first_shard) count as already retired
  /// through the sink.
  size_t first_shard = 0;
  /// Fresh-key counter after the retired prefix (< 0 = prepared.fresh_base).
  int64_t next_key = -1;
  /// True when the repair stage also retired before the checkpoint — only
  /// the sink trailer (Finish) remains.
  bool repair_done = false;
  /// Retained (row, key) colors of repair-target partitions from the retired
  /// prefix, in retirement order.
  std::vector<std::pair<uint32_t, int64_t>> repair_colors;
};

/// Runs every shard plus the repair stage through `sink` under the bounded
/// admission policy: at most max(1, options.max_resident_shards) shards in
/// flight (0 = unbounded), retired strictly in shard order. Emission
/// parallelism = min(threads, shards, window), and those shard workers are
/// the only threads phase 2 runs on: the calling thread is one of them
/// (util/parallel.h), and the repair stage runs serially on it after the
/// others join. The first shard whose emission fails fails the run.
/// Timings, ladder counters, and memory high-water marks are returned in the stats. `resume` restarts the run at
/// resume.first_shard with the checkpointed fresh-key counter and repair
/// colors; stats then cover only the work actually redone (except
/// new_r2_tuples, which stays the whole-run total).
StatusOr<Phase2Stats> ExecutePlan(const PreparedPlan& prepared,
                                  const Phase2Options& options, RowSink* sink,
                                  const ExecuteResume& resume = {});

}  // namespace cextend

#endif  // CEXTEND_CORE_SHARD_EXECUTOR_H_
