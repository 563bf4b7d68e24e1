#include "core/shard_executor.h"

#include <algorithm>
#include <condition_variable>
#include <memory>
#include <ostream>
#include <span>
#include <unordered_map>

#include "core/conflict.h"
#include "graph/list_coloring.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

namespace cextend {
namespace {

/// Shared state of the bounded-memory emission loop. One mutex guards the
/// admission window (next_admit/next_retire and the derived in-flight HWM),
/// the resident-byte accounting, the completed-shard buffer, and the ordered
/// retirement through the sink; the thread-safety analysis enforces that no
/// worker touches any of it without holding `mu`.
struct ExecState {
  Mutex mu;
  std::condition_variable cv;
  size_t next_admit GUARDED_BY(mu) = 0;
  size_t next_retire GUARDED_BY(mu) = 0;
  size_t resident_bytes GUARDED_BY(mu) = 0;
  int64_t next_key GUARDED_BY(mu) = 0;
  std::vector<size_t> charged GUARDED_BY(mu);
  std::vector<std::unique_ptr<ShardOutput>> completed GUARDED_BY(mu);
  std::unordered_map<uint32_t, int64_t> repair_colors GUARDED_BY(mu);
  Phase2Stats stats GUARDED_BY(mu);
  Status first_error GUARDED_BY(mu);
};

/// Renumbers a completed shard's provisional fresh keys into the global key
/// sequence starting at `*next_key` and mints the new R2 tuples. Provisional
/// values are fresh_base + the shard-local allocation index, so the offset
/// doubles as the allocation-order position — renumbering in shard order
/// reproduces the monolithic solver's worklist-order renumbering exactly.
ResolvedShard ResolveShard(const PreparedPlan& prepared,
                           const ShardOutput& out, int64_t* next_key) {
  ResolvedShard shard;
  shard.shard_id = out.shard_id;
  const int64_t fresh_base = prepared.fresh_base;
  const int64_t shard_first = *next_key;
  int64_t assigned = 0;
  shard.blocks.reserve(out.blocks.size());
  for (const ShardOutput::Block& block : out.blocks) {
    ResolvedShard::Block rb;
    rb.worklist_idx = block.worklist_idx;
    rb.rows.reserve(block.rows.size());
    for (ShardRow r : block.rows) {
      if (r.key >= fresh_base) r.key = shard_first + (r.key - fresh_base);
      rb.rows.push_back(r);
    }
    const std::vector<int64_t>& combo =
        prepared.partitions[block.partition].combo;
    rb.new_tuples.reserve(block.num_fresh);
    for (uint64_t i = 0; i < block.num_fresh; ++i) {
      rb.new_tuples.push_back(
          ResolvedShard::NewTuple{shard_first + assigned, combo});
      ++assigned;
    }
    shard.blocks.push_back(std::move(rb));
  }
  *next_key = shard_first + assigned;
  return shard;
}

}  // namespace

size_t ShardOutput::ApproxBytes() const {
  size_t bytes = sizeof(ShardOutput) + blocks.capacity() * sizeof(Block);
  for (const Block& b : blocks) bytes += b.rows.capacity() * sizeof(ShardRow);
  return bytes;
}

// ---- TableSink ----

TableSink::TableSink(const Table& r1, const Table& r2, const PairSchema& names)
    : r1_hat_(r1.Clone()), r2_hat_(r2.Clone()) {
  fk_col_ = r1.schema().IndexOrDie(names.fk);
  k2_col_ = r2.schema().IndexOrDie(names.key2);
  for (const std::string& b : names.r2_attrs) {
    b_cols_r2_.push_back(r2.schema().IndexOrDie(b));
  }
  // PreparePlan's fresh_base over the same R2, for a sink fed without Begin.
  for (int64_t key : r2.ColumnCodes(k2_col_)) {
    fresh_base_ = std::max(fresh_base_, key + 1);
  }
}

Status TableSink::Begin(const PreparedPlan& prepared) {
  expected_rows_ = prepared.plan->num_rows;
  fresh_base_ = prepared.fresh_base;
  return Status::Ok();
}

Status TableSink::Consume(const ResolvedShard& shard) {
  std::vector<int64_t> codes(r2_hat_.schema().NumColumns());
  for (const ResolvedShard::Block& block : shard.blocks) {
    for (ShardRow r : block.rows) {
      if (r.row >= r1_hat_.NumRows() || r.key == kNoColor) {
        return Status::InvalidArgument(
            "invalid row record: row " + std::to_string(r.row) + " (R1 has " +
            std::to_string(r1_hat_.NumRows()) + "), key " +
            std::to_string(r.key));
      }
      r1_hat_.SetCode(r.row, fk_col_, r.key);
      ++rows_written_;
    }
    for (const ResolvedShard::NewTuple& t : block.new_tuples) {
      if (t.combo.size() != b_cols_r2_.size()) {
        return Status::InvalidArgument(
            "new tuple " + std::to_string(t.key) + " has " +
            std::to_string(t.combo.size()) + " B codes, expected " +
            std::to_string(b_cols_r2_.size()));
      }
      codes.assign(r2_hat_.schema().NumColumns(), kNullCode);
      codes[k2_col_] = t.key;
      for (size_t i = 0; i < b_cols_r2_.size(); ++i) {
        const std::shared_ptr<Dictionary>& dict =
            r2_hat_.dictionary(b_cols_r2_[i]);
        if (dict != nullptr && t.combo[i] != kNullCode &&
            (t.combo[i] < 0 || t.combo[i] >= dict->size())) {
          return Status::InvalidArgument(
              "new tuple " + std::to_string(t.key) + " has B code " +
              std::to_string(t.combo[i]) + " outside its dictionary");
        }
        codes[b_cols_r2_[i]] = t.combo[i];
      }
      // Fresh keys are handed out in retirement order, so the n-th new tuple
      // carries fresh_base + n; any other key would repeat or skip one.
      const int64_t expected_key =
          fresh_base_ + static_cast<int64_t>(new_r2_tuples_);
      if (t.key != expected_key) {
        return Status::InvalidArgument(
            "new tuple key " + std::to_string(t.key) +
            " is not the next fresh key " + std::to_string(expected_key));
      }
      r2_hat_.AppendRowCodes(codes);
      ++new_r2_tuples_;
    }
  }
  return Status::Ok();
}

Status TableSink::Finish() {
  if (rows_written_ != expected_rows_) {
    return Status::Internal("shard executor retired " +
                            std::to_string(rows_written_) + " rows, expected " +
                            std::to_string(expected_rows_));
  }
  return Status::Ok();
}

// ---- TextStreamSink ----

Status TextStreamSink::Fail(const char* what) {
  if (status_.ok()) {
    status_ = Status::Internal(std::string("stream write failed (") + what +
                               "): short write or stream failbit");
  }
  return status_;
}

Status TextStreamSink::Begin(const PreparedPlan& prepared) {
  if (!status_.ok()) return status_;
  out_ << "cextend-stream v1 rows=" << prepared.plan->num_rows
       << " b=" << prepared.plan->b_names.size()
       << " seed=" << prepared.plan->seed << "\n";
  return out_.good() ? Status::Ok() : Fail("header");
}

Status TextStreamSink::Consume(const ResolvedShard& shard) {
  if (!status_.ok()) return status_;
  for (const ResolvedShard::Block& block : shard.blocks) {
    for (ShardRow r : block.rows) {
      out_ << "r " << r.row << " " << r.key << "\n";
      ++rows_written_;
      if (!out_.good()) return Fail("row record");
    }
    for (const ResolvedShard::NewTuple& t : block.new_tuples) {
      out_ << "n " << t.key;
      for (int64_t code : t.combo) out_ << " " << code;
      out_ << "\n";
      ++tuples_written_;
      if (!out_.good()) return Fail("tuple record");
    }
  }
  return Status::Ok();
}

Status TextStreamSink::Finish() {
  if (!status_.ok()) return status_;
  out_ << "end rows=" << rows_written_ << " new=" << tuples_written_ << "\n";
  out_.flush();
  return out_.good() ? Status::Ok() : Fail("trailer");
}

// ---- TeeSink ----

Status TeeSink::Begin(const PreparedPlan& prepared) {
  CEXTEND_RETURN_IF_ERROR(a_->Begin(prepared));
  return b_->Begin(prepared);
}

Status TeeSink::Consume(const ResolvedShard& shard) {
  CEXTEND_RETURN_IF_ERROR(a_->Consume(shard));
  return b_->Consume(shard);
}

Status TeeSink::Finish() {
  CEXTEND_RETURN_IF_ERROR(a_->Finish());
  return b_->Finish();
}

// ---- EmitShard ----

StatusOr<ShardOutput> EmitShard(const PreparedPlan& prepared, size_t shard_id,
                                const Phase2Options& options) {
  const SynthesisPlan& plan = *prepared.plan;
  if (shard_id >= plan.num_shards()) {
    return Status::InvalidArgument("shard id out of range");
  }
  const Table& v_join = *prepared.v_join;

  ConflictOracleOptions oracle_options;
  oracle_options.run_control = options.run_control;

  ShardOutput out;
  out.shard_id = shard_id;
  // Provisional fresh keys: fresh_base + a shard-local counter, in the same
  // allocation order the monolithic solver's per-task records preserved.
  // They cannot collide with real candidates (all < fresh_base) and carry
  // their renumbering position in the offset.
  int64_t provisional_next = prepared.fresh_base;

  for (uint64_t idx = plan.shard_begin[shard_id];
       idx < plan.shard_begin[shard_id + 1]; ++idx) {
    if (options.run_control.CanInterrupt()) {
      CEXTEND_RETURN_IF_ERROR(options.run_control.Check());
    }
    const PlanPartition& p = prepared.partitions[prepared.worklist[idx]];
    // Derived from the *global* worklist index — identical to the monolithic
    // per-task stream, so the shard map can never change the output.
    Rng rng(plan.seed ^ (0x9E3779B97F4A7C15ULL * (idx + 1)));

    ShardOutput::Block block;
    block.worklist_idx = idx;
    block.partition = prepared.worklist[idx];
    if (options.random_assignment) {
      block.rows.reserve(p.rows.size());
      for (uint32_t row : p.rows) {
        int64_t key;
        if (p.candidates.empty()) {
          key = provisional_next++;
          ++block.num_fresh;
        } else {
          key = rng.Choice(p.candidates);
        }
        block.rows.push_back(ShardRow{row, key});
      }
      out.blocks.push_back(std::move(block));
      continue;
    }
    CEXTEND_ASSIGN_OR_RETURN(
        std::unique_ptr<PartitionOracle> oracle,
        BuildPartitionOracle(v_join, *prepared.dc_classes, p.rows,
                             oracle_options, &out.stats));
    ListColoringResult coloring = GreedyListColoring(*oracle, {}, p.candidates);
    if (coloring.csr_rung) ++out.stats.csr_partitions;
    out.stats.skipped_vertices += coloring.skipped.size();
    // |s| fresh colors, then color the skipped vertices with them; iterate
    // in the (k-ary) corner case where skips remain.
    while (!coloring.skipped.empty()) {
      std::vector<int64_t> fresh(coloring.skipped.size());
      for (int64_t& key : fresh) key = provisional_next++;
      block.num_fresh += fresh.size();
      ListColoringResult next =
          GreedyListColoring(*oracle, std::move(coloring.colors), fresh);
      CEXTEND_CHECK(next.skipped.size() < coloring.skipped.size())
          << "fresh-color pass must make progress";
      coloring = std::move(next);
      out.stats.skipped_vertices += coloring.skipped.size();
    }
    block.rows.resize(p.rows.size());
    for (size_t v = 0; v < p.rows.size(); ++v) {
      block.rows[v] = ShardRow{p.rows[v], coloring.colors[v]};
    }
    out.blocks.push_back(std::move(block));
  }
  return out;
}

// ---- ExecutePlan ----

StatusOr<Phase2Stats> ExecutePlan(const PreparedPlan& prepared,
                                  const Phase2Options& options, RowSink* sink,
                                  const ExecuteResume& resume) {
  const SynthesisPlan& plan = *prepared.plan;
  const size_t num_shards = plan.num_shards();
  if (resume.first_shard > num_shards) {
    return Status::InvalidArgument("resume.first_shard past the shard count");
  }
  if (resume.repair_done && resume.first_shard != num_shards) {
    return Status::InvalidArgument(
        "resume says repair retired but partition shards are missing");
  }
  CEXTEND_RETURN_IF_ERROR(sink->Begin(prepared));

  // Partitions whose combo is a repair target have their resolved colors
  // retained at retirement — the only per-row state the repair stage needs
  // (no oracle outlives a shard).
  const std::vector<uint8_t> is_repair_partition =
      RepairPartitionFlags(prepared);

  const size_t window = options.max_resident_shards == 0
                            ? std::max<size_t>(1, num_shards)
                            : std::max<size_t>(1, options.max_resident_shards);
  const size_t remaining_shards = num_shards - resume.first_shard;
  const size_t workers = std::max<size_t>(
      1, std::min({std::max<size_t>(1, options.num_threads), remaining_shards,
                   window}));

  ExecState st;
  {
    MutexLock lock(st.mu);
    st.next_admit = resume.first_shard;
    st.next_retire = resume.first_shard;
    st.next_key =
        resume.next_key >= 0 ? resume.next_key : prepared.fresh_base;
    st.charged.assign(num_shards, 0);
    st.completed.resize(num_shards);
    // cextend-lint: unordered-iteration-ok(source is the resume point's
    // sorted vector, not the map; keyed assignment is order-independent)
    for (const auto& rc : resume.repair_colors) {
      st.repair_colors[rc.first] = rc.second;
    }
    st.stats.num_partitions = prepared.partitions.size();
    st.stats.invalid_rows = plan.invalid_rows.size();
  }

  double coloring_seconds = 0.0;
  {
    ScopedTimer timer(&coloring_seconds);
    auto worker = [&]() {
      for (;;) {
        size_t s;
        {
          MutexLock lock(st.mu);
          while (st.first_error.ok() && st.next_admit < num_shards &&
                 st.next_admit - st.next_retire >= window) {
            lock.Wait(st.cv);
          }
          if (!st.first_error.ok() || st.next_admit >= num_shards) return;
          s = st.next_admit++;
          // Admission charge: a row-count estimate, swapped for the measured
          // footprint at completion.
          st.charged[s] = prepared.shard_rows[s] * sizeof(ShardRow) + 64;
          st.resident_bytes += st.charged[s];
          st.stats.peak_resident_bytes =
              std::max(st.stats.peak_resident_bytes, st.resident_bytes);
          st.stats.max_shards_in_flight = std::max(
              st.stats.max_shards_in_flight, st.next_admit - st.next_retire);
        }
        StatusOr<ShardOutput> out = EmitShard(prepared, s, options);
        MutexLock lock(st.mu);
        if (!out.ok()) {
          if (st.first_error.ok()) st.first_error = out.status();
          st.cv.notify_all();
          return;
        }
        ShardOutput& done =
            *(st.completed[s] =
                  std::make_unique<ShardOutput>(std::move(out).value()));
        st.resident_bytes += done.ApproxBytes();
        st.resident_bytes -= st.charged[s];
        st.charged[s] = done.ApproxBytes();
        st.stats.peak_resident_bytes =
            std::max(st.stats.peak_resident_bytes, st.resident_bytes);
        // Retire every consecutive completed shard, strictly in shard order:
        // renumber fresh keys, capture repair-target colors, hand the shard
        // to the sink, release its memory. Retirement happens with `mu`
        // held, which is what serializes sink->Consume calls.
        while (st.next_retire < num_shards &&
               st.completed[st.next_retire] != nullptr) {
          ShardOutput& retire = *st.completed[st.next_retire];
          ResolvedShard resolved =
              ResolveShard(prepared, retire, &st.next_key);
          for (size_t b = 0; b < resolved.blocks.size(); ++b) {
            if (!is_repair_partition[retire.blocks[b].partition]) continue;
            for (ShardRow r : resolved.blocks[b].rows) {
              st.repair_colors[r.row] = r.key;
            }
          }
          st.stats.Merge(retire.stats);
          ++st.stats.shards_emitted;
          Status consumed = sink->Consume(resolved);
          st.resident_bytes -= st.charged[st.next_retire];
          st.completed[st.next_retire].reset();
          ++st.next_retire;
          if (!consumed.ok()) {
            if (st.first_error.ok()) st.first_error = std::move(consumed);
            break;
          }
        }
        st.cv.notify_all();
      }
    };
    RunWorkers(workers, worker);
  }

  // Single-threaded from here on (workers joined); drain the guarded state
  // into locals under a final lock so the repair pass below reads
  // lock-free.
  Phase2Stats stats;
  std::unordered_map<uint32_t, int64_t> repair_colors;
  int64_t next_key;
  {
    MutexLock lock(st.mu);
    if (!st.first_error.ok()) return st.first_error;
    CEXTEND_CHECK(st.next_retire == num_shards);
    stats = std::move(st.stats);
    repair_colors = std::move(st.repair_colors);
    next_key = st.next_key;
  }
  stats.coloring_seconds = coloring_seconds;

  // ---- solveInvalidTuples pass 2, retired as the final shard. ----
  // Runs serially after every partition shard (its fresh keys extend the
  // global sequence). Per touched combo, each repaired row takes the first
  // candidate key whose same-key bucket — the partition's retained colors
  // plus the rows repaired so far — it joins without violating a DC
  // (AssignRepairKeys; it scans the DCs directly or, when the estimated scan
  // work outgrows an oracle build, probes a per-combo oracle). Skipped
  // entirely when the resume state says the repair shard already retired —
  // then only the sink trailer below is (re)written, healing a crash between
  // the repair commit and the trailer.
  if (!resume.repair_done) {
    ScopedTimer timer(&stats.invalid_seconds);
    ResolvedShard repair;
    repair.shard_id = num_shards;
    ResolvedShard::Block block;
    block.worklist_idx = ResolvedShard::kRepairBlock;
    ConflictOracleOptions oracle_options;
    oracle_options.run_control = options.run_control;
    for (const auto& [combo_id, group] : prepared.repair_groups) {
      CEXTEND_RETURN_IF_ERROR(options.run_control.Check());
      std::span<const int64_t> combo = prepared.combos->combo_codes(combo_id);
      // Colored partition rows first, then the group.
      std::vector<uint32_t> rows;
      std::vector<int64_t> colored_keys;
      const size_t partition =
          prepared.partition_of_combo[prepared.plan->row_combo[group.front()]];
      if (partition != PreparedPlan::kNoPartition) {
        rows = prepared.partitions[partition].rows;
        colored_keys.reserve(rows.size());
        for (uint32_t row : rows) colored_keys.push_back(repair_colors.at(row));
      }
      rows.insert(rows.end(), group.begin(), group.end());
      CEXTEND_ASSIGN_OR_RETURN(
          std::vector<int64_t> keys,
          AssignRepairKeys(*prepared.v_join, *prepared.dc_classes, rows,
                           colored_keys, prepared.combos->keys(combo_id),
                           RepairProbe::kBySize, oracle_options, &stats));
      for (size_t g = 0; g < group.size(); ++g) {
        int64_t chosen = keys[g];
        if (chosen == kNoColor) {
          chosen = next_key++;
          block.new_tuples.push_back(ResolvedShard::NewTuple{
              chosen, std::vector<int64_t>(combo.begin(), combo.end())});
        }
        block.rows.push_back(ShardRow{group[g], chosen});
      }
    }
    repair.blocks.push_back(std::move(block));
    CEXTEND_RETURN_IF_ERROR(sink->Consume(repair));
  }
  stats.new_r2_tuples = static_cast<size_t>(next_key - prepared.fresh_base);
  CEXTEND_RETURN_IF_ERROR(sink->Finish());
  return stats;
}

}  // namespace cextend
