// The SynthesisPlan artifact: everything phase 2 needs, frozen after phase 1.
//
// Plan-then-stream split (see src/core/README.md "Streaming & sharding"):
// the *planner* runs binning + phase-1 fills once, selects repair combos for
// the invalid rows (solveInvalidTuples pass 1 — a pure function of the A
// values and CC conditions, independent of coloring), and freezes the result
// into a serializable SynthesisPlan. The *shard executor*
// (core/shard_executor.h) then emits phase-2 shards from the plan; a shard is
// a pure function of (plan, shard id), so a resumed run re-emits shards
// byte-identically, and shards can be emitted in a different process than
// the one that planned.
//
// The plan stores dictionary codes, not values. Codes are deterministic for
// identical input tables (dictionaries grow in insertion order), so a plan is
// valid exactly against the (R1, R2) it was built from; ApplyPlanToJoinView
// reconstitutes the completed join view in a fresh process from those inputs.
//
// Planning is timed as part of phase 2 (Fig. 13's partitioning and invalid
// tuples): BuildSynthesisPlan adds its two stages into the caller's
// Phase2Stats, which the executed stats are later merged onto.

#ifndef CEXTEND_CORE_PLAN_H_
#define CEXTEND_CORE_PLAN_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "constraints/cardinality_constraint.h"
#include "constraints/denial_constraint.h"
#include "core/conflict.h"
#include "core/join_view.h"
#include "core/phase2.h"
#include "relational/table.h"
#include "util/statusor.h"

namespace cextend {

struct SynthesisPlanOptions {
  uint64_t seed = 1;
  /// Number of phase-2 emission shards. 0 = auto: min(#partitions,
  /// 4 * max(1, num_threads_hint)), at least 1. Shards split the partition
  /// *worklist* (size-descending order) into contiguous ranges balanced by
  /// row count; the shard map never changes the emitted bytes, only the
  /// executor's memory/parallelism granularity.
  size_t num_shards = 0;
  size_t num_threads_hint = 1;
};

/// The serializable planning artifact. `row_combo` assigns every join-view
/// row its (B1..Bq) combo — valid rows keep their phase-1 fill, invalid rows
/// carry the repair pass-1 selection. The combo table is plan-local because
/// phase 1 may synthesize combos that exist in no R2 tuple.
struct SynthesisPlan {
  uint64_t seed = 1;
  uint64_t num_rows = 0;
  std::vector<std::string> b_names;                ///< B columns, in order
  std::vector<std::vector<int64_t>> combo_table;   ///< distinct combos
  std::vector<uint32_t> row_combo;                 ///< per row: combo id
  std::vector<uint32_t> invalid_rows;              ///< repair rows, in order
  /// Worklist-index boundaries, size num_shards()+1; shard s covers
  /// worklist indices [shard_begin[s], shard_begin[s+1]).
  std::vector<uint64_t> shard_begin;

  size_t num_shards() const {
    return shard_begin.empty() ? 0 : shard_begin.size() - 1;
  }

  /// Byte-stable binary encoding: serialize → deserialize → re-serialize
  /// yields identical bytes (fixed-width little-endian fields, no maps).
  std::string Serialize() const;
  static StatusOr<SynthesisPlan> Deserialize(const std::string& bytes);
};

/// Freezes the phase-2 plan for a phase-1-completed join view. Runs
/// solveInvalidTuples pass 1: each row in `invalid_rows` gets its
/// error-minimizing combo written into `v_join`'s B cells (the only
/// mutation), exactly as the monolithic phase 2 did. `r2_combos` may pass a
/// prebuilt ComboIndex over R2 (the planner reuses phase 1's); nullptr
/// builds one on demand when invalid rows exist. `stats`, when non-null, is
/// added into: the combo selection's time goes to invalid_seconds, the combo
/// table, worklist and shard map's to partition_seconds.
StatusOr<SynthesisPlan> BuildSynthesisPlan(
    Table& v_join, const Table& r2, const PairSchema& names,
    const std::vector<CardinalityConstraint>& ccs,
    const std::vector<uint32_t>& invalid_rows,
    const SynthesisPlanOptions& options, const ComboIndex* r2_combos = nullptr,
    Phase2Stats* stats = nullptr);

/// Writes every row's planned combo into `v_join`'s B cells. Used by a fresh
/// process to reconstitute the completed join view from (R1, R2, plan):
/// MakeJoinView + ApplyPlanToJoinView ≡ phase 1 + repair pass 1.
Status ApplyPlanToJoinView(const SynthesisPlan& plan, Table& v_join,
                           const PairSchema& names);

/// One (B1..Bq) partition of the join view (Section 5.2): its rows, and the
/// existing R2 keys carrying the combo (the coloring candidate list).
struct PlanPartition {
  std::vector<int64_t> combo;
  std::vector<uint32_t> rows;
  std::vector<int64_t> candidates;
};

/// Runtime context derived from a plan against concrete tables: partitions,
/// the size-descending worklist, the DC classification, the repair grouping,
/// and the fresh-key base. Holds pointers into `v_join` / `r2`; both must
/// outlive it.
struct PreparedPlan {
  const SynthesisPlan* plan = nullptr;
  const Table* v_join = nullptr;
  /// The join view's DC classification (its `dcs` are the bound DCs):
  /// PreparePlan's `dc_classes`, or `owned_dc_classes` when none was passed.
  const DcRowClasses* dc_classes = nullptr;
  std::unique_ptr<const DcRowClasses> owned_dc_classes;
  std::vector<PlanPartition> partitions;  ///< insertion order (first row)
  /// Plan combo id (SynthesisPlan::row_combo) → partition id, or
  /// kNoPartition when no valid row carries the combo. A repair group's
  /// partition is partition_of_combo[plan->row_combo[group.front()]].
  std::vector<size_t> partition_of_combo;
  static constexpr size_t kNoPartition = SIZE_MAX;
  std::vector<size_t> worklist;           ///< partition ids, size-descending
  /// Per-combo repair groups (solveInvalidTuples pass 2 input), keyed by
  /// ComboIndex id in ascending order; rows keep plan order within a group.
  std::map<size_t, std::vector<uint32_t>> repair_groups;
  /// R2's combo index: PreparePlan's `r2_combos`, or `owned_combos` when
  /// none was passed.
  const ComboIndex* combos = nullptr;
  std::unique_ptr<const ComboIndex> owned_combos;
  int64_t fresh_base = 0;                 ///< max R2 key + 1
  std::vector<uint64_t> shard_rows;       ///< row count per shard (estimates)

  size_t num_shards() const { return plan->num_shards(); }
};

/// Validates `plan` against the tables and builds the runtime context. The
/// join view must already carry every row's combo (either phase 1 + plan
/// build in this process, or ApplyPlanToJoinView in a fresh one).
/// `r2_combos` may pass the ComboIndex phase 1 built over `r2`, and
/// `dc_classes` the DC classification phase 1 built over `v_join` from
/// `dcs` (both must outlive the result); nullptr builds one. Either way the
/// classes, and so the emitted bytes, are the same.
StatusOr<PreparedPlan> PreparePlan(const SynthesisPlan& plan,
                                   const Table& v_join, const Table& r2,
                                   const PairSchema& names,
                                   const std::vector<DenialConstraint>& dcs,
                                   const ComboIndex* r2_combos = nullptr,
                                   const DcRowClasses* dc_classes = nullptr);

/// Per-partition flag: 1 iff the partition's combo is a repair target, i.e.
/// the repair stage will probe against this partition's resolved colors.
/// Shared by the shard executor (which retains those colors at retirement)
/// and the durable stream checkpoint (which persists them per manifest
/// record so a resumed run can still repair).
std::vector<uint8_t> RepairPartitionFlags(const PreparedPlan& prepared);

}  // namespace cextend

#endif  // CEXTEND_CORE_PLAN_H_
