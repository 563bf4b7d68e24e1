// End-to-end C-Extension solver (Definition 2.6): the public entry point of
// the library. Given R1 with an empty FK column, R2, CCs on the join view and
// FK DCs on R1, produces R̂1 (FK filled), R̂2 (possibly augmented) and the
// completed join view, with all DCs guaranteed satisfied (Prop. 5.5).

#ifndef CEXTEND_CORE_SOLVER_H_
#define CEXTEND_CORE_SOLVER_H_

#include <optional>
#include <vector>

#include "constraints/cardinality_constraint.h"
#include "constraints/denial_constraint.h"
#include "core/hybrid.h"
#include "core/join_view.h"
#include "core/phase2.h"
#include "core/plan.h"
#include "core/stats.h"
#include "relational/table.h"
#include "util/deadline.h"
#include "util/statusor.h"

namespace cextend {

class RowSink;
struct DurableStreamSpec;

struct SolverOptions {
  HybridOptions phase1;
  Phase2Options phase2;
  uint64_t seed = 1;
  /// Deadline/cancellation for the whole solve, propagated into both phases
  /// (phase-specific run_control set on `phase1`/`phase2` takes precedence).
  /// On expiry/cancel the solve returns kDeadlineExceeded/kCancelled within
  /// one work chunk — B&B node, simplex poll window, partition task, or
  /// repair combo group — and never a partially-synthesized database.
  RunControl run_control;
};

struct Solution {
  Table r1_hat;  ///< R1 with the FK column completed
  Table r2_hat;  ///< R2, possibly with fresh tuples appended
  Table v_join;  ///< the completed join view (R̂1 ⋈ R̂2)
  SolveStats stats;
};

/// Output of the planning stage: the serializable SynthesisPlan, the
/// completed join view (phase-1 fills + repair combo selections written into
/// its B cells), and the run statistics so far. Hand it to
/// ExecuteCExtensionPlan — with the *same* SolverOptions — to stream the
/// synthesized database out.
struct PlannedCExtension {
  SynthesisPlan plan;
  Table v_join;
  /// Phase 1, plus the plan stage as phase 2's first part: phase2_seconds
  /// and phase2.{partition,invalid}_seconds. Execution adds onto these.
  SolveStats stats;
  /// Phase 1's combo index over R2 and DC classification of the join view,
  /// handed to PreparePlan so one solve builds each once; empty for a plan
  /// loaded in a fresh process.
  std::optional<ComboIndex> combos = std::nullopt;
  std::optional<DcRowClasses> dc_classes = std::nullopt;
};

/// Stage 1 of the plan-then-stream split (see src/core/README.md "Streaming
/// & sharding"): binning + phase-1 fills + repair combo selection, frozen
/// into a SynthesisPlan. Runs no coloring and allocates no output tables.
/// Fails with kInvalidArgument, before phase 1, when a DC reads a column
/// other than R1's key and A columns (a B column or the FK).
StatusOr<PlannedCExtension> PlanCExtension(
    const Table& r1, const Table& r2, const PairSchema& names,
    const std::vector<CardinalityConstraint>& ccs,
    const std::vector<DenialConstraint>& dcs,
    const SolverOptions& options = {});

/// Stage 2: streams phase 2 out of the plan through the bounded-memory shard
/// executor, collecting the result tables. `planned` is consumed (its join
/// view moves into the Solution). `tee`, when non-null, additionally
/// receives every retired shard (the CLI's streaming file sink); it must
/// outlive the call. Pass the same `options` as to PlanCExtension — seed and
/// shard geometry come from the plan, but oracle/thread/admission knobs are
/// read here.
StatusOr<Solution> ExecuteCExtensionPlan(
    PlannedCExtension&& planned, const Table& r1, const Table& r2,
    const PairSchema& names, const std::vector<DenialConstraint>& dcs,
    const SolverOptions& options = {}, RowSink* tee = nullptr);

/// Stage 2 with crash-safe durable streaming (core/stream_checkpoint.h): the
/// text stream goes to stream.stream_path with an fsync'd CXMF sidecar
/// manifest committed at every shard retirement. With stream.resume set, the
/// run restarts from the manifest's committed prefix — the in-memory tables
/// are rebuilt by replaying the durable bytes, and the final stream is
/// byte-identical to an uninterrupted run. The plan must be the one the
/// manifest was written for (the plan digest is checked).
StatusOr<Solution> ExecuteCExtensionPlanDurable(
    PlannedCExtension&& planned, const Table& r1, const Table& r2,
    const PairSchema& names, const std::vector<DenialConstraint>& dcs,
    const DurableStreamSpec& stream, const SolverOptions& options = {});

/// Solves C-Extension for the linked pair. `r1.fk` cells are ignored (they
/// are being synthesized); all other inputs are read-only. Equivalent to
/// PlanCExtension + ExecuteCExtensionPlan with an in-memory sink.
StatusOr<Solution> SolveCExtension(const Table& r1, const Table& r2,
                                   const PairSchema& names,
                                   const std::vector<CardinalityConstraint>& ccs,
                                   const std::vector<DenialConstraint>& dcs,
                                   const SolverOptions& options = {});

}  // namespace cextend

#endif  // CEXTEND_CORE_SOLVER_H_
