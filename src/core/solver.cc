#include "core/solver.h"

#include <set>
#include <string>
#include <utility>

#include "core/shard_executor.h"
#include "core/stream_checkpoint.h"
#include "util/timer.h"

namespace cextend {
namespace {

/// A DC constrains tuples of R1, and the phase-1 DC classification is built
/// before the B cells are complete: every column a DC reads must be R1's key
/// or one of its A columns.
Status CheckDcColumns(const std::vector<DenialConstraint>& dcs,
                      const PairSchema& names) {
  std::set<std::string> r1_cols(names.r1_attrs.begin(), names.r1_attrs.end());
  r1_cols.insert(names.key1);
  for (const DenialConstraint& dc : dcs) {
    for (const DcAtom& atom : dc.atoms()) {
      std::vector<std::string> cols = {atom.lhs_column};
      if (atom.is_binary) cols.push_back(atom.rhs_column);
      for (const std::string& col : cols) {
        if (!r1_cols.contains(col)) {
          return Status::InvalidArgument(
              "DC " + dc.name() + " reads column " + col +
              ", which is not R1's key or one of its attributes");
        }
      }
    }
  }
  return Status::Ok();
}

/// Seed/run_control defaulting shared by both stages, so planning and
/// execution derive identical effective options from one SolverOptions.
Phase2Options EffectivePhase2Options(const SolverOptions& options) {
  Phase2Options phase2 = options.phase2;
  if (phase2.seed == 1) phase2.seed = options.seed;
  if (!phase2.run_control.CanInterrupt()) {
    phase2.run_control = options.run_control;
  }
  return phase2;
}

/// Shared tail of the execution entry points: folds planning timings and the
/// executed phase-2 stats into the solve record and moves the collected
/// tables out of the sink.
Solution FinishSolution(PlannedCExtension&& planned, SolveStats stats,
                        Phase2Stats phase2_stats, TableSink&& table_sink,
                        double phase2_elapsed, double total_elapsed) {
  phase2_stats.partition_seconds += stats.phase2.partition_seconds;
  phase2_stats.invalid_seconds += stats.phase2.invalid_seconds;
  stats.phase2 = phase2_stats;
  stats.phase2_seconds = planned.plan_build_seconds + phase2_elapsed;
  stats.total_seconds += total_elapsed;

  return Solution{std::move(table_sink.r1_hat()),
                  std::move(table_sink.r2_hat()), std::move(planned.v_join),
                  stats};
}

}  // namespace

StatusOr<PlannedCExtension> PlanCExtension(
    const Table& r1, const Table& r2, const PairSchema& names,
    const std::vector<CardinalityConstraint>& ccs,
    const std::vector<DenialConstraint>& dcs, const SolverOptions& options) {
  Stopwatch total_watch;
  CEXTEND_RETURN_IF_ERROR(names.Validate(r1, r2));
  CEXTEND_RETURN_IF_ERROR(CheckDcColumns(dcs, names));
  CEXTEND_RETURN_IF_ERROR(options.run_control.Check());
  CEXTEND_ASSIGN_OR_RETURN(Table v_join, MakeJoinView(r1, r2, names));

  SolveStats stats;

  // Phase I: complete the B columns of V_join from the CCs.
  Stopwatch phase1_watch;
  HybridOptions phase1_options = options.phase1;
  if (phase1_options.seed == 1) phase1_options.seed = options.seed;
  if (!phase1_options.run_control.CanInterrupt()) {
    phase1_options.run_control = options.run_control;
  }
  CEXTEND_ASSIGN_OR_RETURN(
      HybridResult phase1,
      RunHybridPhase1(v_join, r2, names, ccs, dcs, phase1_options));
  stats.phase1 = phase1.stats;
  stats.phase1_seconds = phase1_watch.ElapsedSeconds();
  stats.invalid_tuples = phase1.invalid_rows.size();

  // Freeze the synthesis plan: repair combo selection (writes the invalid
  // rows' B cells), combo layout, shard map. Phase 1's combo index is
  // reused for the selection pass.
  Stopwatch plan_watch;
  Phase2Options phase2_options = EffectivePhase2Options(options);
  SynthesisPlanOptions plan_options;
  plan_options.seed = phase2_options.seed;
  plan_options.num_shards = phase2_options.num_shards;
  plan_options.num_threads_hint = phase2_options.num_threads;
  PlanBuildTimings timings;
  CEXTEND_ASSIGN_OR_RETURN(
      SynthesisPlan plan,
      BuildSynthesisPlan(v_join, r2, names, ccs, phase1.invalid_rows,
                         plan_options, &phase1.combos, &timings));
  stats.phase2.partition_seconds += timings.layout_seconds;
  stats.phase2.invalid_seconds += timings.selection_seconds;
  stats.total_seconds = total_watch.ElapsedSeconds();

  return PlannedCExtension{std::move(plan), std::move(v_join), stats,
                           plan_watch.ElapsedSeconds(),
                           std::move(phase1.combos),
                           std::move(phase1.dc_classes)};
}

StatusOr<Solution> ExecuteCExtensionPlan(
    PlannedCExtension&& planned, const Table& r1, const Table& r2,
    const PairSchema& names, const std::vector<DenialConstraint>& dcs,
    const SolverOptions& options, RowSink* tee) {
  Stopwatch total_watch;
  SolveStats stats = planned.stats;
  Phase2Options phase2_options = EffectivePhase2Options(options);

  Stopwatch phase2_watch;
  CEXTEND_ASSIGN_OR_RETURN(
      PreparedPlan prepared,
      PreparePlan(planned.plan, planned.v_join, r2, names, dcs,
                  planned.combos ? &*planned.combos : nullptr,
                  planned.dc_classes ? &*planned.dc_classes : nullptr));
  TableSink table_sink(r1, r2, names);
  TeeSink tee_sink(&table_sink, tee);
  RowSink* sink = tee != nullptr ? static_cast<RowSink*>(&tee_sink)
                                 : static_cast<RowSink*>(&table_sink);
  CEXTEND_ASSIGN_OR_RETURN(Phase2Stats phase2_stats,
                           ExecutePlan(prepared, phase2_options, sink));
  return FinishSolution(std::move(planned), std::move(stats),
                        std::move(phase2_stats), std::move(table_sink),
                        phase2_watch.ElapsedSeconds(),
                        total_watch.ElapsedSeconds());
}

StatusOr<Solution> ExecuteCExtensionPlanDurable(
    PlannedCExtension&& planned, const Table& r1, const Table& r2,
    const PairSchema& names, const std::vector<DenialConstraint>& dcs,
    const DurableStreamSpec& stream, const SolverOptions& options) {
  Stopwatch total_watch;
  SolveStats stats = planned.stats;
  Phase2Options phase2_options = EffectivePhase2Options(options);

  Stopwatch phase2_watch;
  CEXTEND_ASSIGN_OR_RETURN(
      PreparedPlan prepared,
      PreparePlan(planned.plan, planned.v_join, r2, names, dcs,
                  planned.combos ? &*planned.combos : nullptr,
                  planned.dc_classes ? &*planned.dc_classes : nullptr));
  TableSink table_sink(r1, r2, names);
  CEXTEND_ASSIGN_OR_RETURN(
      Phase2Stats phase2_stats,
      ExecutePlanDurable(prepared, phase2_options, stream, &table_sink));
  return FinishSolution(std::move(planned), std::move(stats),
                        std::move(phase2_stats), std::move(table_sink),
                        phase2_watch.ElapsedSeconds(),
                        total_watch.ElapsedSeconds());
}

StatusOr<Solution> SolveCExtension(const Table& r1, const Table& r2,
                                   const PairSchema& names,
                                   const std::vector<CardinalityConstraint>& ccs,
                                   const std::vector<DenialConstraint>& dcs,
                                   const SolverOptions& options) {
  CEXTEND_ASSIGN_OR_RETURN(PlannedCExtension planned,
                           PlanCExtension(r1, r2, names, ccs, dcs, options));
  return ExecuteCExtensionPlan(std::move(planned), r1, r2, names, dcs,
                               options);
}

}  // namespace cextend
