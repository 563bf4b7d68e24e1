// Phase I, general case (Section 4.1, Algorithm 1): model the CCs as an
// integer program over binned tuple-type variables and greedily fill B values
// from its solution.
//
// Encoding (over classes). Within a component, bins with rows left are
// grouped into bin classes, and the R2 combos its CCs cover into combo
// classes, each keyed by the ascending list of the component's CCs that
// cover it. Members of a class are interchangeable with respect to every
// CC: a CC covers a (bin, combo) pair exactly when it covers both classes.
// This is the argument that merges every combo no CC covers into the
// paper's combo_unused (§4.1, Ex. 4.6), applied to all columns. Variables:
//   * one integer variable per (bin class, combo class) pair that shares a
//     covering CC, in ascending (bin class, combo class) order;
//   * one aggregated "unused" integer variable per bin class.
// Which bins and combos a CC covers is read from the solve's CcMatch
// table, built once before either phase-1 algorithm runs.
// Rows:
//   * per bin class (optional — the all-way marginals of Section 4.1):
//       sum over the class's variables = the class's pool sizes  (hard)
//   * per CC:  sum of covered pair variables + u - v = target,
//              u,v >= 0 (soft)
// Objective: minimize sum(u + v). A zero objective ⇔ all CCs satisfied.
// The merged model is equivalent to one variable per (bin, combo) pair:
// a class value splits back onto member bins by a northwest-corner walk
// (SplitClassValues; the bin rows fix only per-bin totals), and onto member
// combos round robin over ComboIndex::ExpandByKeyCount. The per-pair
// encoding survives as the oracle in tests/core/phase1_ilp_decompose_test.cc.
//
// Decomposition. The constraint matrix is block-diagonal across connected
// components of the (bins, CCs) incidence graph: two CCs couple only when
// they share a bin (hence possibly a variable or a bin row). RunPhase1Ilp
// partitions the system with a union-find, builds one sub-ILP per component,
// and solves them independently — optionally in parallel on worker threads.
// Sub-solves are single-threaded and deterministic and are merged in
// component order, so results are bit-identical at any thread count. The
// model is block-diagonal, so the summed component optima equal the optimum
// of the one model over every bin with remaining rows
// (tests/core/phase1_ilp_decompose_test.cc builds that model, per pair, as
// its oracle).

#ifndef CEXTEND_CORE_PHASE1_ILP_H_
#define CEXTEND_CORE_PHASE1_ILP_H_

#include <cstdint>
#include <vector>

#include "constraints/cardinality_constraint.h"
#include "core/fill_state.h"
#include "core/join_view.h"
#include "ilp/branch_and_bound.h"
#include "util/statusor.h"

namespace cextend {

struct Phase1IlpOptions {
  /// Include the per-bin marginal rows (Algorithm 1 lines 8-10). The plain
  /// baseline of Section 6.1 turns this off.
  bool include_marginals = true;
  /// Worker threads for independent component solves, the calling thread
  /// included and capped at the component count (0 or 1 = serial). The
  /// result is bit-identical regardless of this value.
  size_t num_threads = 1;
  /// `ilp.run_control` is also checked before each component solve.
  ilp::IlpOptions ilp;
};

struct Phase1IlpStats {
  double model_build_seconds = 0.0;
  double solve_seconds = 0.0;
  double fill_seconds = 0.0;
  size_t num_variables = 0;
  size_t num_rows = 0;
  size_t num_components = 0;      ///< independent sub-ILPs solved
  size_t largest_component = 0;   ///< variables in the largest sub-ILP
  ilp::IlpStatus status = ilp::IlpStatus::kNoSolution;
  double slack_total = 0.0;  ///< optimal sum of CC deviations
  int64_t lp_iterations = 0;
  int64_t bnb_nodes = 0;
  int64_t warm_solves = 0;   ///< B&B nodes re-optimized from a parent basis
  /// Warm starts that fell back to a cold solve (degradation-ladder rung).
  int64_t cold_fallbacks = 0;
};

/// Rows one merged variable takes from one member bin of its bin class.
struct ClassTake {
  size_t member = 0;  ///< index into the class's ascending member bins
  size_t rows = 0;
};

/// The greedy fill's split of one bin class: `values` (the class's
/// variables, in variable order; negatives count as 0) are taken from
/// member bins holding `pool_sizes` rows, walking the members in ascending
/// id order (northwest corner). takes[j] lists value j's takes. Each value
/// lands exactly while the pools last: with the bin rows, sum(values) ==
/// sum(pool_sizes); without them the walk stops when the pools run dry.
std::vector<std::vector<ClassTake>> SplitClassValues(
    const std::vector<int64_t>& values, const std::vector<size_t>& pool_sizes);

/// Runs Algorithm 1 for `ccs` over the unassigned rows in `state`.
/// `matches[i]` is `ccs[i]`'s entry of the solve's CcMatch table
/// (core/fill_state.h); the model is built from it without matching any CC
/// again. Rows selected by the solution get full combos written into
/// V_join; leftovers stay in the pools for the shared final fill.
Status RunPhase1Ilp(FillState& state, const ComboIndex& combos,
                    const std::vector<CardinalityConstraint>& ccs,
                    const std::vector<CcMatch>& matches,
                    const Phase1IlpOptions& options, Phase1IlpStats* stats);

}  // namespace cextend

#endif  // CEXTEND_CORE_PHASE1_ILP_H_
