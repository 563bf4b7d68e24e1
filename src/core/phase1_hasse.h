// Phase I, special case (Section 4.2, Algorithm 2): exact completion of
// V_join when the CC set has no intersecting constraints, by recursing on the
// Hasse diagram of CC containment, plus the shared final fill (lines 14-17)
// that completes leftover rows with combinations that add no CC counts.
// Neither matches a CC itself: both read the bins and combos of each CC from
// the solve's CcMatch table (core/fill_state.h), aligned with their CC list.
// Nor does the fill evaluate a DC: its clique-capacity ledger reads each
// row's self-adjacent DCs from the solve's DcRowClasses (core/conflict.h),
// built once in phase I and handed on to phase II's oracle builds.

#ifndef CEXTEND_CORE_PHASE1_HASSE_H_
#define CEXTEND_CORE_PHASE1_HASSE_H_

#include <cstdint>
#include <vector>

#include "constraints/cardinality_constraint.h"
#include "constraints/hasse_diagram.h"
#include "core/conflict.h"
#include "core/fill_state.h"
#include "core/join_view.h"
#include "util/rng.h"
#include "util/statusor.h"

namespace cextend {

struct Phase1HasseStats {
  size_t rows_assigned = 0;
  /// Tuples a CC wanted but could not get (each unit is one CC count of
  /// error inherited by the output).
  int64_t shortfall = 0;
};

/// Runs Algorithm 2 over `ccs` (which must be free of intersecting pairs;
/// the hybrid guarantees this). `matches[i]` is `ccs[i]`'s entry and
/// `diagram` is precomputed over exactly `ccs`. Assigns B cells in the fill
/// state.
void RunPhase1Hasse(FillState& state, const ComboIndex& combos,
                    const std::vector<CardinalityConstraint>& ccs,
                    const std::vector<CcMatch>& matches,
                    const HasseDiagram& diagram, Phase1HasseStats* stats);

/// Convenience for standalone use/tests: classifies and matches `ccs`,
/// builds the Hasse diagram and runs the algorithm. `r2` is the table
/// `combos` was built from. Fails when `ccs` contains an intersecting pair.
Status RunPhase1HasseStandalone(FillState& state, const ComboIndex& combos,
                                const std::vector<CardinalityConstraint>& ccs,
                                const Schema& r1_schema, const Table& r2,
                                Phase1HasseStats* stats);

struct FinalFillStats {
  size_t completed_rows = 0;
  size_t invalid_rows = 0;
};

enum class LeftoverMode {
  /// Complete leftover rows with combos that newly satisfy no CC in
  /// `avoid_ccs`; rows with no such combo become invalid (paper behaviour).
  kAvoidCcs,
  /// Complete leftover rows with uniformly random R2 combos (the baseline's
  /// behaviour); never produces invalid rows.
  kRandom,
};

/// Algorithm 2 lines 14-17, shared by the hybrid and the baselines: completes
/// every row still missing B values. Returns the rows left invalid.
/// `avoid_matches[i]` is `avoid_ccs[i]`'s entry (read in kAvoidCcs mode).
///
/// `dc_classes` (empty when there are no DCs) is the DC classification of
/// the fill state's join view and enables the DC-aware capacity refinement:
/// a row's clique classes are the binary DCs its bucket is self-adjacent
/// under (owner-owner style: two rows of the class sharing an FK violate the
/// DC), and the fill keeps the number of clique-class rows per combo below
/// the combo's key count whenever possible, so phase II rarely needs fresh
/// keys. The fill reads the classification only, never the DCs.
StatusOr<std::vector<uint32_t>> CompleteLeftoverRows(
    FillState& state, const ComboIndex& combos,
    const std::vector<CardinalityConstraint>& avoid_ccs,
    const std::vector<CcMatch>& avoid_matches, const DcRowClasses& dc_classes,
    LeftoverMode mode, Rng& rng, FinalFillStats* stats);

}  // namespace cextend

#endif  // CEXTEND_CORE_PHASE1_HASSE_H_
