// Phase I, special case (Section 4.2, Algorithm 2): exact completion of
// V_join when the CC set has no intersecting constraints, by recursing on the
// Hasse diagram of CC containment, plus the shared final fill (lines 14-17)
// that completes leftover rows with combinations that add no CC counts.
// The diagram is not built here: RouteCcs (core/hybrid.h) finds it while it
// routes the CCs, from the containment pairs it already visits.
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

/// The Hasse diagram of CC containment (Section 4.2) over some of a CC
/// list, by position in that list. p covers c when c ⊂ p and no CC lies
/// strictly between them; each connected part is one of the paper's
/// "diagrams", and its maximal elements are its CCs contained in no other.
struct HasseDiagram {
  /// children[p]: the CCs p covers, ascending.
  std::vector<std::vector<int>> children;
  /// The maximal elements, diagram by diagram in order of each diagram's
  /// first CC, ascending within one. Algorithm 2 processes them in this
  /// order; it matters because two CCs with the same R1 condition and
  /// disjoint R2 conditions draw rows from the same bins.
  std::vector<int> roots;
};

/// Runs Algorithm 2 over the CCs of `diagram` (which must be free of
/// intersecting pairs; RouteCcs guarantees this for its S1 diagram).
/// `ccs[i]`'s entry is `matches[i]`; CCs outside the diagram are not read.
/// Assigns B cells in the fill state.
void RunPhase1Hasse(FillState& state, const ComboIndex& combos,
                    const std::vector<CardinalityConstraint>& ccs,
                    const std::vector<CcMatch>& matches,
                    const HasseDiagram& diagram, Phase1HasseStats* stats);

/// Convenience for standalone use/tests: classifies and routes `ccs` as the
/// hybrid does (exact duplicates are dropped), matches the rest and runs
/// the algorithm. `r2` is the table `combos` was built from. Fails with
/// FailedPrecondition when a CC would go to the ILP: it intersects another
/// or duplicates one with a different target.
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
