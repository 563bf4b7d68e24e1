// Phase I hybrid approach (Section 4.3): split S_CC into the diagrams free of
// intersections (handled exactly by Algorithm 2) and the rest (handled by the
// ILP of Algorithm 1 with modified marginals), then complete leftovers.
// RouteCcs makes the split in one pass over the classified pairs and, from
// the containment pairs it meets there, builds the Hasse diagram that
// Algorithm 2 recurses over.
// Every active CC is matched against the bins and R2 combos once, right
// after binning (the CcMatch table of core/fill_state.h); both algorithms
// and the final fill read their CCs' entries from that table.

#ifndef CEXTEND_CORE_HYBRID_H_
#define CEXTEND_CORE_HYBRID_H_

#include <cstdint>
#include <vector>

#include "constraints/cardinality_constraint.h"
#include "constraints/denial_constraint.h"
#include "constraints/relationship.h"
#include "core/binning.h"
#include "core/join_view.h"
#include "core/phase1_hasse.h"
#include "core/phase1_ilp.h"
#include "relational/table.h"
#include "util/deadline.h"
#include "util/statusor.h"

namespace cextend {

struct HybridOptions {
  Phase1IlpOptions ilp;
  uint64_t seed = 1;
  /// Force all CCs down the ILP path (pure Algorithm 1; used by baselines
  /// and ablations). The Hasse path is skipped entirely.
  bool force_ilp = false;
  /// Leftover completion behaviour (the baseline uses kRandom).
  LeftoverMode leftover_mode = LeftoverMode::kAvoidCcs;
  /// Deadline/cancellation, checked between phase-1 stages and forwarded
  /// into the ILP (unless `ilp.ilp.run_control` carries its own).
  RunControl run_control;
};

struct HybridStats {
  /// CC pair classification plus routing (RouteCcs, which also builds
  /// S1's Hasse diagram) and the active CC list.
  double pairwise_seconds = 0.0;
  double binning_seconds = 0.0;   ///< binning, combo index, CC matching
  double recursion_seconds = 0.0; ///< Algorithm 2 (Hasse recursion)
  double ilp_seconds = 0.0;       ///< Algorithm 1 (model + solve + fill)
  double final_fill_seconds = 0.0;
  size_t ccs_to_hasse = 0;
  size_t ccs_to_ilp = 0;
  size_t duplicate_ccs_dropped = 0;
  Phase1HasseStats hasse;
  Phase1IlpStats ilp;
  FinalFillStats fill;
};

struct HybridResult {
  std::vector<uint32_t> invalid_rows;
  /// The R2 combo index built for binning — plan-scoped state the solver
  /// hands to BuildSynthesisPlan so repair combo selection reuses it instead
  /// of rebuilding the index over R2.
  ComboIndex combos;
  /// The DC classification of the join view the final fill read — handed to
  /// PreparePlan the same way, so phase II's oracle builds reuse it.
  DcRowClasses dc_classes;
  HybridStats stats;
};

/// Which CCs each phase-I algorithm gets (Section 4.3).
struct CcRouting {
  std::vector<int> active;  ///< CCs kept after dropping duplicates, ascending
  std::vector<int> s1;      ///< indices into `active`: Algorithm 2
  std::vector<int> s2;      ///< indices into `active`: Algorithm 1
  /// S1's Hasse diagram, by index into `active` (S2's CCs have no children
  /// and are no roots): what Algorithm 2 recurses over.
  HasseDiagram s1_diagram;
  size_t duplicates_dropped = 0;
};

/// Routes `ccs`, whose pairwise relations are `relations`. An exact
/// duplicate (kEqual) with an equal target is dropped; duplicates with
/// conflicting targets and intersecting active pairs are tainted. Active
/// CCs joined by containment pairs form the components of their Hasse
/// diagram (every containment pair is linked by a chain of covering
/// edges); a component with a tainted CC, or every CC under `force_ilp`,
/// goes to S2, the rest to S1. The covering edges are found among S1's
/// containment pairs only, so this is the one place phase I derives
/// containment structure.
CcRouting RouteCcs(const CcRelationMatrix& relations,
                   const std::vector<CardinalityConstraint>& ccs,
                   bool force_ilp);

/// Runs phase I over `v_join` (mutated in place). `dcs` (may be empty) only
/// inform the DC-aware leftover completion (see CompleteLeftoverRows)
/// through the classification phase II reuses. They are bound against
/// `v_join` here (a DC that does not bind fails the run) and must read only
/// R1's key and A columns: the classification is built before the B cells
/// are complete.
StatusOr<HybridResult> RunHybridPhase1(
    Table& v_join, const Table& r2, const PairSchema& names,
    const std::vector<CardinalityConstraint>& ccs,
    const std::vector<DenialConstraint>& dcs, const HybridOptions& options);

}  // namespace cextend

#endif  // CEXTEND_CORE_HYBRID_H_
