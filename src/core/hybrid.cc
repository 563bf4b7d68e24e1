#include "core/hybrid.h"

#include <algorithm>

#include "constraints/hasse_diagram.h"
#include "constraints/relationship.h"
#include "util/logging.h"
#include "util/timer.h"

namespace cextend {

StatusOr<HybridResult> RunHybridPhase1(
    Table& v_join, const Table& r2, const PairSchema& names,
    const std::vector<CardinalityConstraint>& ccs,
    const std::vector<DenialConstraint>& dcs, const HybridOptions& options) {
  HybridResult result;
  HybridStats& stats = result.stats;
  Rng rng(options.seed);
  CEXTEND_RETURN_IF_ERROR(options.run_control.Check());

  // R1-side conditions are classified against the join view's schema (it
  // carries all A columns); R2-side against R2.
  CcRelationMatrix relations;
  {
    ScopedTimer timer(&stats.pairwise_seconds);
    CEXTEND_ASSIGN_OR_RETURN(relations,
                             ClassifyAll(ccs, v_join.schema(), r2.schema()));
  }

  // Drop exact duplicates (identical conditions). Duplicates with equal
  // targets are redundant; with conflicting targets both go to the ILP whose
  // slack absorbs the contradiction.
  size_t n = ccs.size();
  std::vector<char> active(n, 1);
  std::vector<char> tainted(n, 0);
  for (size_t i = 0; i < n; ++i) {
    if (!active[i]) continue;
    for (size_t j = i + 1; j < n; ++j) {
      if (!active[j] || relations.At(i, j) != CcRelation::kEqual) continue;
      if (ccs[i].target == ccs[j].target) {
        active[j] = 0;
        ++stats.duplicate_ccs_dropped;
      } else {
        tainted[i] = tainted[j] = 1;  // contradictory duplicates -> ILP
      }
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (!active[i]) continue;
    for (size_t j = i + 1; j < n; ++j) {
      if (!active[j]) continue;
      if (relations.At(i, j) == CcRelation::kIntersecting) {
        tainted[i] = tainted[j] = 1;
      }
    }
  }

  std::vector<int> active_ids;
  for (size_t i = 0; i < n; ++i) {
    if (active[i]) active_ids.push_back(static_cast<int>(i));
  }
  std::vector<CardinalityConstraint> active_ccs;
  for (int id : active_ids) active_ccs.push_back(ccs[static_cast<size_t>(id)]);

  // Sub-matrix over the active CCs, then the Hasse diagram; components
  // containing a tainted CC are routed to the ILP (paper: discard diagrams
  // with intersecting CCs).
  CcRelationMatrix sub = relations.Restrict(active_ids);
  HasseDiagram diagram = HasseDiagram::Build(sub);

  std::vector<int> s1_local, s2_local;  // indices into active_ccs
  {
    std::vector<char> comp_tainted(diagram.num_components(), 0);
    for (size_t a = 0; a < active_ids.size(); ++a) {
      if (options.force_ilp ||
          tainted[static_cast<size_t>(active_ids[a])]) {
        comp_tainted[static_cast<size_t>(
            diagram.component(static_cast<int>(a)))] = 1;
      }
    }
    for (size_t a = 0; a < active_ids.size(); ++a) {
      if (comp_tainted[static_cast<size_t>(
              diagram.component(static_cast<int>(a)))]) {
        s2_local.push_back(static_cast<int>(a));
      } else {
        s1_local.push_back(static_cast<int>(a));
      }
    }
  }
  stats.ccs_to_hasse = s1_local.size();
  stats.ccs_to_ilp = s2_local.size();

  // Binning over the full active CC set: shared by both algorithms and the
  // final fill; bin counts restricted to unassigned rows are the paper's
  // "modified marginals" for the ILP. Each active CC is matched against the
  // bins and combos here, once; every stage below reads its entries.
  Binning binning;
  ComboIndex& combos = result.combos;  // plan-scoped: outlives phase 1
  std::vector<CcMatch> matches;
  FillState state;
  {
    ScopedTimer timer(&stats.binning_seconds);
    CEXTEND_ASSIGN_OR_RETURN(
        binning, Binning::Create(v_join, names.r1_attrs, active_ccs));
    CEXTEND_ASSIGN_OR_RETURN(combos, ComboIndex::Build(r2, names));
    CEXTEND_ASSIGN_OR_RETURN(matches, MatchCcs(binning, combos, active_ccs));
    CEXTEND_ASSIGN_OR_RETURN(state,
                             FillState::Create(&v_join, names, &binning));
  }

  CEXTEND_RETURN_IF_ERROR(options.run_control.Check());

  // --- Algorithm 2 over S1. ---
  if (!s1_local.empty()) {
    std::vector<CardinalityConstraint> s1_ccs;
    std::vector<CcMatch> s1_matches;
    for (int a : s1_local) {
      s1_ccs.push_back(active_ccs[static_cast<size_t>(a)]);
      s1_matches.push_back(matches[static_cast<size_t>(a)]);
    }
    CcRelationMatrix s1_rel = sub.Restrict(s1_local);
    HasseDiagram s1_diagram = HasseDiagram::Build(s1_rel);
    ScopedTimer timer(&stats.recursion_seconds);
    RunPhase1Hasse(state, combos, s1_ccs, s1_matches, s1_diagram,
                   &stats.hasse);
  }

  CEXTEND_RETURN_IF_ERROR(options.run_control.Check());

  // --- Algorithm 1 over S2. ---
  if (!s2_local.empty()) {
    std::vector<CardinalityConstraint> s2_ccs;
    std::vector<CcMatch> s2_matches;
    for (int a : s2_local) {
      s2_ccs.push_back(active_ccs[static_cast<size_t>(a)]);
      s2_matches.push_back(matches[static_cast<size_t>(a)]);
    }
    Phase1IlpOptions ilp_options = options.ilp;
    if (!ilp_options.ilp.run_control.CanInterrupt()) {
      ilp_options.ilp.run_control = options.run_control;
    }
    ScopedTimer timer(&stats.ilp_seconds);
    CEXTEND_RETURN_IF_ERROR(
        RunPhase1Ilp(state, combos, s2_ccs, s2_matches, ilp_options,
                     &stats.ilp));
  }

  CEXTEND_RETURN_IF_ERROR(options.run_control.Check());

  // --- Final fill (Algorithm 2 lines 14-17, shared). ---
  {
    ScopedTimer timer(&stats.final_fill_seconds);
    CEXTEND_ASSIGN_OR_RETURN(
        result.invalid_rows,
        CompleteLeftoverRows(state, combos, active_ccs, matches, dcs,
                             options.leftover_mode, rng, &stats.fill));
  }
  return result;
}

}  // namespace cextend
