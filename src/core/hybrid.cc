#include "core/hybrid.h"

#include <algorithm>

#include "constraints/hasse_diagram.h"
#include "constraints/relationship.h"
#include "util/logging.h"
#include "util/timer.h"
#include "util/union_find.h"

namespace cextend {

CcRouting RouteCcs(const CcRelationMatrix& relations,
                   const std::vector<CardinalityConstraint>& ccs,
                   bool force_ilp) {
  // One pass over the pairs (i, j), i < j, in j-major order, so every
  // earlier CC's fate is settled when j is decided. j is dropped at its
  // first active duplicate with an equal target, and pairs after that are
  // not looked at; a duplicate with a conflicting target is tainted (the
  // contradiction goes to the ILP, whose slack absorbs it). Intersecting
  // and containment pairs count only once j is known to survive.
  CcRouting routing;
  const size_t n = ccs.size();
  std::vector<char> active(n, 1);
  std::vector<char> tainted(n, 0);
  UnionFind components(n);
  std::vector<size_t> intersecting, contained;  // active i < j
  for (size_t j = 1; j < n; ++j) {
    intersecting.clear();
    contained.clear();
    for (size_t i = 0; i < j && active[j]; ++i) {
      if (!active[i]) continue;
      switch (relations.At(i, j)) {
        case CcRelation::kEqual:
          if (ccs[i].target == ccs[j].target) {
            active[j] = 0;
            ++routing.duplicates_dropped;
          } else {
            tainted[i] = tainted[j] = 1;
          }
          break;
        case CcRelation::kIntersecting:
          intersecting.push_back(i);
          break;
        case CcRelation::kFirstInSecond:
        case CcRelation::kSecondInFirst:
          contained.push_back(i);
          break;
        case CcRelation::kDisjoint:
          break;
      }
    }
    if (!active[j]) continue;
    if (!intersecting.empty()) tainted[j] = 1;
    for (size_t i : intersecting) tainted[i] = 1;
    for (size_t i : contained) components.Union(i, j);
  }

  std::vector<char> component_tainted(n, 0);
  for (size_t i = 0; i < n; ++i) {
    if (!active[i]) continue;
    routing.active.push_back(static_cast<int>(i));
    if (force_ilp || tainted[i]) component_tainted[components.Find(i)] = 1;
  }
  for (size_t a = 0; a < routing.active.size(); ++a) {
    const size_t id = static_cast<size_t>(routing.active[a]);
    (component_tainted[components.Find(id)] ? routing.s2 : routing.s1)
        .push_back(static_cast<int>(a));
  }
  return routing;
}

StatusOr<HybridResult> RunHybridPhase1(
    Table& v_join, const Table& r2, const PairSchema& names,
    const std::vector<CardinalityConstraint>& ccs,
    const std::vector<DenialConstraint>& dcs, const HybridOptions& options) {
  HybridResult result;
  HybridStats& stats = result.stats;
  Rng rng(options.seed);
  CEXTEND_RETURN_IF_ERROR(options.run_control.Check());
  CEXTEND_ASSIGN_OR_RETURN(std::vector<BoundDenialConstraint> bound_dcs,
                           BindAll(dcs, v_join));

  // Routing: classify every pair, then RouteCcs splits the active CCs into
  // S1 (Algorithm 2) and S2 (Algorithm 1). R1-side conditions are
  // classified against the join view's schema (it carries all A columns);
  // R2-side against R2.
  CcRouting routing;
  std::vector<CardinalityConstraint> active_ccs, s1_ccs, s2_ccs;
  HasseDiagram s1_diagram;
  {
    ScopedTimer timer(&stats.pairwise_seconds);
    CEXTEND_ASSIGN_OR_RETURN(CcRelationMatrix relations,
                             ClassifyAll(ccs, v_join.schema(), r2.schema()));
    routing = RouteCcs(relations, ccs, options.force_ilp);
    for (int id : routing.active) {
      active_ccs.push_back(ccs[static_cast<size_t>(id)]);
    }
    std::vector<int> s1_ids;  // CC ids of S1, for its diagram
    for (int a : routing.s1) {
      s1_ids.push_back(routing.active[static_cast<size_t>(a)]);
      s1_ccs.push_back(active_ccs[static_cast<size_t>(a)]);
    }
    for (int a : routing.s2) {
      s2_ccs.push_back(active_ccs[static_cast<size_t>(a)]);
    }
    if (!s1_ids.empty()) {
      s1_diagram = HasseDiagram::Build(relations.Restrict(s1_ids));
    }
  }
  stats.duplicate_ccs_dropped = routing.duplicates_dropped;
  stats.ccs_to_hasse = routing.s1.size();
  stats.ccs_to_ilp = routing.s2.size();

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
    CEXTEND_ASSIGN_OR_RETURN(matches,
                             MatchCcs(binning, combos, r2, active_ccs));
    CEXTEND_ASSIGN_OR_RETURN(state,
                             FillState::Create(&v_join, names, &binning));
  }

  CEXTEND_RETURN_IF_ERROR(options.run_control.Check());

  // --- Algorithm 2 over S1. ---
  if (!routing.s1.empty()) {
    ScopedTimer timer(&stats.recursion_seconds);
    std::vector<CcMatch> s1_matches;
    for (int a : routing.s1) {
      s1_matches.push_back(matches[static_cast<size_t>(a)]);
    }
    RunPhase1Hasse(state, combos, s1_ccs, s1_matches, s1_diagram,
                   &stats.hasse);
  }

  CEXTEND_RETURN_IF_ERROR(options.run_control.Check());

  // --- Algorithm 1 over S2. ---
  if (!routing.s2.empty()) {
    ScopedTimer timer(&stats.ilp_seconds);
    std::vector<CcMatch> s2_matches;
    for (int a : routing.s2) {
      s2_matches.push_back(matches[static_cast<size_t>(a)]);
    }
    Phase1IlpOptions ilp_options = options.ilp;
    if (!ilp_options.ilp.run_control.CanInterrupt()) {
      ilp_options.ilp.run_control = options.run_control;
    }
    CEXTEND_RETURN_IF_ERROR(
        RunPhase1Ilp(state, combos, s2_ccs, s2_matches, ilp_options,
                     &stats.ilp));
  }

  CEXTEND_RETURN_IF_ERROR(options.run_control.Check());

  // --- Final fill (Algorithm 2 lines 14-17, shared). ---
  {
    ScopedTimer timer(&stats.final_fill_seconds);
    result.dc_classes = DcRowClasses::Build(v_join, std::move(bound_dcs));
    CEXTEND_ASSIGN_OR_RETURN(
        result.invalid_rows,
        CompleteLeftoverRows(state, combos, active_ccs, matches,
                             result.dc_classes, options.leftover_mode, rng,
                             &stats.fill));
  }
  return result;
}

}  // namespace cextend
