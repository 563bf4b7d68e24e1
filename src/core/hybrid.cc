#include "core/hybrid.h"

#include <algorithm>
#include <utility>

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
  std::vector<std::pair<size_t, size_t>> below;  // (c, p): active c ⊂ p
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
    for (size_t i : contained) {
      components.Union(i, j);
      below.push_back(relations.At(i, j) == CcRelation::kFirstInSecond
                          ? std::pair{i, j}
                          : std::pair{j, i});
    }
  }

  std::vector<char> component_tainted(n, 0);
  std::vector<int> position(n, -1);  // CC id -> index in `active`
  for (size_t i = 0; i < n; ++i) {
    if (!active[i]) continue;
    position[i] = static_cast<int>(routing.active.size());
    routing.active.push_back(static_cast<int>(i));
    if (force_ilp || tainted[i]) component_tainted[components.Find(i)] = 1;
  }
  for (size_t a = 0; a < routing.active.size(); ++a) {
    const size_t id = static_cast<size_t>(routing.active[a]);
    (component_tainted[components.Find(id)] ? routing.s2 : routing.s1)
        .push_back(static_cast<int>(a));
  }

  // S1's Hasse diagram. p covers c when c ⊂ p and no other superset k of c
  // has k ⊂ p. Sorted by child, the pairs give each child's supersets as
  // one run, and the children of every p come out ascending.
  HasseDiagram& diagram = routing.s1_diagram;
  diagram.children.resize(routing.active.size());
  std::erase_if(below, [&](const std::pair<size_t, size_t>& pair) {
    return component_tainted[components.Find(pair.first)] != 0;
  });
  std::sort(below.begin(), below.end());
  std::vector<char> has_parent(n, 0);
  for (size_t lo = 0, hi = 0; lo < below.size(); lo = hi) {
    const size_t child = below[lo].first;
    while (hi < below.size() && below[hi].first == child) ++hi;
    has_parent[child] = 1;
    for (size_t p = lo; p < hi; ++p) {
      const size_t parent = below[p].second;
      bool covers = true;
      for (size_t k = lo; k < hi && covers; ++k) {
        covers = relations.At(below[k].second, parent) !=
                 CcRelation::kFirstInSecond;
      }
      if (covers) {
        diagram.children[static_cast<size_t>(position[parent])].push_back(
            position[child]);
      }
    }
  }
  // A component's representative is its smallest CC, so ordering the roots
  // by (representative, index) groups them diagram by diagram in order of
  // each diagram's first CC.
  std::vector<std::pair<size_t, int>> roots;
  for (int a : routing.s1) {
    const size_t id =
        static_cast<size_t>(routing.active[static_cast<size_t>(a)]);
    if (!has_parent[id]) roots.emplace_back(components.Find(id), a);
  }
  std::sort(roots.begin(), roots.end());
  for (const auto& [component, a] : roots) diagram.roots.push_back(a);
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
  // S1 (Algorithm 2) and S2 (Algorithm 1) and builds S1's diagram. R1-side
  // conditions are classified against the join view's schema (it carries
  // all A columns); R2-side against R2.
  CcRouting routing;
  std::vector<CardinalityConstraint> active_ccs, s2_ccs;
  {
    ScopedTimer timer(&stats.pairwise_seconds);
    CEXTEND_ASSIGN_OR_RETURN(CcRelationMatrix relations,
                             ClassifyAll(ccs, v_join.schema(), r2.schema()));
    routing = RouteCcs(relations, ccs, options.force_ilp);
    for (int id : routing.active) {
      active_ccs.push_back(ccs[static_cast<size_t>(id)]);
    }
    for (int a : routing.s2) {
      s2_ccs.push_back(active_ccs[static_cast<size_t>(a)]);
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

  // --- Algorithm 2 over S1, by its diagram's indices into active_ccs. ---
  if (!routing.s1.empty()) {
    ScopedTimer timer(&stats.recursion_seconds);
    RunPhase1Hasse(state, combos, active_ccs, matches, routing.s1_diagram,
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
