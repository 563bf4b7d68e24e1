#include "core/phase1_ilp.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>

#include "ilp/branch_and_bound.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/timer.h"
#include "util/union_find.h"

namespace cextend {
namespace {

/// Combo class of a bin class's aggregated leftover variable.
constexpr size_t kUnused = static_cast<size_t>(-1);

/// One connected component of the (bins, CCs) incidence structure. CC and
/// bin ids are global; both lists are ascending.
struct Component {
  std::vector<size_t> ccs;
  std::vector<size_t> bins;
};

struct BuiltModel {
  ilp::Model model;
  /// Combo class per structural variable (kUnused: leftover variable).
  std::vector<size_t> combo_class;
  std::vector<std::vector<size_t>> bin_classes;    // member bins, ascending
  std::vector<std::vector<size_t>> combo_classes;  // member combos, ascending
  std::vector<std::vector<int>> class_vars;  // var ids per bin class
  std::vector<size_t> class_rows;            // remaining rows per bin class
  std::vector<int> slack_vars;               // u,v interleaved per CC
  size_t num_structural = 0;
  size_t num_ccs = 0;
};

/// Groups `items` (ascending, each with the ascending local ids of the CCs
/// covering it) into classes of equal CC lists, numbered in first-item
/// order. Returns each class's items; `cc_classes[k]` gets the classes CC
/// k covers, ascending.
std::vector<std::vector<size_t>> GroupByCoveringCcs(
    const std::vector<std::pair<size_t, std::vector<uint32_t>>>& items,
    std::vector<std::vector<size_t>>* cc_classes) {
  std::vector<std::vector<size_t>> classes;
  std::map<std::vector<uint32_t>, size_t> class_of_key;
  for (const auto& [item, key] : items) {
    auto [it, inserted] = class_of_key.try_emplace(key, classes.size());
    if (inserted) {
      for (uint32_t k : key) (*cc_classes)[k].push_back(classes.size());
      classes.emplace_back();
    }
    classes[it->second].push_back(item);
  }
  return classes;
}

/// Builds the sub-model for `comp` in the encoding documented in
/// phase1_ilp.h: (bin class, combo class) pair variables in ascending
/// (bin class, combo class) order, then one unused variable per bin class,
/// then bin-class rows, then CC rows with slack.
BuiltModel BuildComponentModel(FillState& state, const Component& comp,
                               const std::vector<CardinalityConstraint>& ccs,
                               const std::vector<CcMatch>& matches,
                               bool marginals) {
  BuiltModel built;
  const size_t num_local = comp.ccs.size();
  built.num_ccs = num_local;

  // Covering component CCs (local ids, ascending) per bin with rows left
  // and per combo. A CC whose R2 condition matches no combo covers no pair.
  std::vector<std::pair<size_t, std::vector<uint32_t>>> bin_keys;
  bin_keys.reserve(comp.bins.size());
  for (size_t bin : comp.bins) bin_keys.push_back({bin, {}});
  std::map<size_t, std::vector<uint32_t>> combo_key;
  for (uint32_t k = 0; k < num_local; ++k) {
    const CcMatch& match = matches[comp.ccs[k]];
    if (match.combos.empty()) continue;
    for (size_t bin : match.bins) {
      if (state.pool(bin).empty()) continue;  // nothing left to assign here
      auto it = std::lower_bound(comp.bins.begin(), comp.bins.end(), bin);
      bin_keys[static_cast<size_t>(it - comp.bins.begin())].second.push_back(k);
    }
    for (size_t combo : match.combos) combo_key[combo].push_back(k);
  }
  std::vector<std::pair<size_t, std::vector<uint32_t>>> combo_keys(
      combo_key.begin(), combo_key.end());
  std::vector<std::vector<size_t>> cc_bin_classes(num_local);
  std::vector<std::vector<size_t>> cc_combo_classes(num_local);
  built.bin_classes = GroupByCoveringCcs(bin_keys, &cc_bin_classes);
  built.combo_classes = GroupByCoveringCcs(combo_keys, &cc_combo_classes);
  const size_t num_bin_classes = built.bin_classes.size();
  const size_t num_combo_classes = built.combo_classes.size();

  // One variable per (bin class, combo class) pair sharing a covering CC,
  // keyed b * num_combo_classes + c; variable i is pairs[i].
  std::vector<uint64_t> pairs;
  for (size_t k = 0; k < num_local; ++k) {
    for (size_t b : cc_bin_classes[k]) {
      for (size_t c : cc_combo_classes[k]) {
        pairs.push_back(static_cast<uint64_t>(b) * num_combo_classes + c);
      }
    }
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  built.class_vars.resize(num_bin_classes);
  for (uint64_t pair : pairs) {
    const size_t b = static_cast<size_t>(pair / num_combo_classes);
    int var = built.model.AddVariable(/*objective=*/0.0, /*is_integer=*/true);
    built.combo_class.push_back(static_cast<size_t>(pair % num_combo_classes));
    built.class_vars[b].push_back(var);
  }
  // Aggregated unused variable per bin class.
  built.class_rows.assign(num_bin_classes, 0);
  for (size_t b = 0; b < num_bin_classes; ++b) {
    int var = built.model.AddVariable(0.0, /*is_integer=*/true);
    built.combo_class.push_back(kUnused);
    built.class_vars[b].push_back(var);
    for (size_t bin : built.bin_classes[b]) {
      built.class_rows[b] += state.pool(bin).size();
    }
  }
  built.num_structural = built.model.num_variables();

  // Bin-class marginal rows (hard equalities): the class's pool sizes.
  if (marginals) {
    for (size_t b = 0; b < num_bin_classes; ++b) {
      std::vector<ilp::LinearTerm> terms;
      terms.reserve(built.class_vars[b].size());
      for (int var : built.class_vars[b]) terms.push_back({var, 1.0});
      built.model.AddConstraint(std::move(terms), ilp::Sense::kEq,
                                static_cast<double>(built.class_rows[b]));
    }
  }
  // Without marginals there are *no* bin rows (the plain baseline of
  // Section 6.1): the ILP may then demand more tuples of a type than R1
  // has, and the greedy fill's "at most v_i tuples" silently undercounts —
  // exactly the CC-error mechanism the paper attributes to the baseline.

  // CC rows with slack:  sum x + u - v = target,  minimize sum(u+v).
  for (size_t k = 0; k < num_local; ++k) {
    std::vector<ilp::LinearTerm> terms;
    terms.reserve(cc_bin_classes[k].size() * cc_combo_classes[k].size() + 2);
    for (size_t b : cc_bin_classes[k]) {
      for (size_t c : cc_combo_classes[k]) {
        const uint64_t pair = static_cast<uint64_t>(b) * num_combo_classes + c;
        const auto it = std::lower_bound(pairs.begin(), pairs.end(), pair);
        terms.push_back({static_cast<int>(it - pairs.begin()), 1.0});
      }
    }
    const CardinalityConstraint& cc = ccs[comp.ccs[k]];
    int u = built.model.AddVariable(1.0, /*is_integer=*/false);
    int v = built.model.AddVariable(1.0, /*is_integer=*/false);
    built.slack_vars.push_back(u);
    built.slack_vars.push_back(v);
    terms.push_back({u, 1.0});
    terms.push_back({v, -1.0});
    built.model.AddConstraint(std::move(terms), ilp::Sense::kEq,
                              static_cast<double>(cc.target), cc.name);
  }
  return built;
}

/// Rounding heuristic for one component: round structural vars, restore bin
/// sums through the unused variable (or by trimming), then recompute slacks
/// exactly. Always produces a feasible point, so branch & bound starts with
/// an incumbent.
std::optional<std::vector<double>> RoundLpPoint(const BuiltModel& built,
                                                bool marginals,
                                                const std::vector<double>& lp) {
  std::vector<double> x = lp;
  for (size_t i = 0; i < built.num_structural; ++i)
    x[i] = std::max(0.0, std::round(x[i]));
  for (size_t b = 0; marginals && b < built.class_vars.size(); ++b) {
    const std::vector<int>& vars = built.class_vars[b];
    if (vars.empty()) continue;
    double cap = static_cast<double>(built.class_rows[b]);
    double total = 0.0;
    int unused = -1;
    for (int var : vars) {
      total += x[static_cast<size_t>(var)];
      if (built.combo_class[static_cast<size_t>(var)] == kUnused)
        unused = var;
    }
    double excess = total - cap;
    if (excess > 0) {
      // Trim: unused first, then the largest variables.
      if (unused >= 0) {
        double cut = std::min(excess, x[static_cast<size_t>(unused)]);
        x[static_cast<size_t>(unused)] -= cut;
        excess -= cut;
      }
      for (int var : vars) {
        if (excess <= 0) break;
        double cut = std::min(excess, x[static_cast<size_t>(var)]);
        x[static_cast<size_t>(var)] -= cut;
        excess -= cut;
      }
    } else if (excess < 0) {
      if (unused >= 0) {
        x[static_cast<size_t>(unused)] += -excess;
      } else {
        x[static_cast<size_t>(vars[0])] += -excess;
      }
    }
  }
  // Recompute slacks row by row.
  size_t slack_idx = 0;
  size_t first_cc_row = built.model.num_constraints() - built.num_ccs;
  for (size_t c = 0; c < built.num_ccs; ++c) {
    const ilp::LinearConstraint& row =
        built.model.constraints()[first_cc_row + c];
    int u = built.slack_vars[slack_idx++];
    int v = built.slack_vars[slack_idx++];
    double lhs = 0.0;
    for (const ilp::LinearTerm& t : row.terms) {
      if (t.var == u || t.var == v) continue;
      lhs += t.coeff * x[static_cast<size_t>(t.var)];
    }
    double diff = row.rhs - lhs;  // want lhs + u - v = rhs
    x[static_cast<size_t>(u)] = std::max(0.0, diff);
    x[static_cast<size_t>(v)] = std::max(0.0, -diff);
  }
  return x;
}

bool Solved(ilp::IlpStatus s) {
  return s == ilp::IlpStatus::kOptimal || s == ilp::IlpStatus::kFeasible;
}

}  // namespace

std::vector<std::vector<ClassTake>> SplitClassValues(
    const std::vector<int64_t>& values, const std::vector<size_t>& pool_sizes) {
  std::vector<std::vector<ClassTake>> takes(values.size());
  size_t member = 0;
  size_t left = pool_sizes.empty() ? 0 : pool_sizes[0];
  for (size_t j = 0; j < values.size(); ++j) {
    size_t want = values[j] > 0 ? static_cast<size_t>(values[j]) : 0;
    while (want > 0 && member < pool_sizes.size()) {
      if (left == 0) {
        if (++member < pool_sizes.size()) left = pool_sizes[member];
        continue;
      }
      const size_t rows = std::min(want, left);
      takes[j].push_back({member, rows});
      want -= rows;
      left -= rows;
    }
  }
  return takes;
}

Status RunPhase1Ilp(FillState& state, const ComboIndex& combos,
                    const std::vector<CardinalityConstraint>& ccs,
                    const std::vector<CcMatch>& matches,
                    const Phase1IlpOptions& options, Phase1IlpStats* stats) {
  if (ccs.empty()) return Status::Ok();

  std::vector<Component> components;
  std::vector<BuiltModel> models;
  {
    ScopedTimer timer(&stats->model_build_seconds);

    // Two CCs share model structure only through a bin (a common variable
    // requires a common bin, and bin rows couple every CC touching the
    // bin), so union CCs via first-seen bin owners. CCs whose R2 condition
    // matches no combo create no variables and stay singletons.
    UnionFind uf(ccs.size());
    std::unordered_map<size_t, size_t> bin_owner;  // bin -> first CC
    for (size_t c = 0; c < ccs.size(); ++c) {
      if (matches[c].combos.empty()) continue;
      for (size_t bin : matches[c].bins) {
        if (state.pool(bin).empty()) continue;
        auto [it, inserted] = bin_owner.emplace(bin, c);
        if (!inserted) uf.Union(c, it->second);
      }
    }
    std::unordered_map<size_t, size_t> root_slot;
    for (size_t c = 0; c < ccs.size(); ++c) {
      size_t root = uf.Find(c);
      auto [it, inserted] = root_slot.emplace(root, components.size());
      if (inserted) components.push_back({});
      components[it->second].ccs.push_back(c);
    }
    for (const auto& [bin, owner] : bin_owner) {
      components[root_slot.at(uf.Find(owner))].bins.push_back(bin);
    }
    for (Component& comp : components) {
      std::sort(comp.bins.begin(), comp.bins.end());
    }

    models.reserve(components.size());
    for (const Component& comp : components) {
      models.push_back(BuildComponentModel(state, comp, ccs, matches,
                                           options.include_marginals));
      stats->num_variables += models.back().model.num_variables();
      stats->num_rows += models.back().model.num_constraints();
      stats->largest_component = std::max(stats->largest_component,
                                          models.back().model.num_variables());
    }
    stats->num_components = components.size();
  }

  // Solve the components independently. Each solve is single-threaded and
  // deterministic; slots are disjoint, so any thread count yields the same
  // results.
  std::vector<ilp::IlpResult> results(models.size());
  {
    ScopedTimer timer(&stats->solve_seconds);
    const bool marginals = options.include_marginals;
    auto solve_component = [&](size_t idx) {
      // Deadline/cancel check at task start: remaining components are
      // skipped (their results stay kNoSolution) and the trip is reported
      // after the deterministic merge.
      Status rc = options.ilp.run_control.Check();
      if (!rc.ok()) {
        results[idx].interrupt = std::move(rc);
        return;
      }
      const BuiltModel& built = models[idx];
      ilp::IlpOptions ilp_options = options.ilp;
      ilp_options.objective_target = 0.0;  // zero slack == all CCs satisfied
      ilp_options.rounding_heuristic =
          [&built, marginals](const std::vector<double>& lp) {
            return RoundLpPoint(built, marginals, lp);
          };
      results[idx] = ilp::SolveIlp(built.model, ilp_options);
    };
    ParallelFor(options.num_threads, models.size(), solve_component);
  }

  // Deterministic merge in component order.
  size_t num_optimal = 0, num_solved = 0;
  ilp::IlpStatus first_failure = ilp::IlpStatus::kNoSolution;
  bool have_failure = false;
  Status interrupt;
  for (const ilp::IlpResult& r : results) {
    stats->lp_iterations += r.lp_iterations;
    stats->bnb_nodes += r.nodes;
    stats->warm_solves += r.warm_solves;
    stats->cold_fallbacks += r.cold_fallbacks;
    if (interrupt.ok() && !r.interrupt.ok()) interrupt = r.interrupt;
    if (Solved(r.status)) {
      ++num_solved;
      if (r.status == ilp::IlpStatus::kOptimal) ++num_optimal;
      stats->slack_total += r.objective;
    } else if (!have_failure) {
      have_failure = true;
      first_failure = r.status;
    }
  }
  // A deadline/cancel trip is not a "hard instance": surface it instead of
  // degrading to the leftover fill, so callers never mistake an interrupted
  // solve for a completed one.
  if (!interrupt.ok()) return interrupt;
  if (num_solved == 0) {
    // Leave all rows in the pools; the final fill deals with them. This
    // mirrors the paper's tolerance of CC error when the system is hard.
    stats->status = first_failure;
    return Status::Ok();
  }
  stats->status = num_optimal == results.size() ? ilp::IlpStatus::kOptimal
                                                : ilp::IlpStatus::kFeasible;

  // Greedy fill (Algorithm 1 lines 15-17) over the classes: each bin
  // class's values are split onto its member bins by SplitClassValues, and
  // the rows a pair variable takes get its combo class's members round
  // robin over ExpandByKeyCount (one cursor per combo class). Components
  // own disjoint bins, so each pool is popped by one component.
  {
    ScopedTimer timer(&stats->fill_seconds);
    for (size_t idx = 0; idx < models.size(); ++idx) {
      if (!Solved(results[idx].status)) continue;  // leave this component pooled
      const BuiltModel& built = models[idx];
      std::vector<std::vector<size_t>> rotations(built.combo_classes.size());
      std::vector<size_t> cursors(built.combo_classes.size(), 0);
      for (size_t b = 0; b < built.class_vars.size(); ++b) {
        const std::vector<int>& vars = built.class_vars[b];
        const std::vector<size_t>& members = built.bin_classes[b];
        const std::vector<double>& solution = results[idx].values;
        std::vector<int64_t> values;
        values.reserve(vars.size());
        for (int var : vars) {
          values.push_back(std::llround(solution[static_cast<size_t>(var)]));
        }
        std::vector<size_t> pool_sizes;
        pool_sizes.reserve(members.size());
        for (size_t bin : members) pool_sizes.push_back(state.pool(bin).size());
        const std::vector<std::vector<ClassTake>> takes =
            SplitClassValues(values, pool_sizes);
        for (size_t j = 0; j < vars.size(); ++j) {
          const size_t c = built.combo_class[static_cast<size_t>(vars[j])];
          if (c == kUnused) continue;  // stays pooled
          std::vector<size_t>& rotation = rotations[c];
          if (rotation.empty()) {
            rotation = combos.ExpandByKeyCount(built.combo_classes[c]);
          }
          for (const ClassTake& take : takes[j]) {
            const size_t bin = members[take.member];
            for (uint32_t row : state.PopRows(bin, take.rows)) {
              const size_t combo = rotation[cursors[c]++ % rotation.size()];
              state.AssignFullCombo(row, combos.combo_codes(combo));
            }
          }
        }
      }
    }
  }
  return Status::Ok();
}

}  // namespace cextend
