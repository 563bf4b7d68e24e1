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

/// One structural variable of a phase-I (sub-)model.
struct VarInfo {
  size_t bin = 0;
  /// Combo id, or kUnused for the bin's aggregated leftover variable.
  static constexpr size_t kUnused = static_cast<size_t>(-1);
  size_t combo = kUnused;
};

/// One connected component of the (bins, CCs) incidence structure. CC and
/// bin ids are global; both lists are ascending.
struct Component {
  std::vector<size_t> ccs;
  std::vector<size_t> bins;
};

struct BuiltModel {
  ilp::Model model;
  std::vector<VarInfo> vars;              // structural variables only
  std::vector<std::vector<int>> bin_vars; // var ids per component bin slot
  std::vector<size_t> bin_ids;            // global bin id per slot
  std::vector<int> slack_vars;            // u,v interleaved per CC (2 per CC)
  size_t num_structural = 0;
  size_t num_ccs = 0;
};

/// Builds the sub-model for `comp` in the encoding documented in
/// phase1_ilp.h: CC-major structural variables, then per-bin unused
/// variables (bins ascending), then bin rows, then CC rows with slack.
BuiltModel BuildComponentModel(FillState& state, const Component& comp,
                               const std::vector<CardinalityConstraint>& ccs,
                               const std::vector<CcMatch>& matches,
                               bool marginals) {
  BuiltModel built;
  built.num_ccs = comp.ccs.size();
  built.bin_ids = comp.bins;
  built.bin_vars.resize(comp.bins.size());
  std::unordered_map<size_t, size_t> bin_slot;  // global bin -> local slot
  bin_slot.reserve(comp.bins.size());
  for (size_t s = 0; s < comp.bins.size(); ++s) bin_slot.emplace(comp.bins[s], s);

  std::unordered_map<size_t, std::map<size_t, int>> bin_combo_var;
  for (size_t c : comp.ccs) {
    for (size_t bin : matches[c].bins) {
      if (state.pool(bin).empty()) continue;  // nothing left to assign here
      auto slot_it = bin_slot.find(bin);
      if (slot_it == bin_slot.end()) continue;
      for (size_t combo : matches[c].combos) {
        auto [it, inserted] = bin_combo_var[bin].emplace(combo, -1);
        if (inserted) {
          int var = built.model.AddVariable(/*objective=*/0.0,
                                            /*is_integer=*/true);
          it->second = var;
          built.vars.push_back({bin, combo});
          built.bin_vars[slot_it->second].push_back(var);
        }
      }
    }
  }
  // Aggregated unused variable per component bin.
  for (size_t s = 0; s < comp.bins.size(); ++s) {
    int var = built.model.AddVariable(0.0, /*is_integer=*/true);
    built.vars.push_back({comp.bins[s], VarInfo::kUnused});
    built.bin_vars[s].push_back(var);
  }
  built.num_structural = built.model.num_variables();

  // Bin marginal rows (hard equalities).
  if (marginals) {
    for (size_t s = 0; s < comp.bins.size(); ++s) {
      std::vector<ilp::LinearTerm> terms;
      terms.reserve(built.bin_vars[s].size());
      for (int var : built.bin_vars[s]) terms.push_back({var, 1.0});
      built.model.AddConstraint(
          std::move(terms), ilp::Sense::kEq,
          static_cast<double>(state.pool(comp.bins[s]).size()));
    }
  }
  // Without marginals there are *no* bin rows (the plain baseline of
  // Section 6.1): the ILP may then demand more tuples of a type than R1
  // has, and the greedy fill's "at most v_i tuples" silently undercounts —
  // exactly the CC-error mechanism the paper attributes to the baseline.

  // CC rows with slack:  sum x + u - v = target,  minimize sum(u+v).
  for (size_t c : comp.ccs) {
    std::vector<ilp::LinearTerm> terms;
    for (size_t bin : matches[c].bins) {
      auto bc = bin_combo_var.find(bin);
      if (bc == bin_combo_var.end()) continue;
      for (size_t combo : matches[c].combos) {
        auto it = bc->second.find(combo);
        if (it != bc->second.end()) terms.push_back({it->second, 1.0});
      }
    }
    int u = built.model.AddVariable(1.0, /*is_integer=*/false);
    int v = built.model.AddVariable(1.0, /*is_integer=*/false);
    built.slack_vars.push_back(u);
    built.slack_vars.push_back(v);
    terms.push_back({u, 1.0});
    terms.push_back({v, -1.0});
    built.model.AddConstraint(std::move(terms), ilp::Sense::kEq,
                              static_cast<double>(ccs[c].target),
                              ccs[c].name);
  }
  return built;
}

/// Rounding heuristic for one component: round structural vars, restore bin
/// sums through the unused variable (or by trimming), then recompute slacks
/// exactly. Always produces a feasible point, so branch & bound starts with
/// an incumbent.
std::optional<std::vector<double>> RoundLpPoint(const BuiltModel& built,
                                                FillState& state,
                                                bool marginals,
                                                const std::vector<double>& lp) {
  std::vector<double> x = lp;
  for (size_t i = 0; i < built.num_structural; ++i)
    x[i] = std::max(0.0, std::round(x[i]));
  for (size_t s = 0; marginals && s < built.bin_vars.size(); ++s) {
    const std::vector<int>& vars = built.bin_vars[s];
    if (vars.empty()) continue;
    double cap = static_cast<double>(state.pool(built.bin_ids[s]).size());
    double total = 0.0;
    int unused = -1;
    for (int var : vars) {
      total += x[static_cast<size_t>(var)];
      if (built.vars[static_cast<size_t>(var)].combo == VarInfo::kUnused)
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
          [&built, &state, marginals](const std::vector<double>& lp) {
            return RoundLpPoint(built, state, marginals, lp);
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

  // Greedy fill (Algorithm 1 lines 15-17): for each variable of each solved
  // component, pop up to its value in rows from the bin and write the combo.
  // Components own disjoint bins, so each pool is popped by one component.
  {
    ScopedTimer timer(&stats->fill_seconds);
    for (size_t idx = 0; idx < models.size(); ++idx) {
      if (!Solved(results[idx].status)) continue;  // leave this component pooled
      const BuiltModel& built = models[idx];
      for (size_t i = 0; i < built.num_structural; ++i) {
        const VarInfo& info = built.vars[i];
        if (info.combo == VarInfo::kUnused) continue;
        int64_t count =
            static_cast<int64_t>(std::llround(results[idx].values[i]));
        if (count <= 0) continue;
        std::vector<uint32_t> rows =
            state.PopRows(info.bin, static_cast<size_t>(count));
        for (uint32_t row : rows) {
          state.AssignFullCombo(row, combos.combo_codes(info.combo));
        }
      }
    }
  }
  return Status::Ok();
}

}  // namespace cextend
