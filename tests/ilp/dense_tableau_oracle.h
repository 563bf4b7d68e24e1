// Reference oracle for the sparse LP/ILP stack: the original dense two-phase
// tableau (stores the full O(m·n) tableau and compiles variable upper bounds
// into extra rows) plus a small depth-first branch & bound over it. Neither
// shares code with revised_simplex.cc or branch_and_bound.cc; only the
// result types are common. Slow, but short enough to check by eye: the
// production solvers must reach the same status and optimal objective.

#ifndef CEXTEND_TESTS_ILP_DENSE_TABLEAU_ORACLE_H_
#define CEXTEND_TESTS_ILP_DENSE_TABLEAU_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "ilp/branch_and_bound.h"
#include "ilp/model.h"
#include "ilp/simplex.h"
#include "util/logging.h"

namespace cextend {
namespace ilp {
namespace dense_oracle {

inline constexpr int64_t kMaxIterations = 200000;
inline constexpr double kEps = 1e-9;
/// Consecutive degenerate pivots before switching to Bland's rule.
inline constexpr int kDegenerateSwitch = 64;
inline constexpr double kIntegralityTol = 1e-6;

/// Dense tableau state for the two-phase method.
struct Tableau {
  size_t m = 0;                      // active rows
  size_t n = 0;                      // total columns (structural+slack+art)
  std::vector<std::vector<double>> rows;  // each length n+1, last = rhs
  std::vector<double> obj;                // reduced costs, length n+1
  std::vector<int> basis;                 // basic variable per row
  std::vector<uint8_t> banned;            // columns barred from entering

  double& Rhs(size_t i) { return rows[i][n]; }

  /// Pivots on (row, col): row is normalized, col eliminated elsewhere.
  void Pivot(size_t row, size_t col) {
    std::vector<double>& pr = rows[row];
    double p = pr[col];
    CEXTEND_DCHECK(std::fabs(p) > kEps);
    double inv = 1.0 / p;
    for (double& v : pr) v *= inv;
    pr[col] = 1.0;  // fight rounding
    for (size_t i = 0; i < m; ++i) {
      if (i == row) continue;
      double f = rows[i][col];
      if (std::fabs(f) < kEps) continue;
      std::vector<double>& ri = rows[i];
      for (size_t j = 0; j <= n; ++j) ri[j] -= f * pr[j];
      ri[col] = 0.0;
    }
    double f = obj[col];
    if (std::fabs(f) > kEps) {
      for (size_t j = 0; j <= n; ++j) obj[j] -= f * pr[j];
      obj[col] = 0.0;
    }
    basis[row] = static_cast<int>(col);
  }

  /// Rebuilds the reduced-cost row for cost vector `c` (length n; rhs slot
  /// accumulates -objective value).
  void SetObjective(const std::vector<double>& c) {
    obj.assign(n + 1, 0.0);
    for (size_t j = 0; j < n; ++j) obj[j] = c[j];
    for (size_t i = 0; i < m; ++i) {
      double cb = c[static_cast<size_t>(basis[i])];
      if (cb == 0.0) continue;
      const std::vector<double>& ri = rows[i];
      for (size_t j = 0; j <= n; ++j) obj[j] -= cb * ri[j];
    }
  }

  double ObjectiveValue() const { return -obj[n]; }
};

enum class IterateOutcome { kOptimal, kUnbounded, kIterationLimit };

/// Runs primal simplex iterations until optimality for the current objective
/// row. Dantzig pricing, switching to Bland's rule after a run of degenerate
/// pivots to guarantee termination.
inline IterateOutcome Iterate(Tableau& t, int64_t& iterations) {
  int degenerate_run = 0;
  bool bland = false;
  while (iterations < kMaxIterations) {
    // Entering column.
    int enter = -1;
    double best = -kEps;
    for (size_t j = 0; j < t.n; ++j) {
      if (t.banned[j]) continue;
      double rc = t.obj[j];
      if (bland) {
        if (rc < -kEps) {
          enter = static_cast<int>(j);
          break;
        }
      } else if (rc < best) {
        best = rc;
        enter = static_cast<int>(j);
      }
    }
    if (enter < 0) return IterateOutcome::kOptimal;

    // Ratio test.
    int leave = -1;
    double best_ratio = 0.0;
    for (size_t i = 0; i < t.m; ++i) {
      double a = t.rows[i][static_cast<size_t>(enter)];
      if (a <= kEps) continue;
      double ratio = t.Rhs(i) / a;
      if (leave < 0 || ratio < best_ratio - kEps ||
          (ratio < best_ratio + kEps && t.basis[i] < t.basis[static_cast<size_t>(leave)])) {
        leave = static_cast<int>(i);
        best_ratio = ratio;
      }
    }
    if (leave < 0) return IterateOutcome::kUnbounded;

    if (best_ratio < kEps) {
      if (++degenerate_run >= kDegenerateSwitch) bland = true;
    } else {
      degenerate_run = 0;
      bland = false;
    }
    t.Pivot(static_cast<size_t>(leave), static_cast<size_t>(enter));
    ++iterations;
  }
  return IterateOutcome::kIterationLimit;
}

/// Solves the LP relaxation of `model` (integrality ignored) under the
/// optional per-variable bound overrides, with the same contract as SolveLp.
inline LpResult SolveLpDenseTableau(const Model& model,
                                    const std::vector<double>& extra_lower = {},
                                    const std::vector<double>& extra_upper = {}) {
  LpResult result;
  size_t n_struct = model.num_variables();

  // Effective bounds: lower defaults to 0, upper to the variable's own bound.
  std::vector<double> lower(n_struct, 0.0);
  std::vector<double> upper(n_struct, kInfinity);
  for (size_t i = 0; i < n_struct; ++i) upper[i] = model.variable(i).upper;
  if (!extra_lower.empty()) {
    CEXTEND_CHECK(extra_lower.size() == n_struct);
    for (size_t i = 0; i < n_struct; ++i)
      lower[i] = std::max(lower[i], extra_lower[i]);
  }
  if (!extra_upper.empty()) {
    CEXTEND_CHECK(extra_upper.size() == n_struct);
    for (size_t i = 0; i < n_struct; ++i)
      upper[i] = std::min(upper[i], extra_upper[i]);
  }
  for (size_t i = 0; i < n_struct; ++i) {
    if (lower[i] > upper[i] + kEps) {
      result.status = LpStatus::kInfeasible;
      return result;
    }
  }

  // Assemble rows after the substitution x = lower + y (y >= 0):
  // structural rows, then upper-bound rows y_i <= u_i - l_i.
  struct Row {
    std::vector<std::pair<size_t, double>> terms;
    Sense sense;
    double rhs;
  };
  std::vector<Row> rows;
  rows.reserve(model.num_constraints() + n_struct);
  for (const LinearConstraint& c : model.constraints()) {
    Row r;
    r.sense = c.sense;
    r.rhs = c.rhs;
    for (const LinearTerm& t : c.terms) {
      r.rhs -= t.coeff * lower[static_cast<size_t>(t.var)];
      r.terms.emplace_back(static_cast<size_t>(t.var), t.coeff);
    }
    rows.push_back(std::move(r));
  }
  for (size_t i = 0; i < n_struct; ++i) {
    if (upper[i] == kInfinity) continue;
    Row r;
    r.sense = Sense::kLe;
    r.rhs = upper[i] - lower[i];
    r.terms.emplace_back(i, 1.0);
    rows.push_back(std::move(r));
  }

  size_t m = rows.size();
  // Column layout: [structural | slack/surplus | artificial].
  size_t n_slack = 0;
  for (const Row& r : rows) {
    if (r.sense != Sense::kEq) ++n_slack;
  }
  size_t slack_base = n_struct;
  size_t art_base = n_struct + n_slack;
  size_t n_total = art_base + m;  // at most one artificial per row

  Tableau t;
  t.m = m;
  t.n = n_total;
  t.rows.assign(m, std::vector<double>(n_total + 1, 0.0));
  t.basis.assign(m, -1);
  t.banned.assign(n_total, 0);

  size_t next_slack = slack_base;
  size_t next_art = art_base;
  std::vector<uint8_t> is_artificial(n_total, 0);
  for (size_t i = 0; i < m; ++i) {
    Row& r = rows[i];
    double sign = 1.0;
    if (r.rhs < 0) {  // normalize rhs >= 0
      sign = -1.0;
      r.rhs = -r.rhs;
      if (r.sense == Sense::kLe) r.sense = Sense::kGe;
      else if (r.sense == Sense::kGe) r.sense = Sense::kLe;
    }
    for (const auto& [var, coeff] : r.terms) {
      t.rows[i][var] += sign * coeff;
    }
    t.Rhs(i) = r.rhs;
    if (r.sense == Sense::kLe) {
      t.rows[i][next_slack] = 1.0;
      t.basis[i] = static_cast<int>(next_slack);
      ++next_slack;
    } else if (r.sense == Sense::kGe) {
      t.rows[i][next_slack] = -1.0;
      ++next_slack;
      t.rows[i][next_art] = 1.0;
      is_artificial[next_art] = 1;
      t.basis[i] = static_cast<int>(next_art);
      ++next_art;
    } else {
      t.rows[i][next_art] = 1.0;
      is_artificial[next_art] = 1;
      t.basis[i] = static_cast<int>(next_art);
      ++next_art;
    }
  }

  // ---- Phase 1: minimize the sum of artificials. ----
  bool any_artificial = next_art > art_base;
  if (any_artificial) {
    std::vector<double> c1(n_total, 0.0);
    for (size_t j = art_base; j < next_art; ++j) c1[j] = 1.0;
    t.SetObjective(c1);
    IterateOutcome out = Iterate(t, result.iterations);
    if (out == IterateOutcome::kIterationLimit) {
      result.status = LpStatus::kIterationLimit;
      return result;
    }
    CEXTEND_CHECK(out != IterateOutcome::kUnbounded)
        << "phase-1 objective is bounded below by zero";
    if (t.ObjectiveValue() > 1e-6) {
      result.status = LpStatus::kInfeasible;
      return result;
    }
    // Drive remaining artificials out of the basis (they are at value 0).
    for (size_t i = 0; i < t.m; ++i) {
      size_t b = static_cast<size_t>(t.basis[i]);
      if (!is_artificial[b]) continue;
      int pivot_col = -1;
      for (size_t j = 0; j < art_base; ++j) {
        if (std::fabs(t.rows[i][j]) > 1e-7) {
          pivot_col = static_cast<int>(j);
          break;
        }
      }
      if (pivot_col >= 0) {
        t.Pivot(i, static_cast<size_t>(pivot_col));
      }
      // Otherwise the row is redundant; the artificial stays basic at 0 and
      // banning artificial columns keeps it there.
    }
  }
  for (size_t j = art_base; j < n_total; ++j) t.banned[j] = 1;

  // ---- Phase 2: the real objective. ----
  std::vector<double> c2(n_total, 0.0);
  double obj_const = 0.0;
  for (size_t i = 0; i < n_struct; ++i) {
    c2[i] = model.variable(i).objective;
    obj_const += model.variable(i).objective * lower[i];
  }
  t.SetObjective(c2);
  IterateOutcome out = Iterate(t, result.iterations);
  if (out == IterateOutcome::kIterationLimit) {
    result.status = LpStatus::kIterationLimit;
    return result;
  }
  if (out == IterateOutcome::kUnbounded) {
    result.status = LpStatus::kUnbounded;
    return result;
  }

  result.status = LpStatus::kOptimal;
  result.values.assign(n_struct, 0.0);
  for (size_t i = 0; i < t.m; ++i) {
    size_t b = static_cast<size_t>(t.basis[i]);
    if (b < n_struct) result.values[b] = t.Rhs(i);
  }
  for (size_t i = 0; i < n_struct; ++i) {
    result.values[i] += lower[i];
    // Clean tiny negatives from floating-point noise.
    if (result.values[i] < 0 && result.values[i] > -1e-7)
      result.values[i] = 0.0;
  }
  result.objective = t.ObjectiveValue() + obj_const;
  return result;
}

/// Search limits for SolveIlpDense.
struct DenseIlpLimits {
  int64_t max_nodes = 100000;
  /// Stop as soon as an incumbent with objective <= target is found.
  std::optional<double> objective_target;
};

/// Depth-first branch & bound over cold dense-tableau solves: pop the
/// newest node, prune it against the incumbent, branch on the first
/// fractional integer variable (down child explored first). Statuses follow
/// IlpStatus: kOptimal when the tree is exhausted or the target is met,
/// kFeasible/kNoSolution when the node cap stops the search with/without an
/// incumbent, kUnbounded when the root relaxation is unbounded.
inline IlpResult SolveIlpDense(const Model& model,
                               const DenseIlpLimits& limits = {}) {
  struct Box {
    std::vector<double> lower, upper;
  };
  const size_t n = model.num_variables();
  std::vector<Box> stack;
  stack.push_back({std::vector<double>(n, 0.0),
                   std::vector<double>(n, kInfinity)});
  IlpResult result;
  bool have_incumbent = false;
  bool gave_up = false;  // node cap or a node's iteration cap
  auto target_met = [&] {
    return have_incumbent && limits.objective_target.has_value() &&
           result.objective <= *limits.objective_target + 1e-9;
  };
  while (!stack.empty() && !target_met()) {
    if (result.nodes >= limits.max_nodes) {
      gave_up = true;
      break;
    }
    Box box = std::move(stack.back());
    stack.pop_back();
    ++result.nodes;
    LpResult lp = SolveLpDenseTableau(model, box.lower, box.upper);
    result.lp_iterations += lp.iterations;
    if (lp.status == LpStatus::kUnbounded && result.nodes == 1) {
      result.status = IlpStatus::kUnbounded;
      return result;
    }
    if (lp.status == LpStatus::kIterationLimit) gave_up = true;
    if (lp.status != LpStatus::kOptimal) continue;
    if (have_incumbent && lp.objective >= result.objective - 1e-9) continue;

    size_t branch = n;
    for (size_t j = 0; j < n && branch == n; ++j) {
      double v = lp.values[j];
      if (model.variable(j).is_integer &&
          std::fabs(v - std::round(v)) > kIntegralityTol) {
        branch = j;
      }
    }
    if (branch == n) {
      have_incumbent = true;
      result.objective = lp.objective;
      result.values = std::move(lp.values);
      for (size_t j = 0; j < n; ++j) {
        if (model.variable(j).is_integer)
          result.values[j] = std::round(result.values[j]);
      }
      continue;
    }
    double v = lp.values[branch];
    Box up = box;
    up.lower[branch] = std::ceil(v);
    box.upper[branch] = std::floor(v);
    stack.push_back(std::move(up));
    stack.push_back(std::move(box));
  }
  if (have_incumbent) {
    result.status = target_met() || !gave_up ? IlpStatus::kOptimal
                                             : IlpStatus::kFeasible;
  } else {
    result.status = gave_up ? IlpStatus::kNoSolution : IlpStatus::kInfeasible;
  }
  return result;
}

}  // namespace dense_oracle
}  // namespace ilp
}  // namespace cextend

#endif  // CEXTEND_TESTS_ILP_DENSE_TABLEAU_ORACLE_H_
