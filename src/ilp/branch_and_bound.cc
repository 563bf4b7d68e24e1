#include "ilp/branch_and_bound.h"

#include <cmath>
#include <memory>
#include <queue>

#include "ilp/revised_simplex.h"
#include "util/fault_injection.h"
#include "util/logging.h"

namespace cextend {
namespace ilp {

const char* IlpStatusToString(IlpStatus s) {
  switch (s) {
    case IlpStatus::kOptimal:
      return "OPTIMAL";
    case IlpStatus::kFeasible:
      return "FEASIBLE";
    case IlpStatus::kInfeasible:
      return "INFEASIBLE";
    case IlpStatus::kUnbounded:
      return "UNBOUNDED";
    case IlpStatus::kNoSolution:
      return "NO_SOLUTION";
  }
  return "?";
}

bool IsFeasible(const Model& model, const std::vector<double>& x, double tol) {
  if (x.size() != model.num_variables()) return false;
  for (size_t i = 0; i < x.size(); ++i) {
    const Variable& v = model.variable(i);
    if (x[i] < -tol || x[i] > v.upper + tol) return false;
    if (v.is_integer && std::fabs(x[i] - std::round(x[i])) > tol) return false;
  }
  for (const LinearConstraint& c : model.constraints()) {
    double lhs = 0.0;
    for (const LinearTerm& t : c.terms)
      lhs += t.coeff * x[static_cast<size_t>(t.var)];
    switch (c.sense) {
      case Sense::kLe:
        if (lhs > c.rhs + tol) return false;
        break;
      case Sense::kGe:
        if (lhs < c.rhs - tol) return false;
        break;
      case Sense::kEq:
        if (std::fabs(lhs - c.rhs) > tol) return false;
        break;
    }
  }
  return true;
}

namespace {

constexpr double kIntegralityTol = 1e-6;

struct Node {
  std::vector<double> lower;
  std::vector<double> upper;
  double bound = 0.0;  // parent LP objective (lower bound on descendants)
  /// Parent's optimal basis; children restart the dual simplex from it.
  /// Shared between siblings (read-only once published).
  std::shared_ptr<const SimplexBasis> warm;

  bool operator<(const Node& other) const {
    return bound > other.bound;  // min-heap via priority_queue
  }
};

double Objective(const Model& model, const std::vector<double>& x) {
  double obj = 0.0;
  for (size_t i = 0; i < x.size(); ++i)
    obj += model.variable(i).objective * x[i];
  return obj;
}

/// Index of the most fractional integer variable, or -1 if integral.
int MostFractional(const Model& model, const std::vector<double>& x,
                   double tol) {
  int best = -1;
  double best_frac = tol;
  for (size_t i = 0; i < x.size(); ++i) {
    if (!model.variable(i).is_integer) continue;
    double frac = std::fabs(x[i] - std::round(x[i]));
    if (frac > best_frac) {
      best_frac = frac;
      best = static_cast<int>(i);
    }
  }
  return best;
}

}  // namespace

IlpResult SolveIlp(const Model& model, const IlpOptions& options) {
  IlpResult result;
  size_t n = model.num_variables();

  // One compiled instance serves every node (the CSC matrix never changes;
  // only bounds do).
  RevisedSimplex revised(model, options.run_control);

  std::priority_queue<Node> queue;
  Node root;
  root.lower.assign(n, 0.0);
  root.upper.assign(n, kInfinity);
  root.bound = -kInfinity;
  queue.push(std::move(root));

  bool have_incumbent = false;
  double incumbent_obj = kInfinity;
  std::vector<double> incumbent;
  bool budget_hit = false;
  bool root_infeasible = false;

  auto consider_incumbent = [&](const std::vector<double>& x) {
    double obj = Objective(model, x);
    if (!have_incumbent || obj < incumbent_obj - 1e-12) {
      have_incumbent = true;
      incumbent_obj = obj;
      incumbent = x;
    }
  };

  while (!queue.empty()) {
    if (result.nodes >= options.max_nodes) {
      budget_hit = true;
      break;
    }
    if (options.run_control.CanInterrupt()) {
      Status rc = options.run_control.Check();
      if (!rc.ok()) {
        result.interrupt = std::move(rc);
        budget_hit = true;
        break;
      }
    }
    if (have_incumbent && options.objective_target.has_value() &&
        incumbent_obj <= *options.objective_target + 1e-9) {
      break;  // good enough; stop early
    }
    Node node = queue.top();
    queue.pop();
    if (have_incumbent && node.bound >= incumbent_obj - 1e-9) continue;
    ++result.nodes;

    LpResult lp;
    bool warm_ok = false;
    if (node.warm != nullptr) {
      std::optional<LpResult> warm;
      if (!CEXTEND_INJECT_FAULT("dual.warm_start")) {
        warm = revised.SolveWarm(*node.warm, node.lower, node.upper);
      }
      if (warm.has_value()) {
        lp = *std::move(warm);
        warm_ok = true;
        ++result.warm_solves;
      } else {
        // Warm→cold rung: the dual simplex gave up (or the fault point
        // simulated it); re-solve this node from scratch.
        ++result.cold_fallbacks;
        if (!revised.interrupt().ok()) {
          result.interrupt = revised.interrupt();
          budget_hit = true;
          break;
        }
      }
    }
    if (!warm_ok) lp = revised.Solve(node.lower, node.upper);
    std::shared_ptr<const SimplexBasis> solved_basis;
    if (lp.status == LpStatus::kOptimal && revised.basis().valid) {
      solved_basis = std::make_shared<SimplexBasis>(revised.basis());
    }
    result.lp_iterations += lp.iterations;
    if (!lp.interrupt.ok()) {
      result.interrupt = lp.interrupt;
      budget_hit = true;
      break;
    }
    if (lp.status == LpStatus::kUnbounded) {
      // An unbounded relaxation at the root means the ILP is unbounded or
      // infeasible; report unbounded and let the caller decide.
      if (result.nodes == 1) {
        result.status = IlpStatus::kUnbounded;
        return result;
      }
      continue;
    }
    if (lp.status == LpStatus::kInfeasible) {
      if (result.nodes == 1) root_infeasible = true;
      continue;
    }
    if (lp.status == LpStatus::kIterationLimit) {
      budget_hit = true;
      continue;
    }
    if (have_incumbent && lp.objective >= incumbent_obj - 1e-9) continue;

    // Give the domain heuristic a chance to turn this LP point into a
    // feasible integer point.
    if (options.rounding_heuristic) {
      auto rounded = options.rounding_heuristic(lp.values);
      if (rounded.has_value() &&
          IsFeasible(model, *rounded, kIntegralityTol * 10)) {
        consider_incumbent(*rounded);
      }
    }

    int frac_var = MostFractional(model, lp.values, kIntegralityTol);
    if (frac_var < 0) {
      consider_incumbent(lp.values);
      continue;
    }

    double v = lp.values[static_cast<size_t>(frac_var)];
    Node down = node;
    down.bound = lp.objective;
    down.upper[static_cast<size_t>(frac_var)] = std::floor(v);
    down.warm = solved_basis;
    Node up = std::move(node);
    up.bound = lp.objective;
    up.lower[static_cast<size_t>(frac_var)] = std::ceil(v);
    up.warm = std::move(solved_basis);
    queue.push(std::move(down));
    queue.push(std::move(up));
  }

  if (have_incumbent) {
    // Snap integer variables exactly.
    for (size_t i = 0; i < n; ++i) {
      if (model.variable(i).is_integer)
        incumbent[i] = std::round(incumbent[i]);
    }
    result.values = std::move(incumbent);
    result.objective = incumbent_obj;
    result.status =
        (budget_hit || !queue.empty()) ? IlpStatus::kFeasible
                                       : IlpStatus::kOptimal;
    // Early target stop still proves nothing about optimality.
    if (options.objective_target.has_value() &&
        incumbent_obj <= *options.objective_target + 1e-9) {
      result.status = IlpStatus::kOptimal;  // target reached == good enough
    }
    return result;
  }
  if (root_infeasible) {
    result.status = IlpStatus::kInfeasible;
    return result;
  }
  result.status = budget_hit ? IlpStatus::kNoSolution : IlpStatus::kInfeasible;
  return result;
}

}  // namespace ilp
}  // namespace cextend
