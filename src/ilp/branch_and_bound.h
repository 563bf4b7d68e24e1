// Branch & bound over LP relaxations for integer programs.

#ifndef CEXTEND_ILP_BRANCH_AND_BOUND_H_
#define CEXTEND_ILP_BRANCH_AND_BOUND_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "ilp/model.h"
#include "ilp/simplex.h"

namespace cextend {
namespace ilp {

enum class IlpStatus {
  kOptimal,     ///< proven optimal integer solution
  kFeasible,    ///< integer solution found, search budget exhausted
  kInfeasible,  ///< no integer solution exists
  kUnbounded,
  kNoSolution,  ///< budget exhausted with no incumbent
};

const char* IlpStatusToString(IlpStatus s);

struct IlpResult {
  IlpStatus status = IlpStatus::kNoSolution;
  std::vector<double> values;
  double objective = 0.0;
  int64_t nodes = 0;
  int64_t lp_iterations = 0;
  /// Nodes whose LP was re-optimized from the parent basis (dual simplex)
  /// rather than solved cold.
  int64_t warm_solves = 0;
  /// Nodes where a warm start was attempted but fell back to a cold solve
  /// (warm→cold rung of the degradation ladder).
  int64_t cold_fallbacks = 0;
  /// Non-OK when the search stopped because the RunControl tripped (deadline
  /// expired / cancelled); `status` then reflects whatever incumbent was on
  /// hand, exactly as on a node budget stop.
  Status interrupt;
};

struct IlpOptions {
  int64_t max_nodes = 2000;
  /// Stop as soon as an incumbent with objective <= target is found
  /// (phase-I slack models use 0: a zero-slack solution is perfect).
  std::optional<double> objective_target;
  /// Optional domain heuristic: maps an LP-relaxation point to a feasible
  /// integer point (or nullopt). Used to seed/improve the incumbent.
  std::function<std::optional<std::vector<double>>(
      const std::vector<double>&)> rounding_heuristic;
  /// Deadline/cancellation, polled at every node pop and forwarded into the
  /// simplex.
  RunControl run_control;
};

/// True when `x` satisfies all of `model`'s constraints, bounds and
/// integrality requirements within `tol`.
bool IsFeasible(const Model& model, const std::vector<double>& x, double tol);

/// Solves the integer program by best-bound (best-first) branch & bound.
/// Child nodes re-optimize from the parent basis via dual simplex, falling
/// back to a cold solve on numerical trouble. A model without integer
/// variables is solved as one root node.
IlpResult SolveIlp(const Model& model, const IlpOptions& options = {});

}  // namespace ilp
}  // namespace cextend

#endif  // CEXTEND_ILP_BRANCH_AND_BOUND_H_
