// LP relaxation solving:  min c^T x  s.t.  A x {<=,=,>=} b,  0 <= x <= u.
//
// SolveLp runs the sparse revised simplex (see revised_simplex.h): Dantzig
// pricing with an automatic switch to Bland's rule after a run of degenerate
// pivots to guarantee termination. Its reference oracle is the dense
// two-phase tableau in tests/ilp/dense_tableau_oracle.h.

#ifndef CEXTEND_ILP_SIMPLEX_H_
#define CEXTEND_ILP_SIMPLEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ilp/model.h"
#include "util/deadline.h"

namespace cextend {
namespace ilp {

enum class LpStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
};

struct LpResult {
  LpStatus status = LpStatus::kInfeasible;
  double objective = 0.0;
  std::vector<double> values;      ///< primal values, one per model variable
  int64_t iterations = 0;
  /// Non-OK when the solve stopped because the RunControl tripped (deadline
  /// expired / cancelled). `status` is kIterationLimit in that case; callers
  /// that care about the distinction check this first.
  Status interrupt;
};

/// Solves the LP relaxation of `model` (integrality ignored). Additional
/// variable bounds can be supplied to support branch & bound: `extra_lower`
/// and `extra_upper` (empty = none; otherwise one entry per variable, with
/// kInfinity/-kInfinity meaning unbounded). `run_control` (deadline or
/// cancellation) is polled every 64 pivots; a trip surfaces as
/// kIterationLimit with LpResult::interrupt set.
LpResult SolveLp(const Model& model, const RunControl& run_control = {},
                 const std::vector<double>& extra_lower = {},
                 const std::vector<double>& extra_upper = {});

}  // namespace ilp
}  // namespace cextend

#endif  // CEXTEND_ILP_SIMPLEX_H_
