#include "ilp/simplex.h"

#include "ilp/revised_simplex.h"

namespace cextend {
namespace ilp {

LpResult SolveLp(const Model& model, const RunControl& run_control,
                 const std::vector<double>& extra_lower,
                 const std::vector<double>& extra_upper) {
  RevisedSimplex solver(model, run_control);
  return solver.Solve(extra_lower, extra_upper);
}

}  // namespace ilp
}  // namespace cextend
