// Sparse revised simplex with a product-form (eta-file) basis.
//
// The phase-I count models are extremely sparse — each structural variable
// appears in one bin-capacity row and a handful of CC rows — so the dense
// tableau's O(m·n) per pivot is almost entirely wasted work. This solver
// keeps the constraint matrix in CSC form, represents B⁻¹ as a product of
// eta matrices refreshed by periodic refactorization, and handles variable
// upper bounds implicitly (bounded-variable simplex) instead of compiling
// them into extra rows. Per iteration: one BTRAN + one FTRAN (O(m · #etas))
// plus pricing over the column nonzeros (O(nnz)).
//
// Two entry points:
//  * Solve(): cold two-phase solve (artificial variables, Dantzig pricing
//    with a Bland's-rule switch after degenerate runs).
//  * SolveWarm(): start from a caller-provided basis (typically the parent
//    node's optimal basis in branch & bound) after a bound change, restore
//    primal feasibility with a bounded-variable dual simplex, then finish
//    with a primal cleanup pass. Falls back to nullopt on numerical trouble
//    so the caller can re-solve cold.
//
// Pure LP interface only; integrality lives in branch_and_bound.

#ifndef CEXTEND_ILP_REVISED_SIMPLEX_H_
#define CEXTEND_ILP_REVISED_SIMPLEX_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "ilp/model.h"
#include "ilp/simplex.h"

namespace cextend {
namespace ilp {

/// A restorable basis snapshot: which column is basic in each row plus the
/// at-lower/at-upper status of every column. Bounds and values are *not*
/// stored; they are recomputed against the bounds of the solve that restores
/// the snapshot (branch & bound only tightens bounds between snapshots).
struct SimplexBasis {
  enum Status : uint8_t { kAtLower = 0, kAtUpper = 1, kBasic = 2 };

  std::vector<int> basic;        ///< column id per row
  std::vector<uint8_t> status;   ///< per column (structural+logical+artificial)
  bool valid = false;
};

class RevisedSimplex {
 public:
  /// Compiles `model` to CSC once; bounds are supplied per solve.
  /// `run_control` is polled every 64 pivots (see SolveLp).
  explicit RevisedSimplex(const Model& model,
                          const RunControl& run_control = {});

  /// Cold two-phase solve. `extra_lower`/`extra_upper` as in SolveLp.
  LpResult Solve(const std::vector<double>& extra_lower = {},
                 const std::vector<double>& extra_upper = {});

  /// Warm solve from `basis` under (possibly tightened) bounds: dual simplex
  /// until primal feasible, then primal cleanup. Returns nullopt when the
  /// warm path gives up (singular restored basis, iteration cap, numerical
  /// drift); the caller should fall back to Solve().
  std::optional<LpResult> SolveWarm(const SimplexBasis& basis,
                                    const std::vector<double>& extra_lower,
                                    const std::vector<double>& extra_upper);

  /// Basis snapshot of the most recent successful solve (valid==false when
  /// the last solve did not end kOptimal).
  const SimplexBasis& basis() const { return saved_basis_; }

  /// Non-OK when the most recent Solve/SolveWarm stopped because the
  /// RunControl tripped (SolveWarm reports the trip here even when it
  /// returns nullopt).
  const Status& interrupt() const { return interrupt_; }

 private:
  struct Eta {
    int pivot_row;
    double pivot_value;
    // Sparse off-pivot entries of the transformed entering column.
    std::vector<int> index;
    std::vector<double> value;
  };

  enum class PricingOutcome { kOptimal, kUnbounded, kIterationLimit };

  // Bound setup shared by cold and warm solves. Returns false when some
  // variable has lower > upper (trivially infeasible).
  bool SetupBounds(const std::vector<double>& extra_lower,
                   const std::vector<double>& extra_upper);

  double ColumnDot(const std::vector<double>& y, int col) const;
  void ScatterColumn(int col, std::vector<double>* out) const;

  void Ftran(std::vector<double>* d) const;
  void Btran(std::vector<double>* y) const;
  void AppendEta(int pivot_row, const std::vector<double>& w);

  /// Rebuilds the eta file from the current basic set (PFI reinversion) and
  /// recomputes basic values. Returns false on a singular basis.
  bool Refactorize();
  void RecomputeBasicValues();

  double NonbasicValue(int col) const;
  bool IsFixed(int col) const;

  /// Primal bounded-variable simplex for cost vector `cost` until optimal.
  PricingOutcome PrimalIterate(const std::vector<double>& cost,
                               int64_t* iterations);

  /// Dual bounded-variable simplex for cost vector `cost` until primal
  /// feasible. Returns kOptimal when feasible, kUnbounded when the dual is
  /// unbounded (primal infeasible), kIterationLimit on the cap or numerical
  /// failure.
  PricingOutcome DualIterate(const std::vector<double>& cost,
                             int64_t* iterations);

  LpResult Extract(const std::vector<double>& cost);
  void SnapshotBasis();

  // ---- Immutable problem data. ----
  const Model& model_;
  RunControl run_control_;
  size_t m_ = 0;         // rows
  size_t n_struct_ = 0;  // structural columns
  size_t n_total_ = 0;   // structural + logical + artificial
  // CSC of the structural block (logicals/artificials are unit columns).
  std::vector<int> col_start_;   // n_struct + 1
  std::vector<int> row_index_;
  std::vector<double> values_;
  std::vector<double> rhs_;
  std::vector<Sense> sense_;
  std::vector<double> objective_;  // structural objective, length n_total

  // ---- Per-solve state. ----
  std::vector<double> lower_, upper_;   // length n_total
  std::vector<uint8_t> status_;         // SimplexBasis::Status per column
  std::vector<int> basic_;              // column per row
  std::vector<double> x_basic_;         // value per row
  std::vector<Eta> etas_;
  // Pivots since the last reinversion. The eta file itself is not a proxy:
  // reinversion leaves one eta per structural basic column, which could
  // exceed the reinversion interval and thrash.
  size_t pivots_since_refactor_ = 0;
  Status interrupt_;  // set when run_control trips mid-iteration
  std::vector<uint8_t> is_artificial_;  // per column
  SimplexBasis saved_basis_;

  // Scratch (sized m) reused across iterations.
  std::vector<double> work_col_;
  std::vector<double> work_y_;
  std::vector<double> work_y2_;  // dual simplex: cost BTRAN beside the rho BTRAN
};

}  // namespace ilp
}  // namespace cextend

#endif  // CEXTEND_ILP_REVISED_SIMPLEX_H_
