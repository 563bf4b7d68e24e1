#include "ilp/revised_simplex.h"

#include <algorithm>
#include <cmath>

#include "util/fault_injection.h"
#include "util/logging.h"

namespace cextend {
namespace ilp {
namespace {

constexpr int64_t kMaxIterations = 200000;  // pivot cap per solve
constexpr int kDegenerateSwitch = 64;   // degenerate pivots before Bland
constexpr size_t kRefactorInterval = 64;  // pivots between reinversions
constexpr double kEps = 1e-9;       // feasibility / optimality tolerance
constexpr double kPivotEps = 1e-8;  // minimum acceptable pivot magnitude
constexpr double kAlphaEps = 1e-7;  // dual ratio-test eligibility threshold
constexpr double kDropEps = 1e-12;  // eta entries below this are dropped

}  // namespace

RevisedSimplex::RevisedSimplex(const Model& model,
                               const RunControl& run_control)
    : model_(model), run_control_(run_control) {
  m_ = model.num_constraints();
  n_struct_ = model.num_variables();
  n_total_ = n_struct_ + 2 * m_;

  // CSC of the structural block. Model constraints are row-major; count
  // nonzeros per column first, then fill.
  col_start_.assign(n_struct_ + 1, 0);
  rhs_.resize(m_);
  sense_.resize(m_);
  size_t nnz = 0;
  for (size_t i = 0; i < m_; ++i) {
    const LinearConstraint& c = model.constraints()[i];
    rhs_[i] = c.rhs;
    sense_[i] = c.sense;
    nnz += c.terms.size();
    for (const LinearTerm& t : c.terms) ++col_start_[t.var + 1];
  }
  for (size_t j = 1; j <= n_struct_; ++j) col_start_[j] += col_start_[j - 1];
  row_index_.resize(nnz);
  values_.resize(nnz);
  std::vector<int> cursor(col_start_.begin(), col_start_.end() - 1);
  for (size_t i = 0; i < m_; ++i) {
    for (const LinearTerm& t : model.constraints()[i].terms) {
      int k = cursor[t.var]++;
      row_index_[k] = static_cast<int>(i);
      values_[k] = t.coeff;
    }
  }

  objective_.assign(n_total_, 0.0);
  for (size_t j = 0; j < n_struct_; ++j)
    objective_[j] = model.variable(j).objective;

  is_artificial_.assign(n_total_, 0);
  for (size_t j = n_struct_ + m_; j < n_total_; ++j) is_artificial_[j] = 1;

  work_col_.resize(m_);
  work_y_.resize(m_);
  work_y2_.resize(m_);
}

bool RevisedSimplex::SetupBounds(const std::vector<double>& extra_lower,
                                 const std::vector<double>& extra_upper) {
  lower_.assign(n_total_, 0.0);
  upper_.assign(n_total_, 0.0);
  for (size_t j = 0; j < n_struct_; ++j) {
    lower_[j] = 0.0;
    upper_[j] = model_.variable(j).upper;
  }
  if (!extra_lower.empty()) {
    CEXTEND_CHECK(extra_lower.size() == n_struct_);
    for (size_t j = 0; j < n_struct_; ++j)
      lower_[j] = std::max(lower_[j], extra_lower[j]);
  }
  if (!extra_upper.empty()) {
    CEXTEND_CHECK(extra_upper.size() == n_struct_);
    for (size_t j = 0; j < n_struct_; ++j)
      upper_[j] = std::min(upper_[j], extra_upper[j]);
  }
  for (size_t j = 0; j < n_struct_; ++j) {
    if (lower_[j] > upper_[j] + kEps) return false;
  }
  // Logical column per row: Ax + s = b with the sense encoded in s's bounds.
  for (size_t i = 0; i < m_; ++i) {
    size_t j = n_struct_ + i;
    switch (sense_[i]) {
      case Sense::kLe:
        lower_[j] = 0.0;
        upper_[j] = kInfinity;
        break;
      case Sense::kGe:
        lower_[j] = -kInfinity;
        upper_[j] = 0.0;
        break;
      case Sense::kEq:
        lower_[j] = 0.0;
        upper_[j] = 0.0;
        break;
    }
  }
  // Artificials are fixed at zero unless the cold start relaxes them.
  for (size_t j = n_struct_ + m_; j < n_total_; ++j) {
    lower_[j] = 0.0;
    upper_[j] = 0.0;
  }
  return true;
}

bool RevisedSimplex::IsFixed(int col) const {
  return upper_[static_cast<size_t>(col)] - lower_[static_cast<size_t>(col)] <
         kEps;
}

double RevisedSimplex::ColumnDot(const std::vector<double>& y, int col) const {
  size_t j = static_cast<size_t>(col);
  if (j >= n_struct_) {
    // Logical and artificial columns are +1 unit vectors.
    size_t row = j - n_struct_;
    if (row >= m_) row -= m_;
    return y[row];
  }
  double dot = 0.0;
  for (int k = col_start_[j]; k < col_start_[j + 1]; ++k) {
    dot += values_[k] * y[static_cast<size_t>(row_index_[k])];
  }
  return dot;
}

void RevisedSimplex::ScatterColumn(int col, std::vector<double>* out) const {
  size_t j = static_cast<size_t>(col);
  if (j >= n_struct_) {
    size_t row = j - n_struct_;
    if (row >= m_) row -= m_;
    (*out)[row] = 1.0;
    return;
  }
  for (int k = col_start_[j]; k < col_start_[j + 1]; ++k) {
    (*out)[static_cast<size_t>(row_index_[k])] = values_[k];
  }
}

void RevisedSimplex::Ftran(std::vector<double>* d) const {
  std::vector<double>& v = *d;
  for (const Eta& e : etas_) {
    double dp = v[static_cast<size_t>(e.pivot_row)] / e.pivot_value;
    v[static_cast<size_t>(e.pivot_row)] = dp;
    if (dp == 0.0) continue;
    for (size_t k = 0; k < e.index.size(); ++k) {
      v[static_cast<size_t>(e.index[k])] -= e.value[k] * dp;
    }
  }
}

void RevisedSimplex::Btran(std::vector<double>* y) const {
  std::vector<double>& v = *y;
  for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
    const Eta& e = *it;
    double dot = 0.0;
    for (size_t k = 0; k < e.index.size(); ++k) {
      dot += e.value[k] * v[static_cast<size_t>(e.index[k])];
    }
    v[static_cast<size_t>(e.pivot_row)] =
        (v[static_cast<size_t>(e.pivot_row)] - dot) / e.pivot_value;
  }
}

void RevisedSimplex::AppendEta(int pivot_row, const std::vector<double>& w) {
  Eta e;
  e.pivot_row = pivot_row;
  e.pivot_value = w[static_cast<size_t>(pivot_row)];
  for (size_t i = 0; i < m_; ++i) {
    if (static_cast<int>(i) == pivot_row) continue;
    if (std::fabs(w[i]) > kDropEps) {
      e.index.push_back(static_cast<int>(i));
      e.value.push_back(w[i]);
    }
  }
  etas_.push_back(std::move(e));
}

double RevisedSimplex::NonbasicValue(int col) const {
  return status_[static_cast<size_t>(col)] == SimplexBasis::kAtUpper
             ? upper_[static_cast<size_t>(col)]
             : lower_[static_cast<size_t>(col)];
}

void RevisedSimplex::RecomputeBasicValues() {
  std::vector<double> t = rhs_;
  for (size_t j = 0; j < n_total_; ++j) {
    if (status_[j] == SimplexBasis::kBasic) continue;
    double v = NonbasicValue(static_cast<int>(j));
    if (v == 0.0) continue;
    if (j >= n_struct_) {
      size_t row = j - n_struct_;
      if (row >= m_) row -= m_;
      t[row] -= v;
    } else {
      for (int k = col_start_[j]; k < col_start_[j + 1]; ++k) {
        t[static_cast<size_t>(row_index_[k])] -= values_[k] * v;
      }
    }
  }
  Ftran(&t);
  x_basic_ = std::move(t);
}

bool RevisedSimplex::Refactorize() {
  std::vector<int> cols = basic_;
  etas_.clear();
  pivots_since_refactor_ = 0;
  std::vector<uint8_t> row_done(m_, 0);
  std::vector<int> new_basic(m_, -1);
  // Basic logical/artificial columns are +1 unit vectors: pinned to their
  // natural row, their eta is the identity and need not be stored (no later
  // eta pivots on a done row, so FTRAN maps them to e_row exactly). Only the
  // structural basic columns get FTRANed and pivoted, which keeps the
  // refreshed eta file as short as the structural basis.
  std::vector<int> structural;
  structural.reserve(m_);
  for (size_t r = 0; r < m_; ++r) {
    int j = cols[r];
    if (static_cast<size_t>(j) >= n_struct_) {
      size_t row = static_cast<size_t>(j) - n_struct_;
      if (row >= m_) row -= m_;
      if (row_done[row]) return false;  // duplicate unit column: singular
      new_basic[row] = j;
      row_done[row] = 1;
    } else {
      structural.push_back(j);
    }
  }
  for (int j : structural) {
    std::fill(work_col_.begin(), work_col_.end(), 0.0);
    ScatterColumn(j, &work_col_);
    Ftran(&work_col_);
    int best_row = -1;
    double best_mag = 1e-10;
    for (size_t r = 0; r < m_; ++r) {
      if (row_done[r]) continue;
      double mag = std::fabs(work_col_[r]);
      if (mag > best_mag) {
        best_mag = mag;
        best_row = static_cast<int>(r);
      }
    }
    if (best_row < 0) return false;  // singular basis
    AppendEta(best_row, work_col_);
    new_basic[static_cast<size_t>(best_row)] = j;
    row_done[static_cast<size_t>(best_row)] = 1;
  }
  basic_ = std::move(new_basic);
  RecomputeBasicValues();
  return true;
}

RevisedSimplex::PricingOutcome RevisedSimplex::PrimalIterate(
    const std::vector<double>& cost, int64_t* iterations) {
  int degenerate_run = 0;
  bool bland = false;
  while (*iterations < kMaxIterations) {
    if (CEXTEND_INJECT_FAULT("simplex.iteration_cap")) {
      return PricingOutcome::kIterationLimit;
    }
    if ((*iterations & 0x3F) == 0 && run_control_.CanInterrupt()) {
      interrupt_ = run_control_.Check();
      if (!interrupt_.ok()) return PricingOutcome::kIterationLimit;
    }
    // y = B^{-T} c_B, then reduced costs d_j = c_j - y . A_j.
    std::fill(work_y_.begin(), work_y_.end(), 0.0);
    for (size_t r = 0; r < m_; ++r)
      work_y_[r] = cost[static_cast<size_t>(basic_[r])];
    Btran(&work_y_);

    int enter = -1;
    int enter_dir = 0;  // +1: entering increases from lower; -1: decreases
    double best_viol = kEps;
    for (size_t j = 0; j < n_total_; ++j) {
      if (status_[j] == SimplexBasis::kBasic) continue;
      if (IsFixed(static_cast<int>(j))) continue;
      double d = cost[j] - ColumnDot(work_y_, static_cast<int>(j));
      double viol;
      int dir;
      if (status_[j] == SimplexBasis::kAtLower && d < -kEps) {
        viol = -d;
        dir = 1;
      } else if (status_[j] == SimplexBasis::kAtUpper && d > kEps) {
        viol = d;
        dir = -1;
      } else {
        continue;
      }
      if (bland) {
        enter = static_cast<int>(j);
        enter_dir = dir;
        break;
      }
      if (viol > best_viol) {
        best_viol = viol;
        enter = static_cast<int>(j);
        enter_dir = dir;
      }
    }
    if (enter < 0) return PricingOutcome::kOptimal;

    std::fill(work_col_.begin(), work_col_.end(), 0.0);
    ScatterColumn(enter, &work_col_);
    Ftran(&work_col_);

    // Bounded ratio test: basic variables block at whichever bound the move
    // pushes them toward; the entering variable itself blocks at its
    // opposite bound (a bound flip, no basis change).
    double best_ratio =
        upper_[static_cast<size_t>(enter)] - lower_[static_cast<size_t>(enter)];
    int leave = -1;
    int leave_to = SimplexBasis::kAtLower;
    for (size_t r = 0; r < m_; ++r) {
      double wr = enter_dir * work_col_[r];
      int bcol = basic_[r];
      double ratio;
      int to;
      if (wr > kPivotEps) {
        if (lower_[static_cast<size_t>(bcol)] == -kInfinity) continue;
        ratio = (x_basic_[r] - lower_[static_cast<size_t>(bcol)]) / wr;
        to = SimplexBasis::kAtLower;
      } else if (wr < -kPivotEps) {
        if (upper_[static_cast<size_t>(bcol)] == kInfinity) continue;
        ratio = (upper_[static_cast<size_t>(bcol)] - x_basic_[r]) / (-wr);
        to = SimplexBasis::kAtUpper;
      } else {
        continue;
      }
      if (ratio < 0.0) ratio = 0.0;  // absorb tiny bound drift
      bool take = false;
      if (ratio < best_ratio - kEps) {
        take = true;
      } else if (ratio < best_ratio + kEps &&
                 (leave < 0 || bcol < basic_[static_cast<size_t>(leave)])) {
        // Ties prefer a basis pivot over a bound flip, then the smallest
        // basic column id (the dense tableau's deterministic rule).
        take = true;
      }
      if (take) {
        best_ratio = std::min(best_ratio, ratio);
        leave = static_cast<int>(r);
        leave_to = to;
      }
    }
    if (leave < 0 && best_ratio == kInfinity) return PricingOutcome::kUnbounded;

    double t = best_ratio;
    for (size_t r = 0; r < m_; ++r) x_basic_[r] -= enter_dir * t * work_col_[r];
    if (leave < 0) {
      // Bound flip: strict objective progress, no basis change.
      status_[static_cast<size_t>(enter)] =
          status_[static_cast<size_t>(enter)] == SimplexBasis::kAtLower
              ? SimplexBasis::kAtUpper
              : SimplexBasis::kAtLower;
      degenerate_run = 0;
      bland = false;
    } else {
      double enter_value =
          status_[static_cast<size_t>(enter)] == SimplexBasis::kAtLower
              ? lower_[static_cast<size_t>(enter)] + t
              : upper_[static_cast<size_t>(enter)] - t;
      int leaving = basic_[static_cast<size_t>(leave)];
      status_[static_cast<size_t>(leaving)] = static_cast<uint8_t>(leave_to);
      status_[static_cast<size_t>(enter)] = SimplexBasis::kBasic;
      basic_[static_cast<size_t>(leave)] = enter;
      x_basic_[static_cast<size_t>(leave)] = enter_value;
      AppendEta(leave, work_col_);
      if (t < kEps) {
        if (++degenerate_run >= kDegenerateSwitch) bland = true;
      } else {
        degenerate_run = 0;
        bland = false;
      }
      if (++pivots_since_refactor_ >= kRefactorInterval) {
        if (CEXTEND_INJECT_FAULT("simplex.refactor") || !Refactorize())
          return PricingOutcome::kIterationLimit;
      }
    }
    ++*iterations;
  }
  return PricingOutcome::kIterationLimit;
}

RevisedSimplex::PricingOutcome RevisedSimplex::DualIterate(
    const std::vector<double>& cost, int64_t* iterations) {
  const double feas = 1e-9;
  while (*iterations < kMaxIterations) {
    if (CEXTEND_INJECT_FAULT("simplex.iteration_cap")) {
      return PricingOutcome::kIterationLimit;
    }
    if ((*iterations & 0x3F) == 0 && run_control_.CanInterrupt()) {
      interrupt_ = run_control_.Check();
      if (!interrupt_.ok()) return PricingOutcome::kIterationLimit;
    }
    // Leaving row: the basic variable with the largest bound violation.
    int leave = -1;
    bool below = false;
    double best_viol = feas;
    for (size_t r = 0; r < m_; ++r) {
      int bcol = basic_[r];
      double lo = lower_[static_cast<size_t>(bcol)];
      double hi = upper_[static_cast<size_t>(bcol)];
      if (x_basic_[r] < lo - feas) {
        double viol = lo - x_basic_[r];
        if (viol > best_viol) {
          best_viol = viol;
          leave = static_cast<int>(r);
          below = true;
        }
      } else if (x_basic_[r] > hi + feas) {
        double viol = x_basic_[r] - hi;
        if (viol > best_viol) {
          best_viol = viol;
          leave = static_cast<int>(r);
          below = false;
        }
      }
    }
    if (leave < 0) return PricingOutcome::kOptimal;

    // rho = B^{-T} e_leave gives the pivot row alphas; y prices d_j.
    std::fill(work_y_.begin(), work_y_.end(), 0.0);
    work_y_[static_cast<size_t>(leave)] = 1.0;
    Btran(&work_y_);
    std::vector<double>& y = work_y2_;
    for (size_t r = 0; r < m_; ++r)
      y[r] = cost[static_cast<size_t>(basic_[r])];
    Btran(&y);

    int enter = -1;
    double best_ratio = kInfinity;
    for (size_t j = 0; j < n_total_; ++j) {
      if (status_[j] == SimplexBasis::kBasic) continue;
      // Fixed columns (l == u — every equality-row logical and pinned
      // artificial) are excluded, and the no-candidate infeasibility
      // certificate below stays valid without them: pivot row r reads
      // x_B[r] = beta_r - sum(alpha_j x_j) over nonbasic j, ineligibility
      // means every *movable* nonbasic already sits at the bound that
      // pushes x_B[r] toward feasibility, and a fixed column's value is a
      // forced constant either way — so no feasible point can repair the
      // violation. (Entering a fixed column could only shuffle the
      // violation onto it, not remove it.)
      if (IsFixed(static_cast<int>(j)) || is_artificial_[j]) continue;
      double alpha = ColumnDot(work_y_, static_cast<int>(j));
      if (std::fabs(alpha) <= kAlphaEps) continue;
      bool at_lower = status_[j] == SimplexBasis::kAtLower;
      // x_B[leave] moves by -alpha * delta_j; pick columns whose admissible
      // direction pushes it toward the violated bound.
      bool eligible = below ? (at_lower ? alpha < 0.0 : alpha > 0.0)
                            : (at_lower ? alpha > 0.0 : alpha < 0.0);
      if (!eligible) continue;
      double d = cost[j] - ColumnDot(y, static_cast<int>(j));
      double ratio = std::fabs(d) / std::fabs(alpha);
      if (ratio < best_ratio - kEps ||
          (ratio < best_ratio + kEps &&
           (enter < 0 || static_cast<int>(j) < enter))) {
        best_ratio = std::min(best_ratio, ratio);
        enter = static_cast<int>(j);
      }
    }
    if (enter < 0) return PricingOutcome::kUnbounded;  // primal infeasible

    std::fill(work_col_.begin(), work_col_.end(), 0.0);
    ScatterColumn(enter, &work_col_);
    Ftran(&work_col_);
    double wl = work_col_[static_cast<size_t>(leave)];
    if (std::fabs(wl) < kPivotEps) return PricingOutcome::kIterationLimit;

    int lcol = basic_[static_cast<size_t>(leave)];
    double bound = below ? lower_[static_cast<size_t>(lcol)]
                         : upper_[static_cast<size_t>(lcol)];
    double delta = (x_basic_[static_cast<size_t>(leave)] - bound) / wl;
    for (size_t r = 0; r < m_; ++r) x_basic_[r] -= work_col_[r] * delta;
    double enter_value = NonbasicValue(enter) + delta;
    status_[static_cast<size_t>(lcol)] =
        below ? SimplexBasis::kAtLower : SimplexBasis::kAtUpper;
    status_[static_cast<size_t>(enter)] = SimplexBasis::kBasic;
    basic_[static_cast<size_t>(leave)] = enter;
    x_basic_[static_cast<size_t>(leave)] = enter_value;
    AppendEta(leave, work_col_);
    if (++pivots_since_refactor_ >= kRefactorInterval) {
      if (CEXTEND_INJECT_FAULT("simplex.refactor") || !Refactorize())
        return PricingOutcome::kIterationLimit;
    }
    ++*iterations;
  }
  return PricingOutcome::kIterationLimit;
}

LpResult RevisedSimplex::Extract(const std::vector<double>& cost) {
  LpResult result;
  result.status = LpStatus::kOptimal;
  result.values.assign(n_struct_, 0.0);
  for (size_t j = 0; j < n_struct_; ++j) {
    result.values[j] =
        status_[j] == SimplexBasis::kBasic ? 0.0 : NonbasicValue(static_cast<int>(j));
  }
  for (size_t r = 0; r < m_; ++r) {
    size_t b = static_cast<size_t>(basic_[r]);
    if (b < n_struct_) result.values[b] = x_basic_[r];
  }
  double obj = 0.0;
  for (size_t j = 0; j < n_struct_; ++j) {
    if (result.values[j] < 0 && result.values[j] > -1e-7)
      result.values[j] = 0.0;
    obj += cost[j] * result.values[j];
  }
  result.objective = obj;
  return result;
}

void RevisedSimplex::SnapshotBasis() {
  saved_basis_.basic = basic_;
  saved_basis_.status = status_;
  saved_basis_.valid = true;
}

LpResult RevisedSimplex::Solve(const std::vector<double>& extra_lower,
                               const std::vector<double>& extra_upper) {
  LpResult result;
  saved_basis_.valid = false;
  interrupt_ = Status::Ok();
  if (!SetupBounds(extra_lower, extra_upper)) {
    result.status = LpStatus::kInfeasible;
    return result;
  }

  // Initial point: every structural column nonbasic at its lower bound (the
  // model guarantees a finite lower), logicals nonbasic at their finite
  // bound. The basic column per row is the logical when the residual fits
  // its bounds, otherwise an artificial relaxed to hold the residual.
  status_.assign(n_total_, SimplexBasis::kAtLower);
  for (size_t i = 0; i < m_; ++i) {
    if (sense_[i] == Sense::kGe)
      status_[n_struct_ + i] = SimplexBasis::kAtUpper;  // finite bound is 0
  }
  std::vector<double> residual = rhs_;
  for (size_t j = 0; j < n_struct_; ++j) {
    double v = lower_[j];
    if (v == 0.0) continue;
    for (int k = col_start_[j]; k < col_start_[j + 1]; ++k) {
      residual[static_cast<size_t>(row_index_[k])] -= values_[k] * v;
    }
  }
  basic_.assign(m_, -1);
  x_basic_.assign(m_, 0.0);
  etas_.clear();
  pivots_since_refactor_ = 0;
  std::vector<double> phase1_cost(n_total_, 0.0);
  bool any_artificial = false;
  for (size_t i = 0; i < m_; ++i) {
    double r = residual[i];
    bool logical_fits = false;
    switch (sense_[i]) {
      case Sense::kLe:
        logical_fits = r >= -kEps;
        break;
      case Sense::kGe:
        logical_fits = r <= kEps;
        break;
      case Sense::kEq:
        logical_fits = std::fabs(r) <= kEps;
        break;
    }
    if (logical_fits) {
      size_t j = n_struct_ + i;
      basic_[i] = static_cast<int>(j);
      status_[j] = SimplexBasis::kBasic;
      x_basic_[i] = r;
    } else {
      size_t j = n_struct_ + m_ + i;
      basic_[i] = static_cast<int>(j);
      status_[j] = SimplexBasis::kBasic;
      x_basic_[i] = r;
      if (r > 0) {
        lower_[j] = 0.0;
        upper_[j] = kInfinity;
        phase1_cost[j] = 1.0;
      } else {
        lower_[j] = -kInfinity;
        upper_[j] = 0.0;
        phase1_cost[j] = -1.0;
      }
      any_artificial = true;
    }
  }

  if (any_artificial) {
    PricingOutcome out = PrimalIterate(phase1_cost, &result.iterations);
    if (out == PricingOutcome::kIterationLimit) {
      result.status = LpStatus::kIterationLimit;
      result.interrupt = interrupt_;
      return result;
    }
    CEXTEND_CHECK(out != PricingOutcome::kUnbounded)
        << "phase-1 objective is bounded below by zero";
    double infeasibility = 0.0;
    for (size_t r = 0; r < m_; ++r) {
      if (is_artificial_[static_cast<size_t>(basic_[r])])
        infeasibility += std::fabs(x_basic_[r]);
    }
    if (infeasibility > 1e-6) {
      result.status = LpStatus::kInfeasible;
      return result;
    }
    // Pin every artificial back to zero; basic ones stay basic at ~0 and
    // leave through degenerate pivots if phase 2 ever needs their row.
    for (size_t j = n_struct_ + m_; j < n_total_; ++j) {
      lower_[j] = 0.0;
      upper_[j] = 0.0;
    }
  }

  PricingOutcome out = PrimalIterate(objective_, &result.iterations);
  if (out == PricingOutcome::kIterationLimit) {
    result.status = LpStatus::kIterationLimit;
    result.interrupt = interrupt_;
    return result;
  }
  if (out == PricingOutcome::kUnbounded) {
    result.status = LpStatus::kUnbounded;
    return result;
  }
  LpResult extracted = Extract(objective_);
  extracted.iterations = result.iterations;
  SnapshotBasis();
  return extracted;
}

std::optional<LpResult> RevisedSimplex::SolveWarm(
    const SimplexBasis& basis, const std::vector<double>& extra_lower,
    const std::vector<double>& extra_upper) {
  saved_basis_.valid = false;
  interrupt_ = Status::Ok();
  if (!basis.valid || basis.basic.size() != m_ ||
      basis.status.size() != n_total_) {
    return std::nullopt;
  }
  LpResult result;
  if (!SetupBounds(extra_lower, extra_upper)) {
    result.status = LpStatus::kInfeasible;
    return result;
  }
  basic_ = basis.basic;
  status_ = basis.status;
  // A nonbasic column must rest on a finite bound; branch & bound only
  // tightens structural bounds, so snapshots stay valid — but guard anyway.
  for (size_t j = 0; j < n_total_; ++j) {
    if (status_[j] == SimplexBasis::kBasic) continue;
    if (status_[j] == SimplexBasis::kAtLower && lower_[j] == -kInfinity)
      return std::nullopt;
    if (status_[j] == SimplexBasis::kAtUpper && upper_[j] == kInfinity)
      return std::nullopt;
  }
  etas_.clear();
  if (CEXTEND_INJECT_FAULT("simplex.refactor") || !Refactorize())
    return std::nullopt;

  // The parent basis is dual feasible for the model objective (bound changes
  // do not touch reduced costs), so the dual simplex restores primal
  // feasibility; the primal pass then mops up any residual drift.
  PricingOutcome out = DualIterate(objective_, &result.iterations);
  if (out == PricingOutcome::kUnbounded) {
    result.status = LpStatus::kInfeasible;
    return result;
  }
  if (out == PricingOutcome::kIterationLimit) return std::nullopt;
  out = PrimalIterate(objective_, &result.iterations);
  if (out == PricingOutcome::kIterationLimit) return std::nullopt;
  if (out == PricingOutcome::kUnbounded) {
    result.status = LpStatus::kUnbounded;
    return result;
  }
  LpResult extracted = Extract(objective_);
  extracted.iterations = result.iterations;
  SnapshotBasis();
  return extracted;
}

}  // namespace ilp
}  // namespace cextend
