// Integer linear program model builder.
//
// The paper solves phase-I count systems with PuLP/CBC; this module is the
// from-scratch replacement. A model is
//     minimize    c^T x
//     subject to  A x {<=, =, >=} b,   x >= 0,   x_i integer for marked i,
// with optional finite upper bounds (handled implicitly by the bounded-variable
// revised simplex; see revised_simplex.h).

#ifndef CEXTEND_ILP_MODEL_H_
#define CEXTEND_ILP_MODEL_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace cextend {
namespace ilp {

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

struct LinearTerm {
  int var = 0;
  double coeff = 0.0;
};

enum class Sense { kLe, kEq, kGe };

const char* SenseToString(Sense s);

struct LinearConstraint {
  std::vector<LinearTerm> terms;
  Sense sense = Sense::kEq;
  double rhs = 0.0;
  std::string name;
};

struct Variable {
  double objective = 0.0;
  double upper = kInfinity;  ///< lower bound is always 0
  bool is_integer = false;
  std::string name;
};

class Model {
 public:
  /// Adds a variable with lower bound 0; returns its index.
  int AddVariable(double objective, bool is_integer,
                  double upper = kInfinity, std::string name = "");

  /// Adds a constraint; terms with duplicate variables are summed.
  void AddConstraint(LinearConstraint constraint);

  /// Convenience: sum(terms) `sense` rhs.
  void AddConstraint(std::vector<LinearTerm> terms, Sense sense, double rhs,
                     std::string name = "");

  size_t num_variables() const { return variables_.size(); }
  size_t num_constraints() const { return constraints_.size(); }
  const Variable& variable(size_t i) const { return variables_[i]; }
  const std::vector<Variable>& variables() const { return variables_; }
  const std::vector<LinearConstraint>& constraints() const {
    return constraints_;
  }
  bool HasIntegerVariables() const;

  std::string ToString() const;

 private:
  std::vector<Variable> variables_;
  std::vector<LinearConstraint> constraints_;
};

}  // namespace ilp
}  // namespace cextend

#endif  // CEXTEND_ILP_MODEL_H_
