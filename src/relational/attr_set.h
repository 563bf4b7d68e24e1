// Per-attribute value-set algebra underlying the CC relationship
// classification of Definitions 4.2-4.4 (disjoint / contained / intersecting).
//
// A conjunctive selection condition induces, for each mentioned attribute, a
// set of admissible values:
//   * integer attributes: a closed interval [lo, hi] (from =, <, <=, >, >=),
//   * categorical attributes: a finite set (from =, IN) or the complement of
//     a finite set (from !=).
// Anything not representable this way (e.g. != on an integer) is kUnknown and
// compared conservatively: unknown sets are never subsets of / disjoint from
// anything except syntactically equal sets, which routes the affected CCs to
// the general ILP path (safe, merely less efficient).

#ifndef CEXTEND_RELATIONAL_ATTR_SET_H_
#define CEXTEND_RELATIONAL_ATTR_SET_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "relational/predicate.h"
#include "relational/schema.h"
#include "util/statusor.h"

namespace cextend {

/// The set of values an attribute may take under a conjunctive condition.
class AttrSet {
 public:
  enum class Kind {
    kInterval,     ///< integer interval [lo, hi]; empty when lo > hi
    kCatPositive,  ///< finite set of category strings
    kCatNegative,  ///< complement of a finite set of category strings
    kUnknown,      ///< not representable; compare conservatively
  };

  /// Unbounded integer interval.
  static AttrSet FullInt();
  static AttrSet Interval(int64_t lo, int64_t hi);
  static AttrSet CatIn(std::vector<std::string> values);
  static AttrSet CatNotIn(std::vector<std::string> values);
  static AttrSet Unknown();

  Kind kind() const { return kind_; }
  int64_t lo() const { return lo_; }
  int64_t hi() const { return hi_; }
  const std::vector<std::string>& values() const { return values_; }

  bool IsEmpty() const;

  /// Set intersection. Unknown absorbs everything.
  AttrSet IntersectWith(const AttrSet& other) const;

  /// Membership tests. Unknown sets conservatively contain everything.
  bool ContainsInt(int64_t v) const;
  bool ContainsString(const std::string& v) const;

  /// Structural equality (after normalization; value lists are sorted).
  friend bool operator==(const AttrSet& a, const AttrSet& b);

  std::string ToString() const;

 private:
  AttrSet() = default;

  Kind kind_ = Kind::kUnknown;
  int64_t lo_ = 0;
  int64_t hi_ = -1;
  std::vector<std::string> values_;  // sorted
};

/// Attribute name -> admissible set, for every attribute mentioned by the
/// predicate. Uses `schema` to resolve attribute types. Fails when the
/// predicate references a column absent from the schema.
StatusOr<std::map<std::string, AttrSet>> ComputeAttrSets(const Predicate& pred,
                                                         const Schema& schema);

}  // namespace cextend

#endif  // CEXTEND_RELATIONAL_ATTR_SET_H_
