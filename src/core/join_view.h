// The linked pair (R1, R2) and its join view V_join (Section 3.1).
//
// V_join has schema (K1, A1..Ap, B1..Bq): a copy of R1 without the FK column
// plus one initially-NULL column per non-key R2 column. Because of the
// foreign-key dependence, |V_join| = |R1| and rows correspond by position.

#ifndef CEXTEND_CORE_JOIN_VIEW_H_
#define CEXTEND_CORE_JOIN_VIEW_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "relational/table.h"
#include "util/code_interner.h"
#include "util/statusor.h"

namespace cextend {

/// Names of the key/FK columns and of the non-key attribute columns of a
/// linked pair R1(K1, A1..Ap, FK) and R2(K2, B1..Bq).
struct PairSchema {
  std::string key1;                    ///< R1 primary key (INT64)
  std::string fk;                      ///< R1 foreign key into R2 (INT64)
  std::string key2;                    ///< R2 primary key (INT64)
  std::vector<std::string> r1_attrs;   ///< A1..Ap
  std::vector<std::string> r2_attrs;   ///< B1..Bq

  /// Derives the attribute lists from the table schemas: every non-key R1
  /// column except `fk`, and every non-key R2 column.
  static StatusOr<PairSchema> Infer(const Table& r1, const Table& r2,
                                    std::string key1, std::string fk,
                                    std::string key2);

  /// Checks that all named columns exist with the right types and that both
  /// key columns hold distinct, non-NULL keys (R̂1 keeps R1's key as its
  /// primary key, and phase II assumes each R2 key belongs to one R2
  /// tuple). O(|R1| + |R2|).
  Status Validate(const Table& r1, const Table& r2) const;
};

/// Builds the initial V_join: K1 + A columns copied from R1, B columns NULL.
/// B columns share R2's dictionaries so codes are directly comparable.
StatusOr<Table> MakeJoinView(const Table& r1, const Table& r2,
                             const PairSchema& names);

/// Index over the distinct (B1..Bq) combinations present in R2: which keys
/// realize each combination, and one R2 row per combination (which R2-side
/// CC conditions a combination satisfies is read at that row; see MatchCcs
/// in core/fill_state.h). Phase I uses it for variable construction and
/// leftover filling; phase II uses it for candidate color lists.
class ComboIndex {
 public:
  static StatusOr<ComboIndex> Build(const Table& r2, const PairSchema& names);

  size_t num_combos() const { return classes_.size(); }

  /// Codes of combo `i`, one per B column (order of names.r2_attrs).
  std::span<const int64_t> combo_codes(size_t i) const {
    return classes_.keys.tuple(static_cast<uint32_t>(i));
  }

  /// K2 values carrying combo `i`, ascending.
  const std::vector<int64_t>& keys(size_t i) const { return keys_[i]; }

  /// Combo id for exact codes, if present in R2 (nullopt when `codes` has
  /// the wrong arity). Ids are in first-appearance order over R2's rows.
  std::optional<size_t> Find(std::span<const int64_t> codes) const;

  /// The first R2 row carrying each combo (R2 row indices, not keys).
  const std::vector<uint32_t>& representatives() const {
    return classes_.representatives;
  }

  /// Repeats each combo id proportionally to its key count (capped at
  /// `cap`). Round-robin assignment over the expanded list spreads tuples
  /// according to R2's capacity, which keeps phase II from minting fresh
  /// keys for crowded combos (an engineering refinement over the paper's
  /// uniform rotation; coloring semantics are unchanged).
  std::vector<size_t> ExpandByKeyCount(const std::vector<size_t>& combos,
                                       size_t cap = 8) const;

 private:
  RowClasses classes_;  // R2 rows by B codes
  std::vector<std::vector<int64_t>> keys_;
};

}  // namespace cextend

#endif  // CEXTEND_CORE_JOIN_VIEW_H_
