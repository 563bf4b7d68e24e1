// Reference join for tests: R1 ⋈_{fk = key2} R2 materialized as a filled
// join view. Tests use it to check a solved R1 against its CCs
// (Proposition 5.5) and to count CC targets the direct way, against which
// datagen::CountCcTargets must agree.

#ifndef CEXTEND_TESTS_CORE_JOIN_ORACLE_H_
#define CEXTEND_TESTS_CORE_JOIN_ORACLE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/join_view.h"
#include "relational/table.h"
#include "util/status.h"
#include "util/statusor.h"
#include "util/string_util.h"

namespace cextend {
namespace join_oracle {

/// The join of a *filled* R1 with R2: MakeJoinView with every B cell copied
/// from the R2 row its FK names. Fails with FailedPrecondition on a NULL,
/// duplicate or dangling key.
inline StatusOr<Table> MaterializeJoin(const Table& r1, const Table& r2,
                                       const PairSchema& names) {
  CEXTEND_ASSIGN_OR_RETURN(Table v_join, MakeJoinView(r1, r2, names));
  size_t fk_col = r1.schema().IndexOrDie(names.fk);
  size_t k2_col = r2.schema().IndexOrDie(names.key2);
  std::unordered_map<int64_t, uint32_t> key_to_row;
  key_to_row.reserve(r2.NumRows() * 2);
  for (size_t r = 0; r < r2.NumRows(); ++r) {
    int64_t key = r2.GetCode(r, k2_col);
    if (key == kNullCode)
      return Status::FailedPrecondition("NULL key in R2");
    if (!key_to_row.emplace(key, static_cast<uint32_t>(r)).second)
      return Status::FailedPrecondition("duplicate key in R2");
  }
  std::vector<size_t> b_cols_r2, b_cols_v;
  for (const std::string& b : names.r2_attrs) {
    b_cols_r2.push_back(r2.schema().IndexOrDie(b));
    b_cols_v.push_back(v_join.schema().IndexOrDie(b));
  }
  for (size_t r = 0; r < r1.NumRows(); ++r) {
    int64_t fk = r1.GetCode(r, fk_col);
    if (fk == kNullCode) {
      return Status::FailedPrecondition(
          StrFormat("R1 row %zu has NULL foreign key", r));
    }
    auto it = key_to_row.find(fk);
    if (it == key_to_row.end()) {
      return Status::FailedPrecondition(
          StrFormat("R1 row %zu has dangling foreign key", r));
    }
    for (size_t i = 0; i < b_cols_r2.size(); ++i) {
      v_join.SetCode(r, b_cols_v[i], r2.GetCode(it->second, b_cols_r2[i]));
    }
  }
  return v_join;
}

}  // namespace join_oracle
}  // namespace cextend

#endif  // CEXTEND_TESTS_CORE_JOIN_ORACLE_H_
