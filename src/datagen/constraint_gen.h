// Generators for the constraint sets of the paper's experiments:
//   * the 12 denial constraints of Table 4 (S_all_DC) and the first-8 subset
//     (S_good_DC, which creates no cliques in conflict graphs);
//   * the S_good_CC / S_bad_CC families of Table 5 (1001 CCs each, built from
//     469 Tenure-Area pairs plus 121 Area-only values, combined with the
//     good/bad R1-predicate pools; "bad" pools contain intersecting Age
//     intervals).
// Targets are counted on the ground-truth join, as the paper derives targets
// from the real data, without materializing it (CountCcTargets).

#ifndef CEXTEND_DATAGEN_CONSTRAINT_GEN_H_
#define CEXTEND_DATAGEN_CONSTRAINT_GEN_H_

#include <cstdint>
#include <vector>

#include "constraints/cardinality_constraint.h"
#include "constraints/denial_constraint.h"
#include "datagen/census.h"
#include "util/statusor.h"

namespace cextend {
namespace datagen {

/// Table 4. Range rules expand to a low/high pair of conjunctive DCs, so the
/// vector holds more entries than 12; `names` encode the paper numbering
/// ("DC1.low", "DC9", ...). `good_only` keeps DCs 1-8 (S_good_DC).
std::vector<DenialConstraint> MakeCensusDcs(bool good_only);

struct CcFamilyOptions {
  size_t num_ccs = 1001;
  /// false: the S_good pool (containment chains only); true: the S_bad pool
  /// (intersecting Age intervals).
  bool intersecting = false;
};

/// Builds a CC family over the generated census data, with targets counted
/// on the ground truth join by CountCcTargets.
StatusOr<std::vector<CardinalityConstraint>> GenerateCcs(
    const CensusData& data, const CcFamilyOptions& options);

/// Sets each CC's target to the number of rows of the join r1 ⋈_{fk=key2} r2
/// that satisfy its JoinCondition(), where `r1` holds the ground-truth FK.
/// The join is never materialized. Rows of `r1` are grouped into classes of
/// equal codes on the columns the r1_conditions read, rows of `r2` likewise
/// for the r2_conditions; each R1 row is mapped through its FK to its R2 row's
/// class, a counting sort buckets the R1 rows by that class, and one count
/// per bucket gives, per R2 class, the R1 classes joined to it with their row
/// counts. A CC's conditions are then matched on one representative row per
/// class (FootprintMatcher), and its target is the sum of the counts of the
/// matching pairs. Cost: O(|r1| + |r2| + classes) to intern, bucket and
/// count, and per CC the number of distinct pairs in its matching R2 classes
/// (2,283 R1 and 1,000 R2 classes on the 250k-person census).
///
/// Fails with InvalidArgument when `names` does not validate against the
/// tables (PairSchema::Validate rejects NULL and duplicate keys), when a
/// condition does not bind or when it reads a column outside its side of
/// the join view (key1 and the R1 attributes for r1_condition, the R2
/// attributes for r2_condition), and with FailedPrecondition on a NULL or
/// dangling foreign key.
Status CountCcTargets(const Table& r1, const Table& r2, const PairSchema& names,
                      std::vector<CardinalityConstraint>* ccs);

}  // namespace datagen
}  // namespace cextend

#endif  // CEXTEND_DATAGEN_CONSTRAINT_GEN_H_
