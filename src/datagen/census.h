// Synthetic census-like data generator.
//
// The paper evaluates on an extract of the 2010 U.S. Decennial Census [44]
// (Persons/Housing with a missing hid FK). That extract is not available
// offline, so this generator produces the closest synthetic equivalent:
//   * Persons(pid, Age, Rel, MultiLing, hid) and Housing(hid, Tenure, Area,
//     [County, St, Div, Reg, Water, Bath, Fridge, Stove]) with the exact row
//     counts of the paper's Table 1 (scaled by any factor);
//   * households are composed so the *ground truth* satisfies all 12 DCs of
//     Table 4 (ages of spouses/children/parents/... respect the gaps);
//   * CC targets are later counted on the ground-truth join (persons_truth's
//     hid), exactly as the paper derives targets from the real data.
// Every figure's shape depends on constraint structure and scale, not on
// census-specific values, so this substitution preserves the experiments.

#ifndef CEXTEND_DATAGEN_CENSUS_H_
#define CEXTEND_DATAGEN_CENSUS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/join_view.h"
#include "relational/table.h"
#include "util/statusor.h"

namespace cextend {
namespace datagen {

/// Relationship-to-householder vocabulary (matching Tables 4 and 5).
inline constexpr const char* kOwner = "Owner";
inline constexpr const char* kSpouse = "Spouse";
inline constexpr const char* kPartner = "Unmarried partner";
inline constexpr const char* kBioChild = "Biological child";
inline constexpr const char* kAdoptedChild = "Adopted child";
inline constexpr const char* kStepChild = "Step child";
inline constexpr const char* kFosterChild = "Foster child";
inline constexpr const char* kSibling = "Sibling";
inline constexpr const char* kParent = "Father/Mother";
inline constexpr const char* kParentInLaw = "Parent-in-law";
inline constexpr const char* kChildInLaw = "Son/Daughter in-law";
inline constexpr const char* kGrandchild = "Grandchild";
inline constexpr const char* kHousemate = "House/Room mate";

struct CensusOptions {
  /// Target table sizes; the defaults are the paper's 1x scale (Table 1).
  size_t num_persons = 25099;
  size_t num_households = 9820;
  /// Number of non-key Housing columns: 2, 4, 6, 8 or 10 (paper Figure 12).
  size_t num_r2_columns = 2;
  uint64_t seed = 42;
};

/// Returns options for the paper's Table-1 scale factor (1, 2, 5, 10, 40, 80,
/// 120, 160), with sizes scaled against `unit_persons`/`unit_households`
/// (defaults = the paper's 1x sizes).
CensusOptions ScaledCensusOptions(double scale, size_t unit_persons = 25099,
                                  size_t unit_households = 9820);

struct CensusData {
  Table persons;        ///< hid column all-NULL (the problem input)
  Table housing;
  Table persons_truth;  ///< persons with the generating hid assignment
  PairSchema names;     ///< pid/hid/hid linkage + attribute lists
};

/// Generates a dataset. Deterministic given options.seed.
StatusOr<CensusData> GenerateCensus(const CensusOptions& options);

}  // namespace datagen
}  // namespace cextend

#endif  // CEXTEND_DATAGEN_CENSUS_H_
