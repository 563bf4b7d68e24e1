#include "datagen/census.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "util/logging.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace cextend {
namespace datagen {
namespace {

/// Distinct Area values. 121 are reserved for Area-only CCs; the rest form
/// the Tenure-Area pool (paper Table 5 uses 469 pairs + 121 areas).
constexpr size_t kNumAreas = 250;

/// One generated person before table materialization.
struct Person {
  int64_t age;
  const char* rel;
  int64_t multi_ling;
  int64_t hid;
};

/// Household composition state used to respect the per-house DCs.
struct Household {
  int64_t hid;
  int64_t owner_age;
  int64_t owner_multi;
  bool has_spouse_or_partner = false;
  size_t members = 1;  // the owner
};

int64_t Clamp(int64_t v, int64_t lo, int64_t hi) {
  return std::max(lo, std::min(hi, v));
}

/// Draws an age uniformly within [lo, hi] clamped to [0, 114]; returns -1
/// when the clamped range is empty.
int64_t DrawAge(Rng& rng, int64_t lo, int64_t hi) {
  lo = Clamp(lo, 0, 114);
  hi = Clamp(hi, 0, 114);
  if (lo > hi) return -1;
  return rng.UniformInt(lo, hi);
}

/// Tries to add one non-owner member to `house`, respecting every DC of
/// Table 4. Returns true on success.
bool TryAddMember(Rng& rng, Household& house, std::vector<Person>& persons) {
  const int64_t a = house.owner_age;
  // Candidate member types with weights; infeasible ones are filtered below.
  struct Option {
    const char* rel;
    double weight;
    int64_t lo, hi;   // permissible age range given the owner
    bool needs_single_spouse_slot = false;
  };
  constexpr size_t kMaxOptions = 12;
  Option options[kMaxOptions];
  size_t num_options = 0;
  auto add = [&](Option o) { options[num_options++] = o; };
  int64_t child_lo = house.owner_multi == 1 ? a - 50 : a - 69;
  add({kBioChild, 0.34, child_lo, a - 12});
  add({kStepChild, 0.05, child_lo, a - 12});
  add({kAdoptedChild, 0.04, child_lo, a - 12});
  add({kFosterChild, 0.02, a - 69, a - 12});
  add({kSpouse, 0.27, a - 50, a + 50, true});
  add({kPartner, 0.05, a - 50, a + 50, true});
  add({kSibling, 0.05, a - 35, a + 35});
  if (a <= 94) {
    add({kParent, 0.04, a + 12, a + 115});
    add({kParentInLaw, 0.02, a + 12, a + 115});
  }
  if (a >= 30) {
    add({kGrandchild, 0.04, a - 115, a - 30});
    add({kChildInLaw, 0.02, a - 69, a - 1});
  }
  add({kHousemate, 0.06, 15, 85});

  double weights[kMaxOptions];
  double total = 0.0;
  for (size_t i = 0; i < num_options; ++i) {
    const Option& o = options[i];
    bool feasible = !(o.needs_single_spouse_slot && house.has_spouse_or_partner);
    int64_t lo = Clamp(o.lo, 0, 114);
    int64_t hi = Clamp(o.hi, 0, 114);
    if (lo > hi) feasible = false;
    weights[i] = feasible ? o.weight : 0.0;
    total += weights[i];
  }
  if (total <= 0.0) return false;
  const Option& pick =
      options[rng.WeightedIndex(std::span<const double>(weights, num_options))];
  int64_t age = DrawAge(rng, pick.lo, pick.hi);
  if (age < 0) return false;
  if (pick.needs_single_spouse_slot) house.has_spouse_or_partner = true;
  persons.push_back(Person{age, pick.rel, rng.Bernoulli(0.22) ? 1 : 0,
                           house.hid});
  ++house.members;
  return true;
}

}  // namespace

CensusOptions ScaledCensusOptions(double scale, size_t unit_persons,
                                  size_t unit_households) {
  CensusOptions options;
  options.num_persons =
      static_cast<size_t>(std::llround(scale * static_cast<double>(unit_persons)));
  options.num_households = static_cast<size_t>(
      std::llround(scale * static_cast<double>(unit_households)));
  return options;
}

StatusOr<CensusData> GenerateCensus(const CensusOptions& options) {
  if (options.num_persons < options.num_households) {
    return Status::InvalidArgument(
        "need at least one person (the owner) per household");
  }
  if (options.num_r2_columns != 2 && options.num_r2_columns != 4 &&
      options.num_r2_columns != 6 && options.num_r2_columns != 8 &&
      options.num_r2_columns != 10) {
    return Status::InvalidArgument("num_r2_columns must be 2, 4, 6, 8 or 10");
  }
  Rng rng(options.seed);

  // ---- Households: one owner each. ----
  std::vector<Household> houses;
  std::vector<Person> persons;
  houses.reserve(options.num_households);
  persons.reserve(options.num_persons);
  for (size_t h = 0; h < options.num_households; ++h) {
    Household house;
    house.hid = static_cast<int64_t>(h) + 1;
    house.owner_age = rng.UniformInt(18, 95);
    house.owner_multi = rng.Bernoulli(0.25) ? 1 : 0;
    persons.push_back(Person{house.owner_age, kOwner, house.owner_multi,
                             house.hid});
    houses.push_back(house);
  }
  // ---- Fill remaining persons by adding members to random households. ----
  size_t guard = 0;
  while (persons.size() < options.num_persons) {
    size_t h = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(houses.size()) - 1));
    if (!TryAddMember(rng, houses[h], persons)) {
      if (++guard > options.num_persons * 50) {
        return Status::Internal("census generator failed to place members");
      }
    }
  }
  // Stable person order: by household then insertion; pid assigned after a
  // shuffle so tuple order does not leak household structure.
  rng.Shuffle(persons);

  // ---- Housing table. ----
  std::vector<ColumnSpec> housing_specs = {{"hid", DataType::kInt64},
                                           {"Tenure", DataType::kString},
                                           {"Area", DataType::kString}};
  if (options.num_r2_columns >= 4) {
    housing_specs.push_back({"County", DataType::kString});
    housing_specs.push_back({"St", DataType::kString});
  }
  if (options.num_r2_columns >= 6) {
    housing_specs.push_back({"Div", DataType::kString});
    housing_specs.push_back({"Reg", DataType::kString});
  }
  if (options.num_r2_columns >= 8) {
    housing_specs.push_back({"Water", DataType::kInt64});
    housing_specs.push_back({"Bath", DataType::kInt64});
  }
  if (options.num_r2_columns >= 10) {
    housing_specs.push_back({"Fridge", DataType::kInt64});
    housing_specs.push_back({"Stove", DataType::kInt64});
  }
  Table housing{Schema(housing_specs)};
  static const char* kTenures[] = {"Owned-mortgage", "Owned-free", "Rented",
                                   "No-rent"};
  static const double kTenureWeights[] = {0.38, 0.22, 0.32, 0.08};
  const ZipfTable area_zipf(kNumAreas, 0.6);
  for (const Household& house : houses) {
    size_t area = area_zipf.Draw(rng);
    size_t tenure = rng.WeightedIndex(kTenureWeights);
    std::vector<Value> row;
    row.push_back(Value(house.hid));
    row.push_back(Value(kTenures[tenure]));
    row.push_back(Value(StrFormat("A%03zu", area)));
    if (options.num_r2_columns >= 4) {
      // County is determined by Area (two areas per county); St by Area too.
      row.push_back(Value(StrFormat("C%03zu", area / 2)));
      row.push_back(Value(StrFormat("S%02zu", area % 50)));
    }
    if (options.num_r2_columns >= 6) {
      // Div and Reg are determined by St (paper Section 6.1 notes this).
      row.push_back(Value(StrFormat("D%zu", (area % 50) % 9)));
      row.push_back(Value(StrFormat("R%zu", ((area % 50) % 9) % 4)));
    }
    if (options.num_r2_columns >= 8) {
      row.push_back(Value(rng.Bernoulli(0.95) ? 1 : 0));
      row.push_back(Value(rng.Bernoulli(0.9) ? 1 : 0));
    }
    if (options.num_r2_columns >= 10) {
      row.push_back(Value(rng.Bernoulli(0.93) ? 1 : 0));
      row.push_back(Value(rng.Bernoulli(0.96) ? 1 : 0));
    }
    CEXTEND_RETURN_IF_ERROR(housing.AppendRow(row));
  }

  // ---- Persons tables (truth + problem input with NULL hid). ----
  Schema persons_schema{{"pid", DataType::kInt64},
                        {"Age", DataType::kInt64},
                        {"Rel", DataType::kString},
                        {"MultiLing", DataType::kInt64},
                        {"hid", DataType::kInt64}};
  Table persons_truth{persons_schema};
  for (size_t i = 0; i < persons.size(); ++i) {
    CEXTEND_RETURN_IF_ERROR(persons_truth.AppendRow(
        {Value(static_cast<int64_t>(i) + 1), Value(persons[i].age),
         Value(persons[i].rel), Value(persons[i].multi_ling),
         Value(persons[i].hid)}));
  }
  Table persons_input = persons_truth.Clone();
  size_t hid_col = persons_schema.IndexOrDie("hid");
  for (size_t r = 0; r < persons_input.NumRows(); ++r) {
    persons_input.SetCode(r, hid_col, kNullCode);
  }

  CensusData data{std::move(persons_input), std::move(housing),
                  std::move(persons_truth), {}};
  CEXTEND_ASSIGN_OR_RETURN(
      data.names,
      PairSchema::Infer(data.persons, data.housing, "pid", "hid", "hid"));
  return data;
}

}  // namespace datagen
}  // namespace cextend
