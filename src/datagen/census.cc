#include "datagen/census.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>
#include <span>
#include <string>

#include "util/logging.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace cextend {
namespace datagen {
namespace {

/// Distinct Area values. 121 are reserved for Area-only CCs; the rest form
/// the Tenure-Area pool (paper Table 5 uses 469 pairs + 121 areas).
constexpr size_t kNumAreas = 250;

/// Rel labels, in the order of `kRelLabels`; `Person::rel` is one of these.
enum Rel : uint8_t {
  kRelOwner, kRelSpouse, kRelPartner, kRelBioChild, kRelAdoptedChild,
  kRelStepChild, kRelFosterChild, kRelSibling, kRelParent, kRelParentInLaw,
  kRelChildInLaw, kRelGrandchild, kRelHousemate, kNumRels
};
constexpr const char* kRelLabels[kNumRels] = {
    kOwner,      kSpouse,       kPartner, kBioChild, kAdoptedChild,
    kStepChild,  kFosterChild,  kSibling, kParent,   kParentInLaw,
    kChildInLaw, kGrandchild,   kHousemate};

/// One generated person before table materialization.
struct Person {
  int64_t hid;
  int32_t age;
  Rel rel;
  uint8_t multi_ling;
};

/// Household composition state used to respect the per-house DCs.
struct Household {
  int64_t hid;
  int64_t owner_age;
  int64_t owner_multi;
  bool has_spouse_or_partner = false;
};

/// One string column's labels and their codes. A label is interned the
/// first time a row uses it, so the dictionary numbers labels in first-row
/// order, as appending the rows' text would.
class LabelCodes {
 public:
  explicit LabelCodes(std::vector<std::string> labels)
      : dict_(std::make_shared<Dictionary>()),
        labels_(std::move(labels)),
        codes_(labels_.size(), kNullCode) {}

  int64_t Code(size_t label) {
    int64_t& code = codes_[label];
    if (code == kNullCode) code = dict_->Intern(labels_[label]);
    return code;
  }

  const std::shared_ptr<Dictionary>& dict() const { return dict_; }

 private:
  std::shared_ptr<Dictionary> dict_;
  std::vector<std::string> labels_;
  std::vector<int64_t> codes_;
};

/// The Housing columns whose label is a function of the Area drawn, in
/// schema order: `num_r2_columns` 2 has Area, 4 adds County and St, 6 and
/// up add Div and Reg.
struct AreaColumn {
  const char* name;
  const char* format;
  size_t (*label)(size_t area);
};
constexpr AreaColumn kAreaColumns[] = {
    {"Area", "A%03zu", [](size_t area) { return area; }},
    // County is determined by Area (two areas per county); St by Area too.
    {"County", "C%03zu", [](size_t area) { return area / 2; }},
    {"St", "S%02zu", [](size_t area) { return area % 50; }},
    // Div and Reg are determined by St (paper Section 6.1 notes this).
    {"Div", "D%zu", [](size_t area) { return area % 50 % 9; }},
    {"Reg", "R%zu", [](size_t area) { return area % 50 % 9 % 4; }},
};

/// The 0/1 Housing columns after the Area columns, with the probability of
/// a 1: `num_r2_columns` 8 has Water and Bath, 10 adds Fridge and Stove.
struct FlagColumn {
  const char* name;
  double p;
};
constexpr FlagColumn kFlagColumns[] = {
    {"Water", 0.95}, {"Bath", 0.9}, {"Fridge", 0.93}, {"Stove", 0.96}};

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
    Rel rel;
    double weight;
    int64_t lo, hi;   // permissible age range given the owner
    bool needs_single_spouse_slot = false;
  };
  constexpr size_t kMaxOptions = 12;
  Option options[kMaxOptions];
  size_t num_options = 0;
  auto add = [&](Option o) { options[num_options++] = o; };
  int64_t child_lo = house.owner_multi == 1 ? a - 50 : a - 69;
  add({kRelBioChild, 0.34, child_lo, a - 12});
  add({kRelStepChild, 0.05, child_lo, a - 12});
  add({kRelAdoptedChild, 0.04, child_lo, a - 12});
  add({kRelFosterChild, 0.02, a - 69, a - 12});
  add({kRelSpouse, 0.27, a - 50, a + 50, true});
  add({kRelPartner, 0.05, a - 50, a + 50, true});
  add({kRelSibling, 0.05, a - 35, a + 35});
  if (a <= 94) {
    add({kRelParent, 0.04, a + 12, a + 115});
    add({kRelParentInLaw, 0.02, a + 12, a + 115});
  }
  if (a >= 30) {
    add({kRelGrandchild, 0.04, a - 115, a - 30});
    add({kRelChildInLaw, 0.02, a - 69, a - 1});
  }
  add({kRelHousemate, 0.06, 15, 85});

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
  persons.push_back(Person{house.hid, static_cast<int32_t>(age), pick.rel,
                           static_cast<uint8_t>(rng.Bernoulli(0.22) ? 1 : 0)});
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
    persons.push_back(Person{house.hid, static_cast<int32_t>(house.owner_age),
                             kRelOwner,
                             static_cast<uint8_t>(house.owner_multi)});
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

  // ---- Housing table, column by column: hid, Tenure, the Area columns,
  // then the flag columns, each row's draws in that order. ----
  static const char* kTenures[] = {"Owned-mortgage", "Owned-free", "Rented",
                                   "No-rent"};
  static const double kTenureWeights[] = {0.38, 0.22, 0.32, 0.08};
  const size_t num_area_cols = std::min<size_t>(options.num_r2_columns - 1, 5);
  const size_t num_flag_cols =
      options.num_r2_columns > 6 ? options.num_r2_columns - 6 : 0;
  const size_t num_houses = houses.size();
  std::vector<ColumnSpec> housing_specs = {{"hid", DataType::kInt64},
                                           {"Tenure", DataType::kString}};
  std::vector<std::vector<int64_t>> housing_cols(
      2 + num_area_cols + num_flag_cols, std::vector<int64_t>(num_houses));
  LabelCodes tenures({std::begin(kTenures), std::end(kTenures)});
  std::vector<std::shared_ptr<Dictionary>> housing_dicts = {nullptr,
                                                            tenures.dict()};
  // Each Area column's labels are indexed by the Area drawn.
  std::vector<LabelCodes> area_labels;
  for (size_t i = 0; i < num_area_cols; ++i) {
    const AreaColumn& column = kAreaColumns[i];
    housing_specs.push_back({column.name, DataType::kString});
    std::vector<std::string> labels;
    for (size_t area = 0; area < kNumAreas; ++area) {
      labels.push_back(StrFormat(column.format, column.label(area)));
    }
    area_labels.emplace_back(std::move(labels));
    housing_dicts.push_back(area_labels.back().dict());
  }
  for (size_t i = 0; i < num_flag_cols; ++i) {
    housing_specs.push_back({kFlagColumns[i].name, DataType::kInt64});
  }
  const ZipfTable area_zipf(kNumAreas, 0.6);
  for (size_t h = 0; h < num_houses; ++h) {
    const size_t area = area_zipf.Draw(rng);
    const size_t tenure = rng.WeightedIndex(kTenureWeights);
    housing_cols[0][h] = houses[h].hid;
    housing_cols[1][h] = tenures.Code(tenure);
    for (size_t i = 0; i < num_area_cols; ++i) {
      housing_cols[2 + i][h] = area_labels[i].Code(area);
    }
    for (size_t i = 0; i < num_flag_cols; ++i) {
      housing_cols[2 + num_area_cols + i][h] =
          rng.Bernoulli(kFlagColumns[i].p) ? 1 : 0;
    }
  }
  Table housing{Schema(housing_specs), std::move(housing_dicts),
                std::move(housing_cols)};

  // ---- Persons tables (truth + problem input with NULL hid), one pass
  // over the persons; the two share the Rel dictionary. ----
  Schema persons_schema{{"pid", DataType::kInt64},
                        {"Age", DataType::kInt64},
                        {"Rel", DataType::kString},
                        {"MultiLing", DataType::kInt64},
                        {"hid", DataType::kInt64}};
  const size_t n = persons.size();
  std::vector<std::vector<int64_t>> truth_cols(persons_schema.NumColumns(),
                                               std::vector<int64_t>(n));
  LabelCodes rels({std::begin(kRelLabels), std::end(kRelLabels)});
  for (size_t i = 0; i < n; ++i) {
    const Person& p = persons[i];
    truth_cols[0][i] = static_cast<int64_t>(i) + 1;
    truth_cols[1][i] = p.age;
    truth_cols[2][i] = rels.Code(p.rel);
    truth_cols[3][i] = p.multi_ling;
    truth_cols[4][i] = p.hid;
  }
  std::vector<std::vector<int64_t>> input_cols(truth_cols.begin(),
                                               truth_cols.end() - 1);
  input_cols.emplace_back(n, kNullCode);
  const std::vector<std::shared_ptr<Dictionary>> persons_dicts = {
      nullptr, nullptr, rels.dict(), nullptr, nullptr};
  Table persons_input{persons_schema, persons_dicts, std::move(input_cols)};
  Table persons_truth{persons_schema, persons_dicts, std::move(truth_cols)};

  CensusData data{std::move(persons_input), std::move(housing),
                  std::move(persons_truth), {}};
  CEXTEND_ASSIGN_OR_RETURN(
      data.names,
      PairSchema::Infer(data.persons, data.housing, "pid", "hid", "hid"));
  return data;
}

}  // namespace datagen
}  // namespace cextend
