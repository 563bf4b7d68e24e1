#include "datagen/constraint_gen.h"

#include <algorithm>
#include <set>
#include <span>
#include <unordered_map>

#include "core/fill_state.h"
#include "util/code_interner.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace cextend {
namespace datagen {
namespace {

/// Adds the low/high pair of conjunctive DCs for a Table-4 range rule:
/// "no `member` can have age outside [A+lo_off, A+hi_off]" (A = owner age),
/// optionally conditioned on the owner's MultiLing value.
void AddAgeGapDc(std::vector<DenialConstraint>& out, const std::string& name,
                 const std::vector<Value>& member_rels, int64_t lo_off,
                 int64_t hi_off, int owner_multi /* -1 = any */) {
  for (int side = 0; side < 2; ++side) {
    DenialConstraint dc(2, name + (side == 0 ? ".low" : ".high"));
    dc.Unary(0, "Rel", CompareOp::kEq, Value(kOwner));
    if (owner_multi >= 0) {
      dc.Unary(0, "MultiLing", CompareOp::kEq, Value(int64_t{owner_multi}));
    }
    if (member_rels.size() == 1) {
      dc.Unary(1, "Rel", CompareOp::kEq, member_rels[0]);
    } else {
      dc.UnaryIn(1, "Rel", member_rels);
    }
    if (side == 0) {
      dc.Binary(1, "Age", CompareOp::kLt, 0, "Age", lo_off);
    } else {
      dc.Binary(1, "Age", CompareOp::kGt, 0, "Age", hi_off);
    }
    out.push_back(std::move(dc));
  }
}

/// R2-side conditions are drawn from this many Tenure-Area pairs and
/// Area-only values (paper Table 5), clamped to what the data provides.
constexpr size_t kTenureAreaPairs = 469;
constexpr size_t kAreaOnlyValues = 121;

/// One row of the Table-5 predicate pools.
struct PoolRow {
  int64_t age_lo;
  int64_t age_hi;
  const char* rel;
  int multi;  // -1 = unspecified
};

// The good family must contain *no* intersecting pair under the strict
// Definitions 4.2-4.4. Two CCs with different (non-identical) R2 conditions
// are only provably disjoint when their R1 conditions are disjoint or
// identical, so the family is built from
//   * "flat" representative rows — one per relationship, pairwise disjoint —
//     that may be attached to any R2 condition, and
//   * nested chains (parent ⊃ child rows, drawn from Table 5's nesting
//     structure) that are each attached to exactly ONE R2 condition; chain
//     rows are disjoint from every flat row and from every other chain.
const std::vector<PoolRow>& GoodFlatRows() {
  static const std::vector<PoolRow>* kRows = new std::vector<PoolRow>{
      {18, 114, kOwner, 0},     {18, 114, kSpouse, 1},
      {0, 10, kBioChild, -1},   {40, 85, kParent, 0},
      {15, 85, kHousemate, 0},  {18, 30, kGrandchild, 0},
      {18, 114, kPartner, 1},   {0, 20, kStepChild, -1},
  };
  return *kRows;
}

const std::vector<std::vector<PoolRow>>& GoodChains() {
  static const std::vector<std::vector<PoolRow>>* kChains =
      new std::vector<std::vector<PoolRow>>{
          {{11, 18, kBioChild, -1}, {11, 13, kBioChild, -1}},
          {{19, 30, kBioChild, -1}, {22, 30, kBioChild, -1}},
          {{21, 30, kStepChild, -1}, {21, 30, kStepChild, 1}},
          {{18, 39, kParent, -1}, {18, 39, kParent, 1}},
          {{15, 85, kHousemate, 1}, {15, 40, kHousemate, 1}},
          {{18, 30, kGrandchild, 1}, {22, 30, kGrandchild, 1}},
          {{19, 40, kAdoptedChild, -1},
           {25, 40, kAdoptedChild, 1},
           {31, 40, kAdoptedChild, 1}},
      };
  return *kChains;
}

const std::vector<PoolRow>& BadPool() {
  static const std::vector<PoolRow>* kPool = new std::vector<PoolRow>{
      {18, 114, kOwner, 0},        {18, 114, kSpouse, 1},
      {0, 10, kBioChild, -1},      {6, 10, kBioChild, -1},
      {2, 5, kBioChild, -1},       {3, 5, kBioChild, 0},
      {11, 18, kBioChild, -1},     {11, 13, kBioChild, -1},
      {14, 18, kBioChild, -1},     {19, 30, kBioChild, -1},
      {22, 30, kBioChild, -1},     {40, 85, kParent, 0},
      {40, 85, kParent, 1},        {15, 85, kHousemate, 0},
      {15, 85, kHousemate, 1},     {18, 30, kGrandchild, 0},
      {18, 30, kGrandchild, 1},    {18, 114, kPartner, 1},
      {0, 30, kStepChild, -1},     {21, 114, kSpouse, 1},
      {21, 64, kSpouse, 1},        {18, 39, kSpouse, 1},
      {18, 85, kSpouse, 1},        {40, 85, kSpouse, 1},
      {65, 114, kParent, 1},       {0, 39, kGrandchild, 1},
      {22, 39, kGrandchild, 1},    {0, 21, kStepChild, -1},
      {19, 39, kAdoptedChild, -1}, {25, 39, kAdoptedChild, 1},
      {31, 39, kAdoptedChild, 1},
  };
  return *kPool;
}

Predicate PoolPredicate(const PoolRow& row) {
  Predicate p;
  p.Between("Age", row.age_lo, row.age_hi);
  p.Eq("Rel", Value(row.rel));
  if (row.multi >= 0) p.Eq("MultiLing", Value(int64_t{row.multi}));
  return p;
}

/// Codes of the columns that `side` of the CCs reads, in column order. Each
/// must be one of `allowed`, the columns this side contributes to the join
/// view.
StatusOr<std::vector<const int64_t*>> ReadColumns(
    const Table& table, const std::vector<std::string>& allowed,
    const std::vector<CardinalityConstraint>& ccs,
    Predicate CardinalityConstraint::*side) {
  std::vector<size_t> cols;
  for (const CardinalityConstraint& cc : ccs) {
    for (const std::string& column : (cc.*side).Columns()) {
      if (std::find(allowed.begin(), allowed.end(), column) == allowed.end()) {
        return Status::InvalidArgument(StrFormat(
            "%s reads column '%s' outside its side of the join view",
            cc.name.c_str(), column.c_str()));
      }
      cols.push_back(table.schema().IndexOrDie(column));
    }
  }
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  std::vector<const int64_t*> codes;
  for (size_t col : cols) codes.push_back(table.ColumnCodes(col).data());
  return codes;
}

}  // namespace

std::vector<DenialConstraint> MakeCensusDcs(bool good_only) {
  std::vector<DenialConstraint> dcs;
  std::vector<Value> bio_adopt_step = {Value(kBioChild), Value(kAdoptedChild),
                                       Value(kStepChild)};
  // DC1/DC2: child age in [A-69, A-12] (owner not multi-lingual) or
  // [A-50, A-12] (multi-lingual).
  AddAgeGapDc(dcs, "DC1", bio_adopt_step, -69, -12, /*owner_multi=*/0);
  AddAgeGapDc(dcs, "DC2", bio_adopt_step, -50, -12, /*owner_multi=*/1);
  // DC3: spouse or unmarried partner within [A-50, A+50].
  AddAgeGapDc(dcs, "DC3", {Value(kSpouse), Value(kPartner)}, -50, 50, -1);
  // DC4: sibling within [A-35, A+35].
  AddAgeGapDc(dcs, "DC4", {Value(kSibling)}, -35, 35, -1);
  // DC5: parent / parent-in-law within [A+12, A+115].
  AddAgeGapDc(dcs, "DC5", {Value(kParent), Value(kParentInLaw)}, 12, 115, -1);
  // DC6: grandchild within [A-115, A-30].
  AddAgeGapDc(dcs, "DC6", {Value(kGrandchild)}, -115, -30, -1);
  // DC7: son/daughter in-law within [A-69, A-1].
  AddAgeGapDc(dcs, "DC7", {Value(kChildInLaw)}, -69, -1, -1);
  // DC8: foster child within [A-69, A-12].
  AddAgeGapDc(dcs, "DC8", {Value(kFosterChild)}, -69, -12, -1);
  if (good_only) return dcs;

  // DC9: no two householders share a house (a clique among owners).
  {
    DenialConstraint dc(2, "DC9");
    dc.Unary(0, "Rel", CompareOp::kEq, Value(kOwner));
    dc.Unary(1, "Rel", CompareOp::kEq, Value(kOwner));
    dcs.push_back(std::move(dc));
  }
  // DC10: owner younger than 30 => no grandchild or son/daughter in-law.
  {
    DenialConstraint dc(2, "DC10");
    dc.Unary(0, "Rel", CompareOp::kEq, Value(kOwner));
    dc.Unary(0, "Age", CompareOp::kLt, Value(int64_t{30}));
    dc.UnaryIn(1, "Rel", {Value(kGrandchild), Value(kChildInLaw)});
    dcs.push_back(std::move(dc));
  }
  // DC11: owner older than 94 => no parent / parent-in-law.
  {
    DenialConstraint dc(2, "DC11");
    dc.Unary(0, "Rel", CompareOp::kEq, Value(kOwner));
    dc.Unary(0, "Age", CompareOp::kGt, Value(int64_t{94}));
    dc.UnaryIn(1, "Rel", {Value(kParent), Value(kParentInLaw)});
    dcs.push_back(std::move(dc));
  }
  // DC12: no two spouses/unmarried partners share a house.
  {
    DenialConstraint dc(2, "DC12");
    dc.UnaryIn(0, "Rel", {Value(kSpouse), Value(kPartner)});
    dc.UnaryIn(1, "Rel", {Value(kSpouse), Value(kPartner)});
    dcs.push_back(std::move(dc));
  }
  return dcs;
}

StatusOr<std::vector<CardinalityConstraint>> GenerateCcs(
    const CensusData& data, const CcFamilyOptions& options) {
  const std::vector<PoolRow>& pool = BadPool();

  // R2-side condition pool. Area values below 121 are reserved for Area-only
  // CCs, the rest feed the Tenure-Area pairs; keeping the two sets disjoint
  // mirrors the paper's "469 Tenure-Area values and another 121 Area values".
  // Distinct (Tenure, Area) codes are collected first and decoded once each;
  // the sets order them by text.
  const Table& housing = data.housing;
  const size_t area_col = housing.schema().IndexOrDie("Area");
  const size_t tenure_col = housing.schema().IndexOrDie("Tenure");
  const int64_t* const codes[] = {housing.ColumnCodes(tenure_col).data(),
                                  housing.ColumnCodes(area_col).data()};
  const RowClasses distinct = InternRows(housing.NumRows(), codes);
  std::set<std::pair<std::string, std::string>> pairs_seen;
  std::set<std::string> areas_seen;
  for (uint32_t id = 0; id < distinct.size(); ++id) {
    std::span<const int64_t> pair = distinct.keys.tuple(id);
    std::string tenure = housing.DecodeCode(tenure_col, pair[0]).AsString();
    std::string area = housing.DecodeCode(area_col, pair[1]).AsString();
    // Area code "Axxx": xxx < 121 => Area-only pool.
    int64_t num = *ParseInt64(area.substr(1));
    if (num < 121) {
      areas_seen.insert(std::move(area));
    } else {
      pairs_seen.insert({std::move(tenure), std::move(area)});
    }
  }
  struct R2Cond {
    Predicate pred;
    std::string label;
  };
  std::vector<R2Cond> r2_conditions;
  for (const auto& [tenure, area] : pairs_seen) {
    if (r2_conditions.size() >= kTenureAreaPairs) break;
    Predicate p;
    p.Eq("Tenure", Value(tenure)).Eq("Area", Value(area));
    r2_conditions.push_back({std::move(p), tenure + "/" + area});
  }
  size_t area_only = 0;
  for (const std::string& area : areas_seen) {
    if (area_only >= kAreaOnlyValues) break;
    Predicate p;
    p.Eq("Area", Value(area));
    r2_conditions.push_back({std::move(p), area});
    ++area_only;
  }
  if (r2_conditions.empty()) {
    return Status::FailedPrecondition(
        "housing table too small to derive R2 conditions");
  }

  std::vector<CardinalityConstraint> ccs;
  ccs.reserve(options.num_ccs);
  auto emit = [&](const PoolRow& row, const Predicate& r2) {
    CardinalityConstraint cc;
    cc.name = StrFormat("CC%zu", ccs.size() + 1);
    cc.r1_condition = PoolPredicate(row);
    cc.r2_condition = r2;
    ccs.push_back(std::move(cc));
  };

  if (!options.intersecting) {
    // Good family. Chains first (each exclusive to one R2 condition), then
    // flat representatives cycled over all conditions; any two CCs end up
    // disjoint or contained, never intersecting.
    const auto& chains = GoodChains();
    size_t chain_cond = 0;
    for (const auto& chain : chains) {
      if (chain_cond >= r2_conditions.size()) break;
      if (ccs.size() + chain.size() > options.num_ccs) break;
      for (const PoolRow& row : chain) {
        emit(row, r2_conditions[chain_cond].pred);
      }
      ++chain_cond;
    }
    const auto& flat = GoodFlatRows();
    for (size_t cycle = 0; ccs.size() < options.num_ccs; ++cycle) {
      if (cycle >= flat.size()) {
        return Status::InvalidArgument(StrFormat(
            "cannot derive %zu intersection-free CCs from %zu R2 conditions "
            "x %zu flat rows", options.num_ccs, r2_conditions.size(),
            flat.size()));
      }
      // Conditions consumed by chains only host flat rows in later cycles to
      // keep chain rows unique to their condition... flat rows are disjoint
      // from all chain rows, so they can share the condition safely.
      for (size_t i = 0; i < r2_conditions.size() && ccs.size() < options.num_ccs;
           ++i) {
        emit(flat[(i + cycle) % flat.size()], r2_conditions[i].pred);
      }
    }
  } else {
    // Bad family: cycle the Table-5 bad pool (overlapping Age intervals)
    // over the R2 conditions; intersections arise by construction.
    size_t pool_offset = 0;
    for (size_t i = 0; ccs.size() < options.num_ccs; ++i) {
      const R2Cond& cond = r2_conditions[i % r2_conditions.size()];
      if (i > 0 && i % r2_conditions.size() == 0) ++pool_offset;
      if (pool_offset >= pool.size()) {
        return Status::InvalidArgument(StrFormat(
            "cannot derive %zu distinct CCs from %zu R2 conditions x %zu "
            "pool rows", options.num_ccs, r2_conditions.size(), pool.size()));
      }
      const PoolRow& row =
          pool[(i + pool_offset * 7919) % pool.size()];  // spread pool usage
      emit(row, cond.pred);
    }
  }

  // Deduplicate identical (r1, r2) combinations that the cycling may create.
  {
    std::set<std::string> seen;
    std::vector<CardinalityConstraint> unique;
    for (CardinalityConstraint& cc : ccs) {
      std::string sig =
          cc.r1_condition.ToString() + "|" + cc.r2_condition.ToString();
      if (seen.insert(sig).second) unique.push_back(std::move(cc));
    }
    ccs = std::move(unique);
  }

  CEXTEND_RETURN_IF_ERROR(
      CountCcTargets(data.persons_truth, data.housing, data.names, &ccs));
  return ccs;
}

Status CountCcTargets(const Table& r1, const Table& r2, const PairSchema& names,
                      std::vector<CardinalityConstraint>* ccs) {
  CEXTEND_RETURN_IF_ERROR(names.Validate(r1, r2));
  CEXTEND_CHECK(r1.NumRows() <= UINT32_MAX);
  std::vector<std::string> r1_side = names.r1_attrs;
  r1_side.push_back(names.key1);
  CEXTEND_ASSIGN_OR_RETURN(
      std::vector<const int64_t*> r1_cols,
      ReadColumns(r1, r1_side, *ccs, &CardinalityConstraint::r1_condition));
  CEXTEND_ASSIGN_OR_RETURN(
      std::vector<const int64_t*> r2_cols,
      ReadColumns(r2, names.r2_attrs, *ccs,
                  &CardinalityConstraint::r2_condition));

  const RowClasses r2_classes = InternRows(r2.NumRows(), r2_cols);
  const int64_t* keys = r2.ColumnCodes(r2.schema().IndexOrDie(names.key2)).data();
  std::unordered_map<int64_t, uint32_t> class_of_key;
  class_of_key.reserve(r2.NumRows() * 2);
  for (size_t r = 0; r < r2.NumRows(); ++r) {
    class_of_key.emplace(keys[r], r2_classes.of_row[r]);
  }

  // Each R1 row's R2 class, joined through the FK, and the rows per class.
  const RowClasses r1_classes = InternRows(r1.NumRows(), r1_cols);
  const int64_t* fks = r1.ColumnCodes(r1.schema().IndexOrDie(names.fk)).data();
  std::vector<uint32_t> r2_class_of(r1.NumRows());
  std::vector<size_t> bucket_start(r2_classes.size() + 1, 0);
  for (size_t r = 0; r < r1.NumRows(); ++r) {
    if (fks[r] == kNullCode) {
      return Status::FailedPrecondition(
          StrFormat("R1 row %zu has NULL foreign key", r));
    }
    auto it = class_of_key.find(fks[r]);
    if (it == class_of_key.end()) {
      return Status::FailedPrecondition(
          StrFormat("R1 row %zu has dangling foreign key", r));
    }
    r2_class_of[r] = it->second;
    ++bucket_start[it->second + 1];
  }
  for (size_t j = 1; j < bucket_start.size(); ++j) {
    bucket_start[j] += bucket_start[j - 1];
  }
  // Counting sort: the R1 classes of the rows joined to R2 class j fill
  // bucket[bucket_start[j]..bucket_start[j + 1]).
  std::vector<uint32_t> bucket(r1.NumRows());
  {
    std::vector<size_t> next(bucket_start.begin(), bucket_start.end() - 1);
    for (size_t r = 0; r < r1.NumRows(); ++r) {
      bucket[next[r2_class_of[r]]++] = r1_classes.of_row[r];
    }
  }

  // Each bucket's R1 classes with their row counts: R2 class j joins the R1
  // classes runs[start[j]..start[j + 1]). run_of holds each R1 class's run
  // (+1) in the current bucket; the bucket's runs list the entries to reset.
  struct Run {
    uint32_t r1_class;
    uint32_t rows;
  };
  std::vector<Run> runs;
  std::vector<size_t> start(r2_classes.size() + 1, 0);
  std::vector<size_t> run_of(r1_classes.size(), 0);
  for (size_t j = 0; j < r2_classes.size(); ++j) {
    for (size_t k = bucket_start[j]; k < bucket_start[j + 1]; ++k) {
      size_t& run = run_of[bucket[k]];
      if (run == 0) {
        runs.push_back({bucket[k], 0});
        run = runs.size();
      }
      ++runs[run - 1].rows;
    }
    start[j + 1] = runs.size();
    for (size_t i = start[j]; i < start[j + 1]; ++i) {
      run_of[runs[i].r1_class] = 0;
    }
  }

  FootprintMatcher r1_matcher(r1, r1_classes.representatives);
  FootprintMatcher r2_matcher(r2, r2_classes.representatives);
  std::vector<uint8_t> r1_match(r1_classes.size(), 0);
  for (CardinalityConstraint& cc : *ccs) {
    CEXTEND_ASSIGN_OR_RETURN(std::vector<size_t> r1_ids,
                             r1_matcher.Match(cc.r1_condition));
    CEXTEND_ASSIGN_OR_RETURN(std::vector<size_t> r2_ids,
                             r2_matcher.Match(cc.r2_condition));
    for (size_t id : r1_ids) r1_match[id] = 1;
    int64_t target = 0;
    for (size_t j : r2_ids) {
      for (size_t k = start[j]; k < start[j + 1]; ++k) {
        if (r1_match[runs[k].r1_class]) target += runs[k].rows;
      }
    }
    for (size_t id : r1_ids) r1_match[id] = 0;
    cc.target = target;
  }
  return Status::Ok();
}

}  // namespace datagen
}  // namespace cextend
