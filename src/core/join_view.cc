#include "core/join_view.h"

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "util/logging.h"
#include "util/string_util.h"

namespace cextend {
namespace {

Status RequireIntColumn(const Table& t, const std::string& name,
                        const char* role) {
  auto idx = t.schema().IndexOf(name);
  if (!idx.has_value()) {
    return Status::InvalidArgument(StrFormat("%s column '%s' not found", role,
                                             name.c_str()));
  }
  if (t.schema().column(*idx).type != DataType::kInt64) {
    return Status::InvalidArgument(
        StrFormat("%s column '%s' must be INT64", role, name.c_str()));
  }
  return Status::Ok();
}

/// A key column must hold non-NULL, distinct keys: R̂1 keeps R1's key as its
/// primary key, and phase II hands each partition its own R2 keys. A first
/// pass finds NULLs and the key range; the second marks keys in a bitmap
/// over that range, or in a hash set when the range is over 64 keys wide per
/// row.
Status RequireDistinctKeys(const Table& t, const std::string& name,
                           const char* role) {
  const std::vector<int64_t>& keys =
      t.ColumnCodes(t.schema().IndexOrDie(name));
  if (keys.empty()) return Status::Ok();
  int64_t lo = std::numeric_limits<int64_t>::max();
  int64_t hi = std::numeric_limits<int64_t>::min();
  for (size_t r = 0; r < keys.size(); ++r) {
    if (keys[r] == kNullCode) {
      return Status::InvalidArgument(StrFormat(
          "%s column '%s' is NULL in row %zu", role, name.c_str(), r));
    }
    lo = std::min(lo, keys[r]);
    hi = std::max(hi, keys[r]);
  }
  auto duplicate = [&](size_t r) {
    return Status::InvalidArgument(
        StrFormat("%s column '%s' repeats key %lld in row %zu", role,
                  name.c_str(), static_cast<long long>(keys[r]), r));
  };
  const uint64_t span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
  if (span / 64 < keys.size()) {
    std::vector<uint64_t> seen(span / 64 + 1, 0);
    for (size_t r = 0; r < keys.size(); ++r) {
      const uint64_t offset =
          static_cast<uint64_t>(keys[r]) - static_cast<uint64_t>(lo);
      const uint64_t bit = uint64_t{1} << (offset & 63);
      if (seen[offset >> 6] & bit) return duplicate(r);
      seen[offset >> 6] |= bit;
    }
  } else {
    std::unordered_set<int64_t> seen;
    seen.reserve(keys.size());
    for (size_t r = 0; r < keys.size(); ++r) {
      if (!seen.insert(keys[r]).second) return duplicate(r);
    }
  }
  return Status::Ok();
}

}  // namespace

StatusOr<PairSchema> PairSchema::Infer(const Table& r1, const Table& r2,
                                       std::string key1, std::string fk,
                                       std::string key2) {
  PairSchema names;
  names.key1 = std::move(key1);
  names.fk = std::move(fk);
  names.key2 = std::move(key2);
  for (const ColumnSpec& c : r1.schema().columns()) {
    if (c.name != names.key1 && c.name != names.fk)
      names.r1_attrs.push_back(c.name);
  }
  for (const ColumnSpec& c : r2.schema().columns()) {
    if (c.name != names.key2) names.r2_attrs.push_back(c.name);
  }
  CEXTEND_RETURN_IF_ERROR(names.Validate(r1, r2));
  return names;
}

Status PairSchema::Validate(const Table& r1, const Table& r2) const {
  CEXTEND_RETURN_IF_ERROR(RequireIntColumn(r1, key1, "R1 key"));
  CEXTEND_RETURN_IF_ERROR(RequireIntColumn(r1, fk, "R1 foreign key"));
  CEXTEND_RETURN_IF_ERROR(RequireIntColumn(r2, key2, "R2 key"));
  for (const std::string& a : r1_attrs) {
    if (!r1.schema().Contains(a))
      return Status::InvalidArgument("R1 attribute not found: " + a);
    if (a == key1 || a == fk)
      return Status::InvalidArgument("R1 attribute overlaps key/FK: " + a);
  }
  for (const std::string& b : r2_attrs) {
    if (!r2.schema().Contains(b))
      return Status::InvalidArgument("R2 attribute not found: " + b);
    if (b == key2)
      return Status::InvalidArgument("R2 attribute overlaps key: " + b);
    if (r1.schema().Contains(b))
      return Status::InvalidArgument(
          "R1 and R2 column names must be disjoint; duplicate: " + b);
  }
  CEXTEND_RETURN_IF_ERROR(RequireDistinctKeys(r1, key1, "R1 key"));
  return RequireDistinctKeys(r2, key2, "R2 key");
}

StatusOr<Table> MakeJoinView(const Table& r1, const Table& r2,
                             const PairSchema& names) {
  CEXTEND_RETURN_IF_ERROR(names.Validate(r1, r2));
  // R1's key and attribute columns are copied whole; the B columns are NULL.
  std::vector<ColumnSpec> specs;
  std::vector<std::shared_ptr<Dictionary>> dicts;
  std::vector<std::vector<int64_t>> columns;
  auto add_r1_column = [&](const std::string& name) {
    const size_t c = r1.schema().IndexOrDie(name);
    specs.push_back(r1.schema().column(c));
    dicts.push_back(r1.dictionary(c));
    columns.push_back(r1.ColumnCodes(c));
  };
  add_r1_column(names.key1);
  for (const std::string& a : names.r1_attrs) add_r1_column(a);
  for (const std::string& b : names.r2_attrs) {
    const size_t c = r2.schema().IndexOrDie(b);
    specs.push_back(r2.schema().column(c));
    dicts.push_back(r2.dictionary(c));
    columns.emplace_back(r1.NumRows(), kNullCode);
  }
  return Table(Schema(specs), std::move(dicts), std::move(columns));
}

StatusOr<ComboIndex> ComboIndex::Build(const Table& r2,
                                       const PairSchema& names) {
  std::vector<const int64_t*> b_codes;
  for (const std::string& b : names.r2_attrs) {
    b_codes.push_back(r2.ColumnCodes(r2.schema().IndexOrDie(b)).data());
  }
  ComboIndex index;
  index.classes_ = InternRows(r2.NumRows(), b_codes);
  index.keys_.resize(index.classes_.size());
  const int64_t* key_codes =
      r2.ColumnCodes(r2.schema().IndexOrDie(names.key2)).data();
  for (size_t r = 0; r < r2.NumRows(); ++r) {
    index.keys_[index.classes_.of_row[r]].push_back(key_codes[r]);
  }
  for (auto& k : index.keys_) std::sort(k.begin(), k.end());
  return index;
}

std::optional<size_t> ComboIndex::Find(
    std::span<const int64_t> codes) const {
  if (codes.size() != classes_.keys.arity()) return std::nullopt;
  return classes_.keys.Find(codes.data());
}

std::vector<size_t> ComboIndex::ExpandByKeyCount(
    const std::vector<size_t>& combos, size_t cap) const {
  std::vector<size_t> out;
  // Interleave rounds so low-multiplicity combos are not starved: round r
  // emits every combo with at least r+1 keys.
  for (size_t round = 0; round < cap; ++round) {
    bool emitted = false;
    for (size_t combo : combos) {
      if (keys_[combo].size() > round) {
        out.push_back(combo);
        emitted = true;
      }
    }
    if (!emitted) break;
  }
  if (out.empty()) out = combos;  // all combos keyless: keep the originals
  return out;
}

}  // namespace cextend
