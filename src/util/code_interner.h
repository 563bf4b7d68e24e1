// Dense ids for fixed-arity code tuples, and rows grouped by them.
//
// CodeInterner gives each distinct tuple of `arity` int64 codes a uint32 id,
// numbered 0, 1, 2, ... in first-insertion order. InternRows runs it over a
// table's rows and returns RowClasses: a class id per row, the first row of
// each class and the class key tuples. Every row grouping of the library goes
// through InternRows: Binning (one class per bin key), ComboIndex (one per
// R2 B-combo), the synthesis plan (one per join-view B-combo), DcRowClasses
// (keys, buckets and groups) and the CC-target count (R1 and R2 classes over
// the columns the CCs read). Their ids — and every output ordered by them —
// follow row order alone.
//
// Layout: the tuples live back to back in one vector, indexed by id; the
// hash table is a power-of-two array of id+1 slots (0 = empty) probed
// linearly and kept at most half full. There is no slot iteration: callers
// see ids and tuples only, so nothing they produce can depend on hash order.

#ifndef CEXTEND_UTIL_CODE_INTERNER_H_
#define CEXTEND_UTIL_CODE_INTERNER_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "util/logging.h"
#include "util/sanitize.h"

namespace cextend {

class CodeInterner {
 public:
  struct Interned {
    uint32_t id;
    bool inserted;  ///< true iff this call assigned the id
  };

  explicit CodeInterner(size_t arity = 0) : arity_(arity) {}

  size_t arity() const { return arity_; }
  /// Number of distinct tuples; ids are [0, size()).
  size_t size() const { return size_; }

  /// The tuple with id `id`, `arity()` codes.
  std::span<const int64_t> tuple(uint32_t id) const {
    return {keys_.data() + static_cast<size_t>(id) * arity_, arity_};
  }

  /// Id of the `arity()` codes at `key`, assigning the next id if new.
  Interned Intern(const int64_t* key) {
    if (2 * (size_ + 1) > slots_.size()) Grow();
    const size_t mask = slots_.size() - 1;
    for (size_t s = Hash(key) & mask;; s = (s + 1) & mask) {
      const uint32_t slot = slots_[s];
      if (slot == 0) {
        CEXTEND_CHECK(size_ < UINT32_MAX - 1) << "CodeInterner id overflow";
        const uint32_t id = static_cast<uint32_t>(size_++);
        keys_.insert(keys_.end(), key, key + arity_);
        slots_[s] = id + 1;
        return {id, true};
      }
      if (Equal(slot - 1, key)) return {slot - 1, false};
    }
  }

  /// Id of the `arity()` codes at `key`, if interned.
  std::optional<uint32_t> Find(const int64_t* key) const {
    if (size_ == 0) return std::nullopt;
    const size_t mask = slots_.size() - 1;
    for (size_t s = Hash(key) & mask;; s = (s + 1) & mask) {
      const uint32_t slot = slots_[s];
      if (slot == 0) return std::nullopt;
      if (Equal(slot - 1, key)) return slot - 1;
    }
  }

 private:
  // One 64x64->128 multiply per code, folded high into low (the wyhash
  // "mum" step): every input bit reaches every output bit, so tuples that
  // differ only in a high bit (kNullCode vs 0) or only in their last code
  // still land in different slots.
  CEXTEND_NO_SANITIZE_INTEGER
  uint64_t Hash(const int64_t* key) const {
    uint64_t h = 0x9E3779B97F4A7C15ULL;
    for (size_t i = 0; i < arity_; ++i) {
      const unsigned __int128 m =
          static_cast<unsigned __int128>(h ^ static_cast<uint64_t>(key[i])) *
          0xBF58476D1CE4E5B9ULL;
      h = static_cast<uint64_t>(m) ^ static_cast<uint64_t>(m >> 64);
    }
    return h;
  }

  bool Equal(uint32_t id, const int64_t* key) const {
    const int64_t* stored = keys_.data() + static_cast<size_t>(id) * arity_;
    for (size_t i = 0; i < arity_; ++i) {
      if (stored[i] != key[i]) return false;
    }
    return true;
  }

  void Grow() {
    std::vector<uint32_t> slots(slots_.empty() ? 16 : 2 * slots_.size(), 0);
    const size_t mask = slots.size() - 1;
    for (size_t id = 0; id < size_; ++id) {
      size_t s = Hash(keys_.data() + id * arity_) & mask;
      while (slots[s] != 0) s = (s + 1) & mask;
      slots[s] = static_cast<uint32_t>(id + 1);
    }
    slots_ = std::move(slots);
  }

  size_t arity_;
  size_t size_ = 0;
  std::vector<int64_t> keys_;    // size_ * arity_ codes, in id order
  std::vector<uint32_t> slots_;  // id + 1, or 0 when empty
};

/// Rows [0, n) grouped into classes of equal key tuples. Class ids follow
/// first-row order; a class's representative is its first row.
struct RowClasses {
  std::vector<uint32_t> of_row;           ///< class id per row
  std::vector<uint32_t> representatives;  ///< first row per class
  CodeInterner keys;                      ///< key tuple per class id

  size_t size() const { return representatives.size(); }
};

/// Groups rows [0, num_rows) by the `arity` codes that
/// `fill_key(row, key)` writes to `key`.
template <typename FillKey>
RowClasses InternRows(size_t num_rows, size_t arity, FillKey&& fill_key) {
  RowClasses classes{{}, {}, CodeInterner(arity)};
  classes.of_row.resize(num_rows);
  std::vector<int64_t> key(arity);
  for (size_t r = 0; r < num_rows; ++r) {
    fill_key(r, key.data());
    const auto [id, inserted] = classes.keys.Intern(key.data());
    if (inserted) classes.representatives.push_back(static_cast<uint32_t>(r));
    classes.of_row[r] = id;
  }
  return classes;
}

/// Groups rows [0, num_rows) by their codes in `columns`, each of which
/// holds `num_rows` codes.
inline RowClasses InternRows(size_t num_rows,
                             std::span<const int64_t* const> columns) {
  return InternRows(num_rows, columns.size(), [&](size_t r, int64_t* key) {
    for (size_t i = 0; i < columns.size(); ++i) key[i] = columns[i][r];
  });
}

}  // namespace cextend

#endif  // CEXTEND_UTIL_CODE_INTERNER_H_
