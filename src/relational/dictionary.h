// String dictionary for dictionary-encoded columns.

#ifndef CEXTEND_RELATIONAL_DICTIONARY_H_
#define CEXTEND_RELATIONAL_DICTIONARY_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace cextend {

/// Bidirectional string <-> code mapping. Codes are dense, starting at 0.
/// Shared (via std::shared_ptr) between tables whose columns must agree on
/// codes, e.g. R2.Area and V_join.Area.
class Dictionary {
 public:
  Dictionary() = default;

  /// Returns the code for `s`, inserting it if absent.
  int64_t Intern(std::string_view s);

  /// Returns the code for `s` if present.
  std::optional<int64_t> Find(std::string_view s) const;

  /// Returns the string for `code`. Requires 0 <= code < size().
  const std::string& Get(int64_t code) const;

  int64_t size() const { return static_cast<int64_t>(strings_.size()); }

 private:
  /// Hashes a std::string and a std::string_view alike, so a lookup by view
  /// builds no std::string.
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::vector<std::string> strings_;
  std::unordered_map<std::string, int64_t, Hash, std::equal_to<>> index_;
};

}  // namespace cextend

#endif  // CEXTEND_RELATIONAL_DICTIONARY_H_
