#include "relational/dictionary.h"

#include "util/logging.h"

namespace cextend {

int64_t Dictionary::Intern(std::string_view s) {
  auto it = index_.find(s);
  if (it != index_.end()) return it->second;
  int64_t code = static_cast<int64_t>(strings_.size());
  strings_.emplace_back(s);
  index_.emplace(strings_.back(), code);
  return code;
}

std::optional<int64_t> Dictionary::Find(std::string_view s) const {
  auto it = index_.find(s);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

const std::string& Dictionary::Get(int64_t code) const {
  CEXTEND_CHECK(code >= 0 && code < size()) << "dictionary code " << code;
  return strings_[static_cast<size_t>(code)];
}

}  // namespace cextend
