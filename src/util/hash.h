// Shared non-cryptographic hashing helpers.

#ifndef CEXTEND_UTIL_HASH_H_
#define CEXTEND_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>

#include "util/sanitize.h"

namespace cextend {

/// Folds `x` into the running hash `h` with the splitmix64 finalizer. Used
/// for composite keys (cross-atom equality keys); MixHash64(0, x) is the
/// plain finalizer of `x`.
/// Wraparound is the point of the mixer, hence the sanitizer suppression.
CEXTEND_NO_SANITIZE_INTEGER
inline uint64_t MixHash64(uint64_t h, uint64_t x) {
  uint64_t z = h ^ (x + 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

inline constexpr uint64_t kFnv1aBasis = 0xcbf29ce484222325ULL;

/// Folds `n` bytes into the running FNV-1a hash `h` (start at kFnv1aBasis).
CEXTEND_NO_SANITIZE_INTEGER
inline uint64_t Fnv1a(uint64_t h, const char* data, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace cextend

#endif  // CEXTEND_UTIL_HASH_H_
