// Fixed-width little-endian integer encoding, byte-stable on every host.
// The CXPL plan, the CXMF manifest and serialized shard outputs use it.

#ifndef CEXTEND_UTIL_BYTES_H_
#define CEXTEND_UTIL_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace cextend {

inline void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

inline void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

inline void PutI64(std::string* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

/// Reads the value PutU32 wrote at `p` (4 bytes must be readable).
inline uint32_t GetU32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

/// Reads the value PutU64 wrote at `p` (8 bytes must be readable).
inline uint64_t GetU64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

inline int64_t GetI64(const char* p) { return static_cast<int64_t>(GetU64(p)); }

/// Bounds-checked sequential reads over a byte string: each read returns
/// false, consuming nothing, when too few bytes remain.
class ByteReader {
 public:
  explicit ByteReader(const std::string& bytes) : data_(bytes) {}

  bool U32(uint32_t* v) {
    if (Remaining() < 4) return false;
    *v = GetU32(data_.data() + pos_);
    pos_ += 4;
    return true;
  }

  bool U64(uint64_t* v) {
    if (Remaining() < 8) return false;
    *v = GetU64(data_.data() + pos_);
    pos_ += 8;
    return true;
  }

  bool I64(int64_t* v) {
    uint64_t u;
    if (!U64(&u)) return false;
    *v = static_cast<int64_t>(u);
    return true;
  }

  bool Bytes(size_t n, std::string* out) {
    if (Remaining() < n) return false;
    out->assign(data_, pos_, n);
    pos_ += n;
    return true;
  }

  bool AtEnd() const { return pos_ == data_.size(); }
  size_t Remaining() const { return data_.size() - pos_; }

 private:
  const std::string& data_;
  size_t pos_ = 0;
};

}  // namespace cextend

#endif  // CEXTEND_UTIL_BYTES_H_
