#ifndef MICROSPEC_COMMON_HASH_H_
#define MICROSPEC_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace microspec {

/// 64-bit MurmurHash2-style hash over a byte range. Used by the hash join
/// and hash aggregation operators and by the bee cache's content keys.
inline uint64_t Hash64(const void* data, size_t len,
                       uint64_t seed = 0x9E3779B97F4A7C15ULL) {
  const uint64_t m = 0xC6A4A7935BD1E995ULL;
  const int r = 47;
  uint64_t h = seed ^ (len * m);

  const unsigned char* p = static_cast<const unsigned char*>(data);
  const unsigned char* end = p + (len & ~size_t{7});
  while (p != end) {
    uint64_t k;
    std::memcpy(&k, p, sizeof(k));
    p += 8;
    k *= m;
    k ^= k >> r;
    k *= m;
    h ^= k;
    h *= m;
  }

  size_t tail = len & 7;
  if (tail != 0) {
    uint64_t k = 0;
    std::memcpy(&k, p, tail);
    h ^= k;
    h *= m;
  }

  h ^= h >> r;
  h *= m;
  h ^= h >> r;
  return h;
}

inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return a ^ (b + 0x9E3779B97F4A7C15ULL + (a << 6) + (a >> 2));
}

inline uint64_t HashInt64(int64_t v, uint64_t seed = 0) {
  uint64_t x = static_cast<uint64_t>(v) + seed + 0x9E3779B97F4A7C15ULL;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

}  // namespace microspec

#endif  // MICROSPEC_COMMON_HASH_H_
