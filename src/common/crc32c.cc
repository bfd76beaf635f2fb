#include "common/crc32c.h"

#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace microspec {

namespace {

/// Slicing-by-8 tables for the reflected Castagnoli polynomial, built at
/// compile time. t[0] is the classic byte-at-a-time table; t[k][b] is the
/// CRC of byte b followed by k zero bytes, so eight bytes fold per step.
struct Crc32Table {
  uint32_t t[8][256];
  constexpr Crc32Table() : t() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) != 0 ? 0x82F63B78u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
      }
    }
  }
};

constexpr Crc32Table kTable{};

/// Little-endian 32-bit load, independent of host byte order.
inline uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

using Crc32cFn = uint32_t (*)(const void*, size_t, uint32_t);

Crc32cFn SelectKernel() {
  return Crc32cHardwareSupported() ? Crc32cHardware : Crc32cPortable;
}

}  // namespace

uint32_t Crc32cPortable(const void* data, size_t len, uint32_t crc) {
  const auto& t = kTable.t;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint32_t c = ~crc;
  for (; len >= 8; p += 8, len -= 8) {
    uint32_t lo = LoadLe32(p) ^ c;
    uint32_t hi = LoadLe32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return ~c;
}

#if defined(__x86_64__)

__attribute__((target("sse4.2"))) uint32_t Crc32cHardware(const void* data,
                                                          size_t len,
                                                          uint32_t crc) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t c = ~crc;
  for (; len >= 8; p += 8, len -= 8) {
    uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    c = _mm_crc32_u64(c, v);
  }
  uint32_t c32 = static_cast<uint32_t>(c);
  for (; len > 0; ++p, --len) c32 = _mm_crc32_u8(c32, *p);
  return ~c32;
}

bool Crc32cHardwareSupported() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}

#else

uint32_t Crc32cHardware(const void* data, size_t len, uint32_t crc) {
  return Crc32cPortable(data, len, crc);
}

bool Crc32cHardwareSupported() { return false; }

#endif

uint32_t Crc32c(const void* data, size_t len, uint32_t crc) {
  static const Crc32cFn kKernel = SelectKernel();
  return kKernel(data, len, crc);
}

}  // namespace microspec
