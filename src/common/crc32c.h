#ifndef MICROSPEC_COMMON_CRC32C_H_
#define MICROSPEC_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace microspec {

/// CRC-32C (Castagnoli, the iSCSI/SSE4.2 polynomial) over a byte range.
/// Calls chain by passing the previous return value as `crc`, so
/// Crc32c(b, n, Crc32c(a, m)) equals the CRC of a followed by b. Used for
/// WAL record and heap-page checksums, where torn-write detection needs a
/// real CRC rather than a mixer hash; every page read, page write and log
/// record goes through this one routine.
///
/// The kernel is picked once per process: the SSE4.2 `crc32` instruction
/// when the CPU has it, else a portable slicing-by-8 table. Both compute
/// the same values, so checksums written on one host verify on any other.
uint32_t Crc32c(const void* data, size_t len, uint32_t crc = 0);

/// The two kernels behind Crc32c, exported so tests can check them against
/// each other. Crc32cHardware may only be called when
/// Crc32cHardwareSupported() is true.
uint32_t Crc32cPortable(const void* data, size_t len, uint32_t crc = 0);
uint32_t Crc32cHardware(const void* data, size_t len, uint32_t crc = 0);
bool Crc32cHardwareSupported();

}  // namespace microspec

#endif  // MICROSPEC_COMMON_CRC32C_H_
