#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/align.h"
#include "common/arena.h"
#include "common/counters.h"
#include "common/crc32c.h"
#include "common/datum.h"
#include "common/hash.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/page.h"

namespace microspec {
namespace {

TEST(Status, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status st = Status::NotFound("table foo");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(st.ToString(), "NotFound: table foo");
}

TEST(Status, EveryCodeHasAName) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(Result, HoldsError) {
  Result<int> r(Status::IoError("disk gone"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(Result, MoveValueTransfersOwnership) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  std::unique_ptr<int> v = r.MoveValue();
  EXPECT_EQ(*v, 7);
}

TEST(Types, PhysicalPropertiesMatchPostgresConventions) {
  EXPECT_EQ(TypeFixedLength(TypeId::kInt32), 4);
  EXPECT_EQ(TypeFixedLength(TypeId::kInt64), 8);
  EXPECT_EQ(TypeFixedLength(TypeId::kBool), 1);
  EXPECT_EQ(TypeFixedLength(TypeId::kVarchar), kVariableLength);
  EXPECT_EQ(TypeAlign(TypeId::kFloat64), 8);
  EXPECT_EQ(TypeAlign(TypeId::kVarchar), 4);
  EXPECT_EQ(TypeAlign(TypeId::kChar), 1);
  EXPECT_TRUE(TypeByVal(TypeId::kDate));
  EXPECT_FALSE(TypeByVal(TypeId::kChar));
  EXPECT_FALSE(TypeByVal(TypeId::kVarchar));
}

TEST(Datum, Int32RoundTripsWithSignExtension) {
  EXPECT_EQ(DatumToInt32(DatumFromInt32(-123456)), -123456);
  EXPECT_EQ(DatumToInt64(DatumFromInt32(-1)), -1);
}

TEST(Datum, Float64RoundTrips) {
  EXPECT_DOUBLE_EQ(DatumToFloat64(DatumFromFloat64(3.14159)), 3.14159);
  EXPECT_DOUBLE_EQ(DatumToFloat64(DatumFromFloat64(-0.0)), -0.0);
}

TEST(Datum, VarlenaLayout) {
  char buf[16];
  VarlenaWriteHeader(buf, 9);  // 4-byte header + 5 payload bytes
  std::memcpy(buf + 4, "hello", 5);
  EXPECT_EQ(VarlenaSize(buf), 9u);
  EXPECT_EQ(VarlenaPayloadSize(buf), 5u);
  EXPECT_EQ(VarlenaView(DatumFromPointer(buf)), "hello");
}

TEST(Align, AlignUpIsIdempotentAndMonotone) {
  EXPECT_EQ(AlignUp(0, 8), 0u);
  EXPECT_EQ(AlignUp(1, 8), 8u);
  EXPECT_EQ(AlignUp(8, 8), 8u);
  EXPECT_EQ(AlignUp(9, 4), 12u);
  for (uint32_t v = 0; v < 64; ++v) {
    for (uint32_t a : {1u, 2u, 4u, 8u}) {
      uint32_t up = AlignUp32(v, a);
      EXPECT_GE(up, v);
      EXPECT_EQ(up % a, 0u);
      EXPECT_EQ(AlignUp32(up, a), up);
    }
  }
}

TEST(Hash, EqualInputsHashEqual) {
  std::string a = "some join key payload";
  EXPECT_EQ(Hash64(a.data(), a.size()), Hash64(a.data(), a.size()));
}

TEST(Hash, DifferentInputsUsuallyDiffer) {
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    std::string s = "key" + std::to_string(i);
    seen.insert(Hash64(s.data(), s.size()));
  }
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(Hash, HashInt64AvoidsTrivialCollisions) {
  std::set<uint64_t> seen;
  for (int64_t i = 0; i < 1000; ++i) seen.insert(HashInt64(i));
  EXPECT_EQ(seen.size(), 1000u);
}

using Crc32cKernel = uint32_t (*)(const void*, size_t, uint32_t);

/// The dispatched entry point plus whichever kernels this CPU can run.
std::vector<Crc32cKernel> Crc32cKernels() {
  std::vector<Crc32cKernel> kernels = {&Crc32c, &Crc32cPortable};
  if (Crc32cHardwareSupported()) kernels.push_back(&Crc32cHardware);
  return kernels;
}

TEST(Crc32c, Rfc3720Vectors) {
  // RFC 3720 (iSCSI) appendix B.4 test vectors.
  unsigned char zeros[32] = {};
  unsigned char ones[32];
  unsigned char ascending[32];
  for (int i = 0; i < 32; ++i) {
    ones[i] = 0xFF;
    ascending[i] = static_cast<unsigned char>(i);
  }
  for (Crc32cKernel crc : Crc32cKernels()) {
    EXPECT_EQ(crc(zeros, sizeof(zeros), 0), 0x8A9136AAu);
    EXPECT_EQ(crc(ones, sizeof(ones), 0), 0x62A8AB43u);
    EXPECT_EQ(crc(ascending, sizeof(ascending), 0), 0x46DD794Eu);
  }
}

TEST(Crc32c, CheckValue) {
  const std::string s = "123456789";
  for (Crc32cKernel crc : Crc32cKernels()) {
    EXPECT_EQ(crc(s.data(), s.size(), 0), 0xE3069283u);
  }
}

TEST(Crc32c, ChainingEqualsConcatenation) {
  Rng rng(3720);
  std::string ab(1000, '\0');
  for (char& c : ab) c = static_cast<char>(rng.NextU64());
  for (Crc32cKernel crc : Crc32cKernels()) {
    for (size_t split : {size_t{0}, size_t{1}, size_t{7}, size_t{8},
                         size_t{333}, ab.size()}) {
      uint32_t chained =
          crc(ab.data() + split, ab.size() - split, crc(ab.data(), split, 0));
      EXPECT_EQ(chained, crc(ab.data(), ab.size(), 0)) << "split " << split;
    }
  }
}

TEST(Crc32c, HardwareMatchesPortable) {
  if (!Crc32cHardwareSupported()) GTEST_SKIP() << "CPU lacks SSE4.2";
  Rng rng(0xC5C);
  // Room for the longest case at the largest misalignment.
  std::vector<unsigned char> buf(4 * kPageSize + 8);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng.NextU64());
  for (size_t len = 0; len <= 64; ++len) {
    for (uint32_t seed : {0u, 0xFFFFFFFFu, 0x12345678u}) {
      EXPECT_EQ(Crc32cHardware(buf.data(), len, seed),
                Crc32cPortable(buf.data(), len, seed))
          << "len " << len << " seed " << seed;
    }
  }
  for (int i = 0; i < 200; ++i) {
    size_t misalign = static_cast<size_t>(i % 8);
    size_t len = static_cast<size_t>(rng.Uniform(4 * kPageSize + 1));
    uint32_t seed = static_cast<uint32_t>(rng.NextU64());
    EXPECT_EQ(Crc32cHardware(buf.data() + misalign, len, seed),
              Crc32cPortable(buf.data() + misalign, len, seed))
        << "len " << len << " misalign " << misalign;
  }
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(7);
  Rng b(8);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.NextU64() == b.NextU64();
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformRangeIsInclusive) {
  Rng rng(3);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformRange(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    saw_lo |= v == 2;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NonUniformStaysInRange) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.NonUniform(1023, 1, 3000);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 3000);
  }
}

TEST(Arena, AllocationsAreAligned) {
  Arena arena(128);
  for (size_t align : {1u, 4u, 8u, 64u}) {
    void* p = arena.Allocate(10, align);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % align, 0u);
  }
}

TEST(Arena, GrowsBeyondChunkSize) {
  Arena arena(64);
  char* big = static_cast<char*>(arena.Allocate(10000));
  std::memset(big, 0xAB, 10000);  // ASAN would flag an undersized block
  EXPECT_EQ(static_cast<unsigned char>(big[9999]), 0xABu);
}

TEST(Arena, CopyBytesCopies) {
  Arena arena;
  const char src[] = "payload";
  char* dst = arena.CopyBytes(src, sizeof(src));
  EXPECT_NE(dst, src);
  EXPECT_STREQ(dst, "payload");
}

TEST(Arena, ResetReclaimsWithoutInvalidatingFirstChunk) {
  Arena arena(1024);
  void* first = arena.Allocate(16);
  arena.Reset();
  void* again = arena.Allocate(16);
  EXPECT_EQ(first, again);  // bump pointer rewound to the first chunk
}

TEST(WorkOps, BumpAccumulatesAndResets) {
  workops::Reset();
  workops::Bump(5);
  workops::Bump(7);
  EXPECT_EQ(workops::Read(), 12u);
  workops::Reset();
  EXPECT_EQ(workops::Read(), 0u);
}

TEST(InstructionCounter, StartStopMonotone) {
  InstructionCounter c;
  c.Start();
  workops::Bump(100);  // ensures the soft fallback counts something
  volatile int sink = 0;
  for (int i = 0; i < 1000; ++i) sink = sink + i;
  uint64_t n = c.Stop();
  EXPECT_GT(n, 0u);
}

}  // namespace
}  // namespace microspec
