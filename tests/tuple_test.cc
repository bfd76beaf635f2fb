#include <gtest/gtest.h>

#include <barrier>
#include <thread>
#include <vector>

#include "storage/tuple.h"
#include "test_util.h"

namespace microspec {
namespace {

using testing::RandomRow;
using testing::RandomSchema;
using testing::RowToString;

TEST(TupleHeaderLayout, SizesAreMaxAligned) {
  EXPECT_EQ(TupleHeaderSize(1, false), 8u);
  EXPECT_EQ(TupleHeaderSize(16, false), 8u);
  EXPECT_EQ(TupleHeaderSize(16, true), 8u);   // 6 + 2 bitmap bytes
  EXPECT_EQ(TupleHeaderSize(17, true), 16u);  // 6 + 3 bitmap bytes -> 16
}

TEST(TupleFormDeform, FixedOnlySchemaRoundTrips) {
  Schema s({Column("a", TypeId::kInt32, true),
            Column("b", TypeId::kInt64, true),
            Column("c", TypeId::kBool, true),
            Column("d", TypeId::kFloat64, true)});
  Datum in[4] = {DatumFromInt32(-5), DatumFromInt64(1LL << 40),
                 DatumFromBool(true), DatumFromFloat64(2.5)};
  uint32_t size = tupleops::ComputeTupleSize(s, in, nullptr);
  std::string buf(size, '\0');
  tupleops::FormTuple(s, in, nullptr, buf.data());

  Datum out[4];
  bool isnull[4];
  tupleops::DeformTuple(s, buf.data(), 4, out, isnull);
  EXPECT_EQ(DatumToInt32(out[0]), -5);
  EXPECT_EQ(DatumToInt64(out[1]), 1LL << 40);
  EXPECT_TRUE(DatumToBool(out[2]));
  EXPECT_DOUBLE_EQ(DatumToFloat64(out[3]), 2.5);
  for (bool n : isnull) EXPECT_FALSE(n);
}

TEST(TupleFormDeform, AlignmentPaddingAfterVarlena) {
  // varchar followed by int64: the int must land on an 8-byte boundary.
  Schema s({Column("v", TypeId::kVarchar, true),
            Column("i", TypeId::kInt64, true)});
  Arena arena;
  Datum in[2] = {tupleops::MakeVarlena(&arena, "xyz"),  // 7 bytes stored
                 DatumFromInt64(-99)};
  uint32_t size = tupleops::ComputeTupleSize(s, in, nullptr);
  std::string buf(size, '\0');
  tupleops::FormTuple(s, in, nullptr, buf.data());
  Datum out[2];
  bool isnull[2];
  tupleops::DeformTuple(s, buf.data(), 2, out, isnull);
  EXPECT_EQ(VarlenaView(out[0]), "xyz");
  EXPECT_EQ(DatumToInt64(out[1]), -99);
}

TEST(TupleFormDeform, NullBitmapRoundTrips) {
  Schema s({Column("a", TypeId::kInt32, false),
            Column("b", TypeId::kVarchar, false),
            Column("c", TypeId::kInt32, false)});
  Arena arena;
  Datum in[3] = {0, 0, DatumFromInt32(77)};
  bool nulls[3] = {true, true, false};
  uint32_t size = tupleops::ComputeTupleSize(s, in, nulls);
  std::string buf(size, '\0');
  tupleops::FormTuple(s, in, nulls, buf.data());

  TupleHeader h;
  std::memcpy(&h, buf.data(), sizeof(h));
  EXPECT_TRUE(h.flags & kTupleHasNulls);
  EXPECT_TRUE(TupleAttIsNull(buf.data(), 0));
  EXPECT_TRUE(TupleAttIsNull(buf.data(), 1));
  EXPECT_FALSE(TupleAttIsNull(buf.data(), 2));

  Datum out[3];
  bool isnull[3];
  tupleops::DeformTuple(s, buf.data(), 3, out, isnull);
  EXPECT_TRUE(isnull[0]);
  EXPECT_TRUE(isnull[1]);
  ASSERT_FALSE(isnull[2]);
  EXPECT_EQ(DatumToInt32(out[2]), 77);
}

TEST(TupleFormDeform, NullsConsumeNoStorage) {
  Schema s({Column("a", TypeId::kInt64, false)});
  Datum in[1] = {0};
  bool nulls[1] = {true};
  EXPECT_EQ(tupleops::ComputeTupleSize(s, in, nulls),
            TupleHeaderSize(1, true));
}

TEST(TupleFormDeform, PartialDeformStopsEarly) {
  Schema s({Column("a", TypeId::kInt32, true),
            Column("b", TypeId::kInt32, true),
            Column("c", TypeId::kInt32, true)});
  Datum in[3] = {DatumFromInt32(1), DatumFromInt32(2), DatumFromInt32(3)};
  uint32_t size = tupleops::ComputeTupleSize(s, in, nullptr);
  std::string buf(size, '\0');
  tupleops::FormTuple(s, in, nullptr, buf.data());
  Datum out[3] = {0, 0, DatumFromInt64(-1)};
  bool isnull[3];
  tupleops::DeformTuple(s, buf.data(), 2, out, isnull);
  EXPECT_EQ(DatumToInt32(out[0]), 1);
  EXPECT_EQ(DatumToInt32(out[1]), 2);
  EXPECT_EQ(DatumToInt64(out[2]), -1);  // untouched
}

TEST(TupleFormDeform, AttCacheOffPopulatedForFixedPrefix) {
  Schema s({Column("a", TypeId::kInt32, true),
            Column("b", TypeId::kInt64, true),
            Column("v", TypeId::kVarchar, true),
            Column("z", TypeId::kInt32, true)});
  Arena arena;
  Datum in[4] = {DatumFromInt32(1), DatumFromInt64(2),
                 tupleops::MakeVarlena(&arena, "abc"), DatumFromInt32(3)};
  uint32_t size = tupleops::ComputeTupleSize(s, in, nullptr);
  std::string buf(size, '\0');
  tupleops::FormTuple(s, in, nullptr, buf.data());
  Datum out[4];
  bool isnull[4];
  tupleops::DeformTuple(s, buf.data(), 4, out, isnull);
  EXPECT_EQ(s.column(0).attcacheoff(), 0);
  EXPECT_EQ(s.column(1).attcacheoff(), 8);
  EXPECT_EQ(s.column(2).attcacheoff(), 16);  // aligned right after b
  // The attribute after the varlena cannot have a constant offset.
  EXPECT_EQ(s.column(3).attcacheoff(), -1);
}

/// Concurrent scans of one relation race to fill the per-column attcacheoff
/// caches on their first deform. The threads leave one barrier together so
/// their first DeformTuple calls overlap on a fresh schema (every cache
/// still -1); under TSan a plain access to the cache is a reported race.
TEST(TupleFormDeform, ConcurrentFirstDeformFillsAttCacheOff) {
  constexpr int kThreads = 4;
  Arena arena;
  for (int round = 0; round < 20; ++round) {
    Schema s({Column("a", TypeId::kInt32, true),
              Column("b", TypeId::kInt64, true),
              Column("v", TypeId::kVarchar, true),
              Column("z", TypeId::kInt32, true)});
    Datum in[4] = {DatumFromInt32(round), DatumFromInt64(2),
                   tupleops::MakeVarlena(&arena, "abc"), DatumFromInt32(3)};
    std::string buf(tupleops::ComputeTupleSize(s, in, nullptr), '\0');
    tupleops::FormTuple(s, in, nullptr, buf.data());
    const std::string want = RowToString(s, in, nullptr);

    std::barrier start(kThreads);
    std::vector<std::string> seen(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        Datum out[4];
        bool isnull[4];
        tupleops::DeformTuple(s, buf.data(), 4, out, isnull);
        seen[static_cast<size_t>(t)] = RowToString(s, out, isnull);
      });
    }
    for (std::thread& th : threads) th.join();
    for (const std::string& got : seen) EXPECT_EQ(got, want);
    EXPECT_EQ(s.column(1).attcacheoff(), 8);
    EXPECT_EQ(s.column(2).attcacheoff(), 16);
  }
}

TEST(TupleFormDeform, BeeIdStoredInHeader) {
  Schema s({Column("a", TypeId::kInt32, true)});
  Datum in[1] = {DatumFromInt32(9)};
  uint32_t size = tupleops::ComputeTupleSize(s, in, nullptr);
  std::string buf(size, '\0');
  tupleops::FormTuple(s, in, nullptr, buf.data(), /*bee_id=*/42,
                      /*has_bee_id=*/true);
  TupleHeader h;
  std::memcpy(&h, buf.data(), sizeof(h));
  EXPECT_EQ(h.bee_id, 42);
  EXPECT_TRUE(h.flags & kTupleHasBeeId);
}

TEST(TupleFixedChar, BlankPadsShortPayloads) {
  Arena arena;
  Datum d = tupleops::MakeFixedChar(&arena, "ab", 5);
  EXPECT_EQ(std::string(DatumToPointer(d), 5), "ab   ");
}

/// Property sweep: form+deform is the identity on random rows over random
/// schemas, with and without NULLs.
class TupleRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(TupleRoundTripTest, FormThenDeformIsIdentity) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 1299709 + 17);
  int natts = 1 + static_cast<int>(rng.Uniform(24));
  bool nullable = rng.Uniform(2) == 0;
  Schema schema = RandomSchema(&rng, natts, nullable);
  Arena arena;
  for (int row = 0; row < 40; ++row) {
    Datum in[24];
    bool in_null[24];
    RandomRow(schema, &rng, &arena, in, in_null);
    uint32_t size = tupleops::ComputeTupleSize(schema, in, in_null);
    std::string buf(size, '\0');
    tupleops::FormTuple(schema, in, in_null, buf.data());

    Datum out[24];
    bool out_null[24];
    tupleops::DeformTuple(schema, buf.data(), natts, out, out_null);
    EXPECT_EQ(RowToString(schema, in, in_null),
              RowToString(schema, out, out_null))
        << "schema trial " << GetParam() << " row " << row;
    arena.Reset();
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSchemas, TupleRoundTripTest,
                         ::testing::Range(0, 24));

}  // namespace
}  // namespace microspec
