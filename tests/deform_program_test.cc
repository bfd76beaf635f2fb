#include <gtest/gtest.h>

#include "bee/deform_program.h"
#include "bee/native_jit.h"
#include "storage/tuple.h"
#include "test_util.h"

namespace microspec {
namespace {

using bee::DeformProgram;
using bee::FormProgram;
using testing::RandomRow;
using testing::RandomSchema;
using testing::RowToString;

/// Forms a tuple with the generic path, deforms it with the bee program, and
/// checks the result matches the input (the bee must read what the stock
/// engine writes, and vice versa).
void CheckDeformAgainstGeneric(const Schema& schema, const Datum* in,
                               const bool* in_null) {
  uint32_t size = tupleops::ComputeTupleSize(schema, in, in_null);
  std::string buf(size, '\0');
  tupleops::FormTuple(schema, in, in_null, buf.data());

  DeformProgram program = DeformProgram::Compile(schema, schema, {});
  Datum out[32];
  bool out_null[32];
  program.Execute(buf.data(), schema.natts(), out, out_null, nullptr);
  EXPECT_EQ(RowToString(schema, in, in_null),
            RowToString(schema, out, out_null));
}

TEST(DeformProgram, FixedPrefixUsesConstantOffsets) {
  Schema s({Column("a", TypeId::kInt32, true),
            Column("b", TypeId::kInt64, true),
            Column("v", TypeId::kVarchar, true),
            Column("z", TypeId::kInt32, true)});
  DeformProgram p = DeformProgram::Compile(s, s, {});
  ASSERT_EQ(p.steps().size(), 4u);
  EXPECT_EQ(p.steps()[0].op, bee::DeformOp::kFixed4);
  EXPECT_EQ(p.steps()[0].arg, 0u);
  EXPECT_EQ(p.steps()[1].op, bee::DeformOp::kFixed8);
  EXPECT_EQ(p.steps()[1].arg, 8u);
  EXPECT_EQ(p.steps()[2].op, bee::DeformOp::kFixedVarlena);
  EXPECT_EQ(p.steps()[2].arg, 16u);
  // Attribute after the varlena must be a dynamic op.
  EXPECT_EQ(p.steps()[3].op, bee::DeformOp::kDyn4);
}

TEST(DeformProgram, RoundTripNoNulls) {
  Schema s({Column("a", TypeId::kInt32, true),
            Column("c", TypeId::kChar, true, 7),
            Column("v", TypeId::kVarchar, true),
            Column("f", TypeId::kFloat64, true)});
  Arena arena;
  Datum in[4] = {DatumFromInt32(-7),
                 tupleops::MakeFixedChar(&arena, "chars", 7),
                 tupleops::MakeVarlena(&arena, "varlena!"),
                 DatumFromFloat64(6.25)};
  CheckDeformAgainstGeneric(s, in, nullptr);
}

TEST(DeformProgram, NullTuplesTakeNullAwarePath) {
  Schema s({Column("a", TypeId::kInt32, false),
            Column("b", TypeId::kVarchar, false),
            Column("c", TypeId::kInt64, false)});
  Arena arena;
  Datum in[3] = {0, tupleops::MakeVarlena(&arena, "mid"), DatumFromInt64(5)};
  bool nulls[3] = {true, false, false};
  CheckDeformAgainstGeneric(s, in, nulls);
  // All-null row too.
  Datum in2[3] = {0, 0, 0};
  bool nulls2[3] = {true, true, true};
  CheckDeformAgainstGeneric(s, in2, nulls2);
}

TEST(DeformProgram, PartialDeformStopsAtRequestedAttr) {
  Schema s({Column("a", TypeId::kInt32, true),
            Column("b", TypeId::kInt32, true),
            Column("c", TypeId::kInt32, true)});
  Datum in[3] = {DatumFromInt32(1), DatumFromInt32(2), DatumFromInt32(3)};
  uint32_t size = tupleops::ComputeTupleSize(s, in, nullptr);
  std::string buf(size, '\0');
  tupleops::FormTuple(s, in, nullptr, buf.data());
  DeformProgram p = DeformProgram::Compile(s, s, {});
  Datum out[3] = {0, 0, 12345};
  bool isnull[3];
  p.Execute(buf.data(), 2, out, isnull, nullptr);
  EXPECT_EQ(DatumToInt32(out[0]), 1);
  EXPECT_EQ(DatumToInt32(out[1]), 2);
  EXPECT_EQ(DatumToInt64(out[2]), 12345);  // untouched
}

/// ExecuteWithNulls edge case: every attribute NULL — the tuple body is
/// empty and every step must take the bitmap branch without touching it.
TEST(DeformProgram, NullPathAllAttributesNull) {
  Schema s({Column("a", TypeId::kInt32, false),
            Column("v", TypeId::kVarchar, false),
            Column("c", TypeId::kChar, false, 9),
            Column("f", TypeId::kFloat64, false)});
  Datum in[4] = {0, 0, 0, 0};
  bool nulls[4] = {true, true, true, true};
  uint32_t size = tupleops::ComputeTupleSize(s, in, nulls);
  std::string buf(size, '\0');
  tupleops::FormTuple(s, in, nulls, buf.data());
  DeformProgram p = DeformProgram::Compile(s, s, {});
  Datum out[4] = {7, 7, 7, 7};
  bool out_null[4] = {false, false, false, false};
  p.Execute(buf.data(), 4, out, out_null, nullptr);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(out_null[i]) << i;
    EXPECT_EQ(out[i], 0u) << i;  // NULL slots are zeroed, not left stale
  }
}

/// ExecuteWithNulls edge case: a NULL varlena mid-tuple. The attributes
/// after it shift left by the varlena's entire (value-dependent) size, so
/// the dynamic cursor must realign from the bytes actually present.
TEST(DeformProgram, NullPathNullVarlenaForcesRealignment) {
  Schema s({Column("a", TypeId::kInt32, true),
            Column("v", TypeId::kVarchar, false),
            Column("b", TypeId::kInt64, true),
            Column("w", TypeId::kVarchar, true),
            Column("d", TypeId::kInt32, true)});
  Arena arena;
  Datum in[5] = {DatumFromInt32(11), 0, DatumFromInt64(-42),
                 tupleops::MakeVarlena(&arena, "tail"), DatumFromInt32(13)};
  bool nulls[5] = {false, true, false, false, false};
  CheckDeformAgainstGeneric(s, in, nulls);

  // Same schema, varlena present: both paths must agree with themselves.
  Datum in2[5] = {DatumFromInt32(1), tupleops::MakeVarlena(&arena, "mid!"),
                  DatumFromInt64(2), tupleops::MakeVarlena(&arena, ""),
                  DatumFromInt32(3)};
  bool nulls2[5] = {false, false, false, false, false};
  CheckDeformAgainstGeneric(s, in2, nulls2);
}

/// ExecuteWithNulls edge case: partial deform (natts < logical attribute
/// count) on a NULL-carrying tuple stops at the requested attribute and
/// leaves later output slots untouched.
TEST(DeformProgram, NullPathPartialDeform) {
  Schema s({Column("a", TypeId::kInt32, false),
            Column("v", TypeId::kVarchar, false),
            Column("b", TypeId::kInt64, false)});
  Arena arena;
  Datum in[3] = {0, tupleops::MakeVarlena(&arena, "xy"), DatumFromInt64(77)};
  bool nulls[3] = {true, false, false};
  uint32_t size = tupleops::ComputeTupleSize(s, in, nulls);
  std::string buf(size, '\0');
  tupleops::FormTuple(s, in, nulls, buf.data());
  DeformProgram p = DeformProgram::Compile(s, s, {});
  Datum out[3] = {1, 2, 31337};
  bool out_null[3] = {false, false, false};
  p.Execute(buf.data(), 2, out, out_null, nullptr);
  EXPECT_TRUE(out_null[0]);
  ASSERT_FALSE(out_null[1]);
  EXPECT_EQ(std::string(VarlenaView(out[1])), "xy");
  EXPECT_EQ(out[2], 31337u);      // untouched
  EXPECT_FALSE(out_null[2]);      // untouched
}

TEST(FormProgram, MatchesGenericBytesExactly) {
  Schema s({Column("a", TypeId::kInt32, true),
            Column("v", TypeId::kVarchar, true),
            Column("f", TypeId::kFloat64, true)});
  Arena arena;
  Datum in[3] = {DatumFromInt32(5), tupleops::MakeVarlena(&arena, "abcde"),
                 DatumFromFloat64(1.5)};
  uint32_t size = tupleops::ComputeTupleSize(s, in, nullptr);
  std::string generic(size, '\0');
  tupleops::FormTuple(s, in, nullptr, generic.data());

  FormProgram p = FormProgram::Compile(s, s, {});
  std::string specialized;
  p.Execute(in, 0, false, &specialized);
  EXPECT_EQ(generic, specialized);
}

TEST(FormProgram, NullableVariantWritesBitmap) {
  Schema s({Column("a", TypeId::kInt32, false),
            Column("b", TypeId::kInt64, false)});
  Datum in[2] = {0, DatumFromInt64(9)};
  bool nulls[2] = {true, false};
  FormProgram p = FormProgram::Compile(s, s, {});
  EXPECT_FALSE(p.applicable(nulls));
  std::string buf;
  p.ExecuteNullable(in, nulls, 0, false, &buf);

  // The generic deform loop must read it back correctly.
  Datum out[2];
  bool out_null[2];
  tupleops::DeformTuple(s, buf.data(), 2, out, out_null);
  EXPECT_TRUE(out_null[0]);
  ASSERT_FALSE(out_null[1]);
  EXPECT_EQ(DatumToInt64(out[1]), 9);
}

TEST(FormProgram, NullableMatchesGenericBytes) {
  Schema s({Column("a", TypeId::kInt32, false),
            Column("v", TypeId::kVarchar, false),
            Column("c", TypeId::kChar, false, 3)});
  Arena arena;
  Datum in[3] = {DatumFromInt32(1), 0,
                 tupleops::MakeFixedChar(&arena, "xyz", 3)};
  bool nulls[3] = {false, true, false};
  uint32_t size = tupleops::ComputeTupleSize(s, in, nulls);
  std::string generic(size, '\0');
  tupleops::FormTuple(s, in, nulls, generic.data());
  FormProgram p = FormProgram::Compile(s, s, {});
  std::string specialized;
  p.ExecuteNullable(in, nulls, 0, false, &specialized);
  EXPECT_EQ(generic, specialized);
}

/// Property sweep: for random schemas and rows, SCL-formed tuples deformed
/// by GCL reproduce the input, and cross-pairings with the generic routines
/// agree byte-for-byte where defined.
class ProgramRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(ProgramRoundTripTest, SclThenGclIsIdentity) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 62233 + 5);
  int natts = 1 + static_cast<int>(rng.Uniform(20));
  Schema schema = RandomSchema(&rng, natts, /*allow_nullable=*/true);
  DeformProgram gcl = DeformProgram::Compile(schema, schema, {});
  FormProgram scl = FormProgram::Compile(schema, schema, {});
  Arena arena;
  std::string buf;
  for (int row = 0; row < 30; ++row) {
    Datum in[20];
    bool in_null[20];
    RandomRow(schema, &rng, &arena, in, in_null);
    if (scl.applicable(in_null)) {
      scl.Execute(in, 0, false, &buf);
    } else {
      scl.ExecuteNullable(in, in_null, 0, false, &buf);
    }
    Datum out[20];
    bool out_null[20];
    gcl.Execute(buf.data(), natts, out, out_null, nullptr);
    EXPECT_EQ(RowToString(schema, in, in_null),
              RowToString(schema, out, out_null))
        << "seed " << GetParam() << " row " << row;
    arena.Reset();
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSchemas, ProgramRoundTripTest,
                         ::testing::Range(0, 20));

/// Lowers the relation bee of `logical`/`stored` the way the bee module
/// does: deform and log-applier programs into one translation unit.
std::string LowerFor(const Schema& logical, const Schema& stored,
                     const std::vector<int>& spec_cols,
                     const std::string& symbol) {
  DeformProgram gcl = DeformProgram::Compile(logical, stored, spec_cols);
  bee::LogApplierProgram log =
      bee::LogApplierProgram::Compile(stored, !spec_cols.empty());
  return bee::NativeJit::LowerRelationBee(gcl.steps(), log.steps(), symbol);
}

/// Native JIT equivalence: the compiled routine agrees with the program
/// backend on random no-null rows.
class NativeJitTest : public ::testing::TestWithParam<int> {};

TEST_P(NativeJitTest, CompiledGclMatchesProgramBackend) {
  if (!bee::NativeJit::CompilerAvailable()) {
    GTEST_SKIP() << "no C compiler on this host";
  }
  Rng rng(static_cast<uint64_t>(GetParam()) * 104659 + 11);
  int natts = 1 + static_cast<int>(rng.Uniform(12));
  Schema schema = RandomSchema(&rng, natts, /*allow_nullable=*/false);
  testing::ScratchDir dir;
  bee::NativeJit jit;
  const std::string symbol = "bee_test_" + std::to_string(GetParam());
  auto fn = jit.Compile(LowerFor(schema, schema, {}, symbol), dir.path(),
                        symbol);
  ASSERT_TRUE(fn.ok()) << fn.status().ToString();

  DeformProgram gcl = DeformProgram::Compile(schema, schema, {});
  Arena arena;
  for (int row = 0; row < 20; ++row) {
    Datum in[12];
    bool in_null[12];
    RandomRow(schema, &rng, &arena, in, in_null);
    uint32_t size = tupleops::ComputeTupleSize(schema, in, nullptr);
    std::string buf(size, '\0');
    tupleops::FormTuple(schema, in, nullptr, buf.data());

    Datum prog_out[12];
    bool prog_null[12];
    gcl.Execute(buf.data(), natts, prog_out, prog_null, nullptr);

    Datum native_out[12];
    char native_null[12];
    fn.value().scalar(buf.data(), natts, native_out, native_null, nullptr);
    EXPECT_EQ(RowToString(schema, prog_out, prog_null),
              RowToString(schema, native_out,
                          reinterpret_cast<bool*>(native_null)))
        << "seed " << GetParam() << " row " << row;
    arena.Reset();
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSchemas, NativeJitTest, ::testing::Range(0, 6));

TEST(NativeJit, GeneratedSourceHasListing2Shape) {
  Schema s({Column("a", TypeId::kInt32, true),
            Column("flag", TypeId::kChar, true, 1),
            Column("v", TypeId::kVarchar, true)});
  std::string src = LowerFor(s, s, {}, "bee_gcl_x");
  // The isnull collapse, the straight-line loads, and the early-outs.
  EXPECT_NE(src.find("memset(isnull, 0"), std::string::npos);
  EXPECT_NE(src.find("values[0]"), std::string::npos);
  EXPECT_NE(src.find("if (natts < 2) return;"), std::string::npos);
  // No data-section hole without specialized columns.
  EXPECT_EQ(src.find("sections["), std::string::npos);
  // With a specialized column the hole appears.
  Schema stored({Column("a", TypeId::kInt32, true),
                 Column("v", TypeId::kVarchar, true)});
  std::string src2 = LowerFor(s, stored, {1}, "bee_gcl_y");
  EXPECT_NE(src2.find("sections[(unsigned char)tuple[3]]"),
            std::string::npos);
  EXPECT_NE(src2.find("sec[0]"), std::string::npos);
}

}  // namespace
}  // namespace microspec
