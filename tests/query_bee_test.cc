#include <gtest/gtest.h>

#include "bee/placement.h"
#include "bee/query_bee.h"
#include "test_util.h"

namespace microspec {
namespace {

using bee::PlacementArena;
using bee::TrySpecializeJoinKeys;
using bee::TrySpecializePredicate;
using testing::RandomRow;
using testing::RandomSchema;

/// Checks the EVP bee agrees with the generic interpreter on `rows` random
/// rows over `schema` for predicate `make_expr(schema)`.
void CheckEvpEquivalence(const Schema& schema, const ExprPtr& expr,
                         int rows, uint64_t seed) {
  PlacementArena arena;
  auto bee = TrySpecializePredicate(*expr, &arena, true);
  ASSERT_NE(bee, nullptr) << "predicate should be specializable";
  ExprPredicate generic(expr->Clone());

  Rng rng(seed);
  Arena value_arena;
  std::vector<Datum> values(static_cast<size_t>(schema.natts()));
  std::vector<char> nulls(static_cast<size_t>(schema.natts()));
  for (int i = 0; i < rows; ++i) {
    RandomRow(schema, &rng, &value_arena, values.data(),
              reinterpret_cast<bool*>(nulls.data()));
    ExecRow row{values.data(), reinterpret_cast<bool*>(nulls.data()), nullptr,
                nullptr};
    EXPECT_EQ(bee->Matches(row), generic.Matches(row)) << "row " << i;
  }
}

Schema MixedSchema() {
  return Schema({Column("i", TypeId::kInt32, false),
                 Column("f", TypeId::kFloat64, false),
                 Column("c", TypeId::kChar, false, 8),
                 Column("v", TypeId::kVarchar, false),
                 Column("d", TypeId::kDate, false)});
}

/// Parameter sweep over every comparison operator and operand class.
/// gtest prints the parameter's raw bytes into the test name, so the
/// padding between `op` and `col` is an explicit zeroed member: left
/// implicit, it holds stack garbage and the name changes from run to run.
struct EvpCase {
  constexpr EvpCase(CmpOp o, int c) : op(o), col(c) {}
  CmpOp op;
  uint8_t pad[3] = {};
  int col;
};
static_assert(sizeof(EvpCase) == 8, "EvpCase must have no implicit padding");

class EvpCmpTest : public ::testing::TestWithParam<EvpCase> {};

TEST_P(EvpCmpTest, AgreesWithInterpreter) {
  Schema schema = MixedSchema();
  const EvpCase& c = GetParam();
  ExprPtr rhs;
  ColMeta meta = ColMeta::FromColumn(schema.column(c.col));
  switch (schema.column(c.col).type()) {
    case TypeId::kInt32:
      rhs = ConstInt32(100);
      break;
    case TypeId::kFloat64:
      rhs = ConstFloat64(0.0);
      break;
    case TypeId::kChar:
      rhs = ConstChar("mmmm", 8);
      break;
    case TypeId::kVarchar:
      rhs = ConstVarchar("mmmm");
      break;
    default:
      rhs = ConstDate(0);
      break;
  }
  ExprPtr expr = Cmp(c.op, Var(c.col, meta), std::move(rhs));
  CheckEvpEquivalence(schema, expr, 300,
                      static_cast<uint64_t>(c.col) * 31 +
                          static_cast<uint64_t>(c.op));
}

INSTANTIATE_TEST_SUITE_P(
    OpsTimesTypes, EvpCmpTest,
    ::testing::Values(
        EvpCase{CmpOp::kEq, 0}, EvpCase{CmpOp::kNe, 0}, EvpCase{CmpOp::kLt, 0},
        EvpCase{CmpOp::kLe, 0}, EvpCase{CmpOp::kGt, 0}, EvpCase{CmpOp::kGe, 0},
        EvpCase{CmpOp::kEq, 1}, EvpCase{CmpOp::kLt, 1}, EvpCase{CmpOp::kGe, 1},
        EvpCase{CmpOp::kEq, 2}, EvpCase{CmpOp::kLt, 2}, EvpCase{CmpOp::kGe, 2},
        EvpCase{CmpOp::kEq, 3}, EvpCase{CmpOp::kLt, 3}, EvpCase{CmpOp::kGe, 3},
        EvpCase{CmpOp::kEq, 4}, EvpCase{CmpOp::kLe, 4}, EvpCase{CmpOp::kGt, 4}),
    [](const ::testing::TestParamInfo<EvpCase>& info) {
      return std::string("col") + std::to_string(info.param.col) + "_op" +
             std::to_string(static_cast<int>(info.param.op));
    });

TEST(EvpBee, ConjunctionAgreesWithInterpreter) {
  Schema schema = MixedSchema();
  ExprPtr expr = And(ExprListOf(
      Cmp(CmpOp::kGe, Var(4, ColMeta::Of(TypeId::kDate)), ConstDate(-500000)),
      Cmp(CmpOp::kLt, Var(4, ColMeta::Of(TypeId::kDate)), ConstDate(500000)),
      Between(Var(1, ColMeta::Of(TypeId::kFloat64)), ConstFloat64(-100.0),
              ConstFloat64(100.0)),
      Cmp(CmpOp::kLt, Var(0, ColMeta::Of(TypeId::kInt32)),
          ConstInt32(500000))));
  CheckEvpEquivalence(schema, expr, 500, 1234);
}

TEST(EvpBee, FlippedConstVarComparison) {
  Schema schema = MixedSchema();
  // 100 < i  must specialize by flipping the operator.
  ExprPtr expr =
      Cmp(CmpOp::kLt, ConstInt32(100), Var(0, ColMeta::Of(TypeId::kInt32)));
  CheckEvpEquivalence(schema, expr, 300, 7);
}

TEST(EvpBee, LikeClausesAgree) {
  Schema schema = MixedSchema();
  for (const char* pattern : {"m%", "%m", "%m%", "mmmm"}) {
    for (bool negated : {false, true}) {
      ExprPtr expr = std::make_unique<LikeExpr>(
          Var(3, ColMeta::Of(TypeId::kVarchar)), pattern, negated);
      CheckEvpEquivalence(schema, expr, 300,
                          static_cast<uint64_t>(pattern[0]) + negated);
    }
  }
}

TEST(EvpBee, InListClausesAgree) {
  Schema schema = MixedSchema();
  std::vector<Datum> items = {DatumFromInt32(3), DatumFromInt32(-100),
                              DatumFromInt32(500)};
  ExprPtr expr = std::make_unique<InListExpr>(
      Var(0, ColMeta::Of(TypeId::kInt32)), items, ColMeta::Of(TypeId::kInt32));
  CheckEvpEquivalence(schema, expr, 300, 99);
}

TEST(EvpBee, UnsupportedShapesFallBack) {
  PlacementArena arena;
  // Var-vs-var comparison is not specializable.
  ExprPtr vv = Cmp(CmpOp::kLt, Var(0, ColMeta::Of(TypeId::kInt32)),
                   Var(1, ColMeta::Of(TypeId::kInt32)));
  EXPECT_EQ(TrySpecializePredicate(*vv, &arena, true), nullptr);
  // OR at the top is not specializable.
  ExprPtr orr = Or(ExprListOf(
      Cmp(CmpOp::kEq, Var(0, ColMeta::Of(TypeId::kInt32)), ConstInt32(1)),
      Cmp(CmpOp::kEq, Var(0, ColMeta::Of(TypeId::kInt32)), ConstInt32(2))));
  EXPECT_EQ(TrySpecializePredicate(*orr, &arena, true), nullptr);
  // Arithmetic operand is not specializable.
  ExprPtr arith = Cmp(
      CmpOp::kGt,
      Arith(ArithOp::kMul, Var(1, ColMeta::Of(TypeId::kFloat64)),
            ConstFloat64(2.0)),
      ConstFloat64(1.0));
  EXPECT_EQ(TrySpecializePredicate(*arith, &arena, true), nullptr);
  // Inner-side Vars (join residuals) are not EVP targets.
  ExprPtr inner = Cmp(CmpOp::kEq,
                      Var(RowSide::kInner, 0, ColMeta::Of(TypeId::kInt32)),
                      ConstInt32(1));
  EXPECT_EQ(TrySpecializePredicate(*inner, &arena, true), nullptr);
}

TEST(EvpBee, NullOperandsNeverMatch) {
  Schema schema({Column("i", TypeId::kInt32, false)});
  PlacementArena arena;
  ExprPtr expr =
      Cmp(CmpOp::kEq, Var(0, ColMeta::Of(TypeId::kInt32)), ConstInt32(0));
  auto bee = TrySpecializePredicate(*expr, &arena, true);
  ASSERT_NE(bee, nullptr);
  Datum v[1] = {DatumFromInt32(0)};
  bool n[1] = {true};
  ExecRow row{v, n, nullptr, nullptr};
  EXPECT_FALSE(bee->Matches(row));
}

/// EVJ equivalence against GenericJoinKeys across key types.
class EvjTest : public ::testing::TestWithParam<TypeId> {};

TEST_P(EvjTest, HashAndEqualAgreeWithGeneric) {
  TypeId type = GetParam();
  int32_t charlen = type == TypeId::kChar ? 6 : 0;
  Schema schema({Column("k", type, false, charlen)});
  ColMeta meta = ColMeta::FromColumn(schema.column(0));
  std::vector<int> cols{0};
  std::vector<ColMeta> metas{meta};

  PlacementArena arena;
  auto evj = TrySpecializeJoinKeys(cols, cols, metas, &arena);
  ASSERT_NE(evj, nullptr);
  GenericJoinKeys generic(cols, cols, metas);

  Rng rng(static_cast<uint64_t>(type) + 50);
  Arena value_arena;
  Datum a[1];
  Datum b[1];
  bool an[1];
  bool bn[1];
  for (int i = 0; i < 300; ++i) {
    RandomRow(schema, &rng, &value_arena, a, an);
    // Half the time reuse the same value so equality actually fires.
    if (rng.Uniform(2) == 0) {
      b[0] = a[0];
      bn[0] = an[0];
    } else {
      RandomRow(schema, &rng, &value_arena, b, bn);
    }
    EXPECT_EQ(evj->HashOuter(a, an), generic.HashOuter(a, an));
    EXPECT_EQ(evj->HashInner(b, bn), generic.HashInner(b, bn));
    EXPECT_EQ(evj->KeysEqual(a, an, b, bn), generic.KeysEqual(a, an, b, bn));
  }
}

INSTANTIATE_TEST_SUITE_P(KeyTypes, EvjTest,
                         ::testing::Values(TypeId::kInt32, TypeId::kInt64,
                                           TypeId::kFloat64, TypeId::kChar,
                                           TypeId::kVarchar, TypeId::kDate),
                         [](const ::testing::TestParamInfo<TypeId>& info) {
                           return TypeName(info.param);
                         });

TEST(EvjBee, MultiKeyJoin) {
  std::vector<int> outer{0, 2};
  std::vector<int> inner{1, 0};
  std::vector<ColMeta> metas{ColMeta::Of(TypeId::kInt32),
                             ColMeta::Of(TypeId::kVarchar)};
  PlacementArena arena;
  auto evj = TrySpecializeJoinKeys(outer, inner, metas, &arena);
  ASSERT_NE(evj, nullptr);
  GenericJoinKeys generic(outer, inner, metas);

  Arena value_arena;
  Datum ov[3] = {DatumFromInt32(7), 0,
                 tupleops::MakeVarlena(&value_arena, "key")};
  Datum iv[2] = {tupleops::MakeVarlena(&value_arena, "key"),
                 DatumFromInt32(7)};
  EXPECT_EQ(evj->HashOuter(ov, nullptr), generic.HashOuter(ov, nullptr));
  EXPECT_TRUE(evj->KeysEqual(ov, nullptr, iv, nullptr));
  EXPECT_TRUE(generic.KeysEqual(ov, nullptr, iv, nullptr));
}

TEST(PlacementArena, IsolationAlignsToCacheLines) {
  PlacementArena isolated(true);
  for (int i = 0; i < 8; ++i) {
    void* p = isolated.Allocate(24);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % kCacheLineSize, 0u);
  }
  PlacementArena packed(false);
  size_t before = packed.bytes_used();
  packed.Allocate(24);
  // Packed mode does not round every block to a cache line.
  EXPECT_LT(packed.bytes_used() - before, kCacheLineSize);
}

}  // namespace
}  // namespace microspec
