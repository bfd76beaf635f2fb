// Bee-creation cost microbenchmarks (Sections III-B and VI-B): the paper's
// design requires relation-bee creation to be affordable at CREATE TABLE
// time (it may invoke a compiler), query-bee creation to avoid compilation
// entirely, and tuple-bee creation to be "extremely fast" since it happens
// per modified tuple inside the query evaluation loop.

#include <benchmark/benchmark.h>

#include "bee/bee_module.h"
#include "bee/deform_program.h"
#include "bee/native_jit.h"
#include "bee/query_bee.h"
#include "common/rng.h"
#include "workloads/tpch/tpch_schema.h"

namespace microspec {
namespace {

using bee::DeformProgram;
using bee::FormProgram;
using bee::PlacementArena;
using bee::TupleBeeManager;

/// Compiling the GCL/SCL deform programs for the 16-column lineitem schema.
void BM_RelationBeeProgramCompile(benchmark::State& state) {
  Schema logical = tpch::LineitemSchema();
  for (auto _ : state) {
    DeformProgram gcl = DeformProgram::Compile(logical, logical, {});
    FormProgram scl = FormProgram::Compile(logical, logical, {});
    benchmark::DoNotOptimize(&gcl);
    benchmark::DoNotOptimize(&scl);
  }
}
BENCHMARK(BM_RelationBeeProgramCompile);

/// Lowering the lineitem relation bee's verified programs to the Listing-2
/// C source of the native backend (compilation itself is measured
/// separately; it runs once per CREATE TABLE).
void BM_NativeLowering(benchmark::State& state) {
  Schema logical = tpch::LineitemSchema();
  DeformProgram gcl = DeformProgram::Compile(logical, logical, {});
  bee::LogApplierProgram log = bee::LogApplierProgram::Compile(logical, false);
  for (auto _ : state) {
    std::string src =
        bee::NativeJit::LowerRelationBee(gcl.steps(), log.steps(), "bee_gcl_x");
    benchmark::DoNotOptimize(src.data());
  }
}
BENCHMARK(BM_NativeLowering);

/// EVP bee creation: lowering a 4-clause conjunction to kernels + patched
/// contexts. Must be cheap enough for ad-hoc query preparation.
void BM_EvpBeeCreate(benchmark::State& state) {
  PlacementArena arena;
  ExprPtr pred = And(ExprListOf(
      Cmp(CmpOp::kGe, Var(10, ColMeta::Of(TypeId::kDate)), ConstDate(730)),
      Cmp(CmpOp::kLt, Var(10, ColMeta::Of(TypeId::kDate)), ConstDate(1095)),
      Between(Var(6, ColMeta::Of(TypeId::kFloat64)), ConstFloat64(0.05),
              ConstFloat64(0.07)),
      Cmp(CmpOp::kLt, Var(4, ColMeta::Of(TypeId::kFloat64)),
          ConstFloat64(24.0))));
  for (auto _ : state) {
    auto bee = bee::TrySpecializePredicate(*pred, &arena, true);
    benchmark::DoNotOptimize(bee.get());
  }
}
BENCHMARK(BM_EvpBeeCreate);

/// EVJ bee creation: selecting monomorphized key kernels.
void BM_EvjBeeCreate(benchmark::State& state) {
  PlacementArena arena;
  std::vector<int> outer{0};
  std::vector<int> inner{0};
  std::vector<ColMeta> meta{ColMeta::Of(TypeId::kInt32)};
  for (auto _ : state) {
    auto bee = bee::TrySpecializeJoinKeys(outer, inner, meta, &arena);
    benchmark::DoNotOptimize(bee.get());
  }
}
BENCHMARK(BM_EvjBeeCreate);

/// Tuple-bee interning: the per-tuple memcmp dedup against existing data
/// sections that bulk loading pays (Section VI-B).
void BM_TupleBeeIntern(benchmark::State& state) {
  Schema schema = tpch::OrdersSchema();
  std::vector<int> spec_cols{tpch::kOOrderStatus, tpch::kOOrderPriority};
  TupleBeeManager mgr(&schema, spec_cols);
  Arena arena;
  const char* statuses = "OFP";
  const char* prios[] = {"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIE",
                         "5-LOW"};
  // Pre-populate all 15 sections, then measure steady-state interning.
  Datum values[9] = {};
  Rng rng(1);
  for (int i = 0; i < 64; ++i) {
    values[tpch::kOOrderStatus] = tupleops::MakeFixedChar(
        &arena, std::string(1, statuses[i % 3]), 1);
    values[tpch::kOOrderPriority] =
        tupleops::MakeFixedChar(&arena, prios[i % 5], 15);
    MICROSPEC_CHECK(mgr.Intern(values).ok());
  }
  int i = 0;
  for (auto _ : state) {
    values[tpch::kOOrderStatus] = tupleops::MakeFixedChar(
        &arena, std::string(1, statuses[i % 3]), 1);
    values[tpch::kOOrderPriority] =
        tupleops::MakeFixedChar(&arena, prios[i % 5], 15);
    auto id = mgr.Intern(values);
    benchmark::DoNotOptimize(id.value());
    ++i;
    if (i % 256 == 0) arena.Reset();
  }
}
BENCHMARK(BM_TupleBeeIntern);

/// GCL program execution vs the stock deform loop, per tuple (orders).
void BM_DeformStockVsBee(benchmark::State& state) {
  Schema schema = tpch::OrdersSchema();
  Arena arena;
  Datum values[9];
  values[0] = DatumFromInt32(1);
  values[1] = DatumFromInt32(2);
  values[2] = tupleops::MakeFixedChar(&arena, "O", 1);
  values[3] = DatumFromFloat64(1234.5);
  values[4] = DatumFromInt32(800);
  values[5] = tupleops::MakeFixedChar(&arena, "1-URGENT", 15);
  values[6] = tupleops::MakeFixedChar(&arena, "Clerk#000000001", 15);
  values[7] = DatumFromInt32(0);
  values[8] = tupleops::MakeVarlena(&arena, "a moderately sized comment");
  uint32_t size = tupleops::ComputeTupleSize(schema, values, nullptr);
  std::string tuple(size, '\0');
  tupleops::FormTuple(schema, values, nullptr, tuple.data());

  DeformProgram gcl = DeformProgram::Compile(schema, schema, {});
  Datum out[9];
  bool isnull[9];
  if (state.range(0) == 0) {
    for (auto _ : state) {
      tupleops::DeformTuple(schema, tuple.data(), 9, out, isnull);
      benchmark::DoNotOptimize(out[8]);
    }
    state.SetLabel("stock slot_deform_tuple");
  } else {
    for (auto _ : state) {
      gcl.Execute(tuple.data(), 9, out, isnull, nullptr);
      benchmark::DoNotOptimize(out[8]);
    }
    state.SetLabel("GCL bee routine");
  }
}
BENCHMARK(BM_DeformStockVsBee)->Arg(0)->Arg(1);

}  // namespace
}  // namespace microspec

BENCHMARK_MAIN();
