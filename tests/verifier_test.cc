#include <gtest/gtest.h>

#include "bee/bee_module.h"
#include "bee/native_jit.h"
#include "bee/placement.h"
#include "bee/verifier.h"
#include "common/telemetry.h"
#include "test_util.h"
#include "workloads/tpcc/tpcc_schema.h"
#include "workloads/tpch/tpch_schema.h"

namespace microspec {
namespace {

using bee::BeeVerifier;
using bee::DeformOp;
using bee::DeformProgram;
using bee::DeformStep;
using bee::FormOp;
using bee::FormProgram;
using bee::FormStep;
using testing::OpenDb;
using testing::RandomSchema;
using testing::ScratchDir;

/// A schema exercising every cursor-model transition: a fixed byval prefix,
/// a char(n), the varlena that flips the cursor to dynamic mode, and
/// dynamic attributes (one nullable) after it.
Schema VerifierSchema() {
  return Schema({Column("a", TypeId::kInt32, true),
                 Column("b", TypeId::kInt64, true),
                 Column("c", TypeId::kChar, true, 5),
                 Column("v", TypeId::kVarchar, true),
                 Column("d", TypeId::kInt32, true),
                 Column("n", TypeId::kInt64, false)});
}

struct CompiledPrograms {
  std::vector<DeformStep> steps;
  std::vector<DeformStep> null_steps;
};

CompiledPrograms CompileFor(const Schema& s) {
  DeformProgram p = DeformProgram::Compile(s, s, {});
  return {p.steps(), p.null_steps()};
}

Status Verify(const Schema& s, const CompiledPrograms& p) {
  return BeeVerifier::VerifyDeformSteps(p.steps, p.null_steps, s, s, {});
}

TEST(BeeVerifier, AcceptsCompilerOutput) {
  Schema s = VerifierSchema();
  DeformProgram p = DeformProgram::Compile(s, s, {});
  EXPECT_OK(BeeVerifier::VerifyDeform(p, s, s, {}));
  FormProgram f = FormProgram::Compile(s, s, {});
  EXPECT_OK(BeeVerifier::VerifyForm(f, s, s, {}));
}

TEST(BeeVerifier, AcceptsRandomSchemas) {
  Rng rng(4242);
  for (int i = 0; i < 50; ++i) {
    int natts = 1 + static_cast<int>(rng.Uniform(20));
    Schema s = RandomSchema(&rng, natts, /*allow_nullable=*/true);
    DeformProgram p = DeformProgram::Compile(s, s, {});
    EXPECT_OK(BeeVerifier::VerifyDeform(p, s, s, {}));
    FormProgram f = FormProgram::Compile(s, s, {});
    EXPECT_OK(BeeVerifier::VerifyForm(f, s, s, {}));
  }
}

/// Reject class 1: misaligned fixed offset.
TEST(BeeVerifier, RejectsMisalignedFixedOffset) {
  Schema s = VerifierSchema();
  CompiledPrograms p = CompileFor(s);
  ASSERT_EQ(p.steps[1].op, DeformOp::kFixed8);
  p.steps[1].arg += 1;  // 8-byte value at offset 9
  Status st = Verify(s, p);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("misaligned"), std::string::npos) << st.message();
}

/// Reject class 1b: aligned but non-monotonic / overlapping offset.
TEST(BeeVerifier, RejectsNonMonotonicFixedOffset) {
  Schema s = VerifierSchema();
  CompiledPrograms p = CompileFor(s);
  p.steps[1].arg = 0;  // overlaps attribute 0
  Status st = Verify(s, p);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("disagrees with the cursor model"),
            std::string::npos)
      << st.message();
}

/// Reject class 2: fixed-mode step after the first varlena.
TEST(BeeVerifier, RejectsFixedStepAfterVarlena) {
  Schema s = VerifierSchema();
  CompiledPrograms p = CompileFor(s);
  ASSERT_EQ(p.steps[4].op, DeformOp::kDyn4);
  p.steps[4].op = DeformOp::kFixed4;  // pretends the offset is constant
  p.steps[4].arg = 32;
  Status st = Verify(s, p);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("fixed-mode step after"), std::string::npos)
      << st.message();
}

/// Reject class 3: out / stored / section-slot indices out of range.
TEST(BeeVerifier, RejectsOutOfRangeIndices) {
  Schema s = VerifierSchema();
  {
    CompiledPrograms p = CompileFor(s);
    p.steps[2].out = 99;
    Status st = Verify(s, p);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("outside the logical schema"),
              std::string::npos)
        << st.message();
  }
  {
    CompiledPrograms p = CompileFor(s);
    p.steps[2].stored = 17;
    Status st = Verify(s, p);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("outside the stored schema"),
              std::string::npos)
        << st.message();
  }
  {
    // Tuple-bee program with a section slot past the specialized columns.
    Column lc("flag", TypeId::kChar, true, 1);
    lc.set_low_cardinality(true);
    Schema logical({Column("a", TypeId::kInt32, true), lc});
    Schema stored({Column("a", TypeId::kInt32, true)});
    DeformProgram p = DeformProgram::Compile(logical, stored, {1});
    std::vector<DeformStep> steps = p.steps();
    ASSERT_EQ(steps[1].op, DeformOp::kSection);
    steps[1].arg = 5;  // only one specialized column exists
    Status st = BeeVerifier::VerifyDeformSteps(steps, p.null_steps(), logical,
                                               stored, {1});
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("section slot"), std::string::npos)
        << st.message();
  }
}

/// Reject class 4: nullable stored attribute missing its bitmap test.
TEST(BeeVerifier, RejectsMissingNullCheck) {
  Schema s = VerifierSchema();
  CompiledPrograms p = CompileFor(s);
  ASSERT_TRUE(p.null_steps[5].maybe_null);
  p.null_steps[5].maybe_null = false;  // column "n" is nullable
  Status st = Verify(s, p);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("missing maybe_null"), std::string::npos)
      << st.message();
}

/// Reject class 5: logical attributes not covered exactly once.
TEST(BeeVerifier, RejectsBadCoverage) {
  Schema s = VerifierSchema();
  {
    CompiledPrograms p = CompileFor(s);
    p.steps.pop_back();  // attribute 5 never deformed
    Status st = Verify(s, p);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("covered zero times or twice"),
              std::string::npos)
        << st.message();
  }
  {
    CompiledPrograms p = CompileFor(s);
    p.steps[5] = p.steps[4];  // attribute 4 twice, attribute 5 never
    Status st = Verify(s, p);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("out of order"), std::string::npos)
        << st.message();
  }
}

/// Reject class 6: fast path and null-aware variant disagree.
TEST(BeeVerifier, RejectsFastNullPathMismatch) {
  Schema s = VerifierSchema();
  {
    CompiledPrograms p = CompileFor(s);
    ASSERT_EQ(p.null_steps[4].op, DeformOp::kDyn4);
    p.null_steps[4].op = DeformOp::kDyn8;  // wrong width on the null path
    Status st = Verify(s, p);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("null-aware variant"), std::string::npos)
        << st.message();
  }
  {
    CompiledPrograms p = CompileFor(s);
    p.null_steps.pop_back();
    Status st = Verify(s, p);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("step count"), std::string::npos)
        << st.message();
  }
}

/// Reject class 7: op/type or char-length disagreement with the catalog.
TEST(BeeVerifier, RejectsTypeMismatch) {
  Schema s = VerifierSchema();
  {
    CompiledPrograms p = CompileFor(s);
    ASSERT_EQ(p.steps[0].op, DeformOp::kFixed4);
    p.steps[0].op = DeformOp::kFixed8;  // would read past the int4
    Status st = Verify(s, p);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("physical type"), std::string::npos)
        << st.message();
  }
  {
    CompiledPrograms p = CompileFor(s);
    ASSERT_EQ(p.steps[2].op, DeformOp::kFixedChar);
    p.steps[2].len = 9;  // char(5) claimed as 9 bytes
    Status st = Verify(s, p);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("length mismatch"), std::string::npos)
        << st.message();
  }
}

/// A rejected deform program's Status carries the step-level diagnostic plus
/// the program disassembly for debugging.
TEST(BeeVerifier, RejectIncludesDisassembly) {
  Schema s = VerifierSchema();
  DeformProgram good = DeformProgram::Compile(s, s, {});
  // Mutate through a copy of the steps and re-verify at the program level by
  // compiling a program for a *different* schema and verifying against this
  // one (layout disagreement).
  Schema other({Column("x", TypeId::kInt64, true),
                Column("y", TypeId::kInt32, true)});
  DeformProgram p = DeformProgram::Compile(other, other, {});
  Status st = BeeVerifier::VerifyDeform(p, s, s, {});
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("program disassembly:"), std::string::npos);
  EXPECT_NE(st.message().find("values[0]"), std::string::npos);
}

/// Form-program rejects: wrong source attribute, missing null handling,
/// wrong header size.
TEST(BeeVerifier, RejectsCorruptFormPrograms) {
  Schema s = VerifierSchema();
  FormProgram f = FormProgram::Compile(s, s, {});
  uint32_t h = f.header_size();
  uint32_t hn = f.header_size_nulls();
  {
    std::vector<FormStep> steps = f.steps();
    steps[1].in = 3;  // stores the varlena pointer as the int8
    Status st = BeeVerifier::VerifyFormSteps(steps, h, hn, s, s, {});
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("takes its value from"), std::string::npos)
        << st.message();
  }
  {
    std::vector<FormStep> steps = f.steps();
    ASSERT_TRUE(steps[5].maybe_null);
    steps[5].maybe_null = false;
    Status st = BeeVerifier::VerifyFormSteps(steps, h, hn, s, s, {});
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("missing maybe_null"), std::string::npos)
        << st.message();
  }
  {
    Status st = BeeVerifier::VerifyFormSteps(f.steps(), h + 8, hn, s, s, {});
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("header size"), std::string::npos)
        << st.message();
  }
}

/// Every seed-generated bee for the TPC-H and TPC-C schemas passes under
/// VerifyMode::kEnforce, with both backends built (the native backend is
/// lowered from the same verified programs when a compiler exists).
TEST(BeeVerifier, TpchAndTpccBeesVerifyUnderEnforce) {
  ScratchDir dir;
  bee::BeeBackend backend = bee::NativeJit::CompilerAvailable()
                                ? bee::BeeBackend::kNative
                                : bee::BeeBackend::kProgram;
  {
    auto db = OpenDb(dir.path() + "/tpch", /*enable_bees=*/true,
                     /*tuple_bees=*/true, backend);
    ASSERT_OK(tpch::CreateTpchTables(db.get()));
    for (TableInfo* t : db->catalog()->AllTables()) {
      bee::RelationBeeState* state = db->bees()->StateFor(t->id());
      ASSERT_NE(state, nullptr) << t->name();
      Status deform_st = BeeVerifier::VerifyDeform(
          state->gcl(), t->schema(), state->stored_schema(),
          state->spec_cols());
      EXPECT_TRUE(deform_st.ok()) << t->name() << ": " << deform_st.ToString();
      Status form_st =
          BeeVerifier::VerifyForm(state->scl(), t->schema(),
                                  state->stored_schema(), state->spec_cols());
      EXPECT_TRUE(form_st.ok()) << t->name() << ": " << form_st.ToString();
    }
  }
  {
    auto db = OpenDb(dir.path() + "/tpcc", /*enable_bees=*/true,
                     /*tuple_bees=*/true, backend);
    ASSERT_OK(tpcc::CreateTpccTables(db.get()));
    for (TableInfo* t : db->catalog()->AllTables()) {
      bee::RelationBeeState* state = db->bees()->StateFor(t->id());
      ASSERT_NE(state, nullptr) << t->name();
      Status deform_st = BeeVerifier::VerifyDeform(
          state->gcl(), t->schema(), state->stored_schema(),
          state->spec_cols());
      EXPECT_TRUE(deform_st.ok()) << t->name() << ": " << deform_st.ToString();
      Status form_st =
          BeeVerifier::VerifyForm(state->scl(), t->schema(),
                                  state->stored_schema(), state->spec_cols());
      EXPECT_TRUE(form_st.ok()) << t->name() << ": " << form_st.ToString();
    }
  }
}

/// --- Query-bee (EVP/EVJ) verification ---------------------------------------

std::vector<ColMeta> EvpMeta() {
  return {ColMeta::Of(TypeId::kInt32),   ColMeta::Of(TypeId::kInt64),
          ColMeta::Of(TypeId::kFloat64), ColMeta::Of(TypeId::kChar, 8),
          ColMeta::Of(TypeId::kVarchar), ColMeta::Of(TypeId::kDate)};
}

TEST(BeeVerifier, EvpAcceptsSpecializerOutput) {
  std::vector<ColMeta> meta = EvpMeta();
  bee::PlacementArena arena;
  std::vector<ExprPtr> corpus;
  corpus.push_back(And(ExprListOf(
      Cmp(CmpOp::kLt, Var(0, meta[0]), ConstInt32(5)),
      Cmp(CmpOp::kGt, Var(2, meta[2]), ConstFloat64(1.5)))));
  corpus.push_back(Cmp(CmpOp::kEq, Var(3, meta[3]), ConstChar("abc", 8)));
  corpus.push_back(std::make_unique<LikeExpr>(Var(4, meta[4]), "abc%"));
  corpus.push_back(Cmp(CmpOp::kEq, Var(4, meta[4]), ConstVarchar("hello")));
  for (const ExprPtr& e : corpus) {
    auto checked = bee::TrySpecializePredicateChecked(
        *e, &arena, /*input_nullable=*/true, &meta, bee::VerifyMode::kEnforce);
    EXPECT_NE(checked, nullptr);
  }
}

TEST(BeeVerifier, EvpRejectsOutOfRangeColumn) {
  std::vector<ColMeta> meta = EvpMeta();
  // Attribute 10 does not exist in the 6-wide input schema; the specializer
  // happily patches it in (it only sees the expression), so only the
  // verifier's input-schema check stands between this bee and a wild read.
  ExprPtr e = Cmp(CmpOp::kLt, Var(10, ColMeta::Of(TypeId::kInt32)),
                  ConstInt32(5));
  bee::PlacementArena arena;
  auto b = bee::TrySpecializePredicate(*e, &arena, true);
  ASSERT_NE(b, nullptr);
  Status st = BeeVerifier::VerifyEvp(*b, *e, &meta);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("out of range for input width"),
            std::string::npos)
      << st.message();
  EXPECT_EQ(bee::TrySpecializePredicateChecked(*e, &arena, true, &meta,
                                               bee::VerifyMode::kEnforce),
            nullptr);
}

TEST(BeeVerifier, EvpRejectsTypeMismatchedComparison) {
  std::vector<ColMeta> meta = EvpMeta();
  // The expression types attribute 2 as int64, but the operator's input
  // schema says float64 — the int kernel would compare raw bit patterns.
  ExprPtr e = Cmp(CmpOp::kLt, Var(2, ColMeta::Of(TypeId::kInt64)),
                  ConstInt64(5));
  bee::PlacementArena arena;
  auto b = bee::TrySpecializePredicate(*e, &arena, true);
  ASSERT_NE(b, nullptr);
  Status st = BeeVerifier::VerifyEvp(*b, *e, &meta);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("type-mismatched comparison"),
            std::string::npos)
      << st.message();
}

TEST(BeeVerifier, EvpRejectsDroppedNullGuard) {
  std::vector<ColMeta> meta = EvpMeta();
  ExprPtr e = Cmp(CmpOp::kLt, Var(0, meta[0]), ConstInt32(5));
  bee::PlacementArena arena;
  auto b = bee::TrySpecializePredicate(*e, &arena, true);
  ASSERT_NE(b, nullptr);
  std::vector<bee::EvpBee::Clause> cl = b->clauses();
  bee::EvpClause ctx = *cl[0].ctx;
  ctx.nullable = false;
  cl[0].ctx = &ctx;
  bee::EvpBee mutant(std::move(cl), b->clause_info(), {});
  Status st = BeeVerifier::VerifyEvp(mutant, *e, &meta);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("null guard dropped"), std::string::npos)
      << st.message();
}

TEST(BeeVerifier, EvpRejectsRowBatchKernelDrift) {
  std::vector<ColMeta> meta = EvpMeta();
  ExprPtr e = Cmp(CmpOp::kLt, Var(0, meta[0]), ConstInt32(5));
  bee::PlacementArena arena;
  auto b = bee::TrySpecializePredicate(*e, &arena, true);
  ASSERT_NE(b, nullptr);
  // Swap the batch-form kernel for a different monomorphization while the
  // row form keeps the right one: the scalar path and EVP-B would disagree
  // on which rows survive.
  bee::EvpClauseInfo drifted = b->clause_info()[0];
  drifted.op = CmpOp::kGe;
  std::vector<bee::EvpBee::Clause> cl = b->clauses();
  cl[0].col_fn = bee::EvpColKernelFor(drifted);
  bee::EvpBee mutant(std::move(cl), b->clause_info(), {});
  Status st = BeeVerifier::VerifyEvp(mutant, *e, &meta);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("value-form sibling"), std::string::npos)
      << st.message();
}

TEST(BeeVerifier, EvpRejectsClauseReorder) {
  std::vector<ColMeta> meta = EvpMeta();
  ExprPtr e = And(ExprListOf(
      Cmp(CmpOp::kLt, Var(0, meta[0]), ConstInt32(5)),
      Cmp(CmpOp::kGt, Var(2, meta[2]), ConstFloat64(1.5))));
  bee::PlacementArena arena;
  auto b = bee::TrySpecializePredicate(*e, &arena, true);
  ASSERT_NE(b, nullptr);
  std::vector<bee::EvpBee::Clause> cl = b->clauses();
  std::vector<bee::EvpClauseInfo> info = b->clause_info();
  std::swap(cl[0], cl[1]);
  std::swap(info[0], info[1]);
  bee::EvpBee mutant(std::move(cl), std::move(info), {});
  Status st = BeeVerifier::VerifyEvp(mutant, *e, &meta);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("monomorphization coordinates"),
            std::string::npos)
      << st.message();
}

TEST(BeeVerifier, EvjVerification) {
  std::vector<int> outer = {0, 2};
  std::vector<int> inner = {1, 0};
  std::vector<ColMeta> key_meta = {ColMeta::Of(TypeId::kInt64),
                                   ColMeta::Of(TypeId::kChar, 6)};
  bee::PlacementArena arena;
  auto b = bee::TrySpecializeJoinKeysChecked(outer, inner, key_meta, &arena,
                                             /*outer_width=*/4,
                                             /*inner_width=*/3,
                                             bee::VerifyMode::kEnforce);
  ASSERT_NE(b, nullptr);
  EXPECT_OK(BeeVerifier::VerifyEvj(*b, outer, inner, key_meta, 4, 3));

  {  // outer attribute beyond the probe side's width
    Status st = BeeVerifier::VerifyEvj(*b, outer, inner, key_meta,
                                       /*outer_width=*/2, 3);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("out of range for width"), std::string::npos)
        << st.message();
  }
  {  // char(6) key claiming a different width than the catalog
    std::vector<bee::EvjBee::Key> keys = b->keys();
    bee::EvjKey ctx = *keys[1].ctx;
    ctx.charlen += 1;
    keys[1].ctx = &ctx;
    bee::EvjBee mutant(std::move(keys));
    Status st = BeeVerifier::VerifyEvj(mutant, outer, inner, key_meta, 4, 3);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("key length disagrees"), std::string::npos)
        << st.message();
  }
  {  // hash kernel for the wrong type class
    std::vector<bee::EvjBee::Key> keys = b->keys();
    keys[1].hash = bee::EvjHashKernelFor(bee::KernelClass::kInt);
    bee::EvjBee mutant(std::move(keys));
    Status st = BeeVerifier::VerifyEvj(mutant, outer, inner, key_meta, 4, 3);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("hash kernel"), std::string::npos)
        << st.message();
  }
}

TEST(BeeVerifier, WarnModeRoutesRejectsThroughTelemetry) {
  std::vector<ColMeta> meta = EvpMeta();
  ExprPtr e = Cmp(CmpOp::kLt, Var(10, ColMeta::Of(TypeId::kInt32)),
                  ConstInt32(5));
  bee::PlacementArena arena;
  telemetry::Registry& reg = telemetry::Registry::Global();
  uint64_t before =
      reg.GetCounter("microspec_bee_verify_rejects_total")->Value();
  const uint64_t start_ns = telemetry::NowNs();
  // Warn mode: the install proceeds (non-null bee) but the rejection is
  // counted and traced instead of written to stderr.
  auto b = bee::TrySpecializePredicateChecked(*e, &arena, true, &meta,
                                              bee::VerifyMode::kWarn);
  EXPECT_NE(b, nullptr);
  EXPECT_EQ(reg.GetCounter("microspec_bee_verify_rejects_total")->Value(),
            before + 1);
  // The trace record is one background-lane span naming family and subject.
  std::vector<std::string> rejects;
  for (const trace::Span& s : testing::LaneSpansSince(start_ns)) {
    if (s.name.rfind("verify-rejected ", 0) == 0) rejects.push_back(s.name);
  }
  ASSERT_EQ(rejects.size(), 1u);
  EXPECT_EQ(rejects[0].rfind("verify-rejected evp: query:evp: ", 0), 0u)
      << rejects[0];
  // Enforce mode on the same predicate refuses the install and counts again.
  EXPECT_EQ(bee::TrySpecializePredicateChecked(*e, &arena, true, &meta,
                                               bee::VerifyMode::kEnforce),
            nullptr);
  EXPECT_EQ(reg.GetCounter("microspec_bee_verify_rejects_total")->Value(),
            before + 2);
}

}  // namespace
}  // namespace microspec
