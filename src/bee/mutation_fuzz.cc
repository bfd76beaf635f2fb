#include "bee/mutation_fuzz.h"

#include <deque>
#include <functional>
#include <memory>
#include <utility>

#include "bee/deform_program.h"
#include "bee/log_bee.h"
#include "bee/placement.h"
#include "bee/query_bee.h"
#include "bee/verifier.h"
#include "catalog/schema.h"
#include "common/datum.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "expr/expr.h"

namespace microspec::bee {

namespace {

/// A single-step mutation: a name (for escape diagnostics) plus the closure
/// that applies it to the round's working copy. Every candidate registered
/// below violates an invariant the verifier pins exactly against the
/// catalog, so "the verifier accepted it" is always a soundness bug.
struct Candidate {
  std::string name;
  std::function<void()> apply;
};

void Pick(Rng* rng, std::vector<Candidate>* cands, std::string* name) {
  Candidate& c = (*cands)[rng->Uniform(cands->size())];
  *name = c.name;
  c.apply();
}

void RecordOutcome(FuzzFamilyReport* rep, const Status& st,
                   const std::string& mutation, const std::string& subject) {
  ++rep->mutants;
  if (!st.ok()) {
    ++rep->rejected;
  } else if (rep->escapes.size() < 8) {
    rep->escapes.push_back(mutation + " on " + subject +
                           " was not rejected");
  }
}

void RecordBroken(FuzzFamilyReport* rep, const std::string& what) {
  // A baseline artifact the verifier already rejects (or a specializer that
  // returned null) means the harness itself is wrong; surface it as an
  // escape so undetected() flags it rather than silently shrinking coverage.
  ++rep->mutants;
  if (rep->escapes.size() < 8) rep->escapes.push_back(what);
}

/// Deterministic random relation: 2..7 columns over the full type system,
/// mixed NOT NULL, char(n) widths 1..12. Two attributes minimum so the
/// reorder mutations always apply.
Schema RandomSchema(Rng* rng) {
  static const TypeId kTypes[] = {TypeId::kBool,    TypeId::kInt32,
                                  TypeId::kInt64,   TypeId::kFloat64,
                                  TypeId::kDate,    TypeId::kChar,
                                  TypeId::kVarchar};
  int natts = static_cast<int>(rng->UniformRange(2, 7));
  std::vector<Column> cols;
  cols.reserve(static_cast<size_t>(natts));
  for (int i = 0; i < natts; ++i) {
    TypeId t = kTypes[rng->Uniform(7)];
    cols.emplace_back("c" + std::to_string(i), t, rng->Uniform(2) == 0,
                      t == TypeId::kChar
                          ? static_cast<int32_t>(rng->UniformRange(1, 12))
                          : 0);
  }
  return Schema(std::move(cols));
}

bool IsFixed(DeformOp op) {
  return static_cast<uint8_t>(op) <=
         static_cast<uint8_t>(DeformOp::kFixedVarlena);
}
bool IsDyn(DeformOp op) {
  return op != DeformOp::kSection && !IsFixed(op);
}

/// --- GCL: deform-program mutations ---------------------------------------

FuzzFamilyReport FuzzGcl(Rng* rng, int rounds) {
  FuzzFamilyReport rep;
  rep.family = "gcl";
  for (int round = 0; round < rounds; ++round) {
    Schema s = RandomSchema(rng);
    DeformProgram prog = DeformProgram::Compile(s, s, {});
    std::vector<DeformStep> steps = prog.steps();
    std::vector<DeformStep> nulls = prog.null_steps();
    if (!BeeVerifier::VerifyDeformSteps(steps, nulls, s, s, {}).ok()) {
      RecordBroken(&rep, "gcl baseline rejected");
      continue;
    }
    const size_t n = steps.size();
    std::vector<Candidate> cands;
    cands.push_back({"drop-step", [&] { steps.pop_back(); }});
    cands.push_back({"dup-step", [&] { steps.push_back(steps.back()); }});
    cands.push_back({"drop-null-step", [&] { nulls.pop_back(); }});
    size_t j = rng->Uniform(n);
    if (n >= 2) {
      size_t k = rng->Uniform(n - 1);
      cands.push_back(
          {"swap-steps", [&, k] { std::swap(steps[k], steps[k + 1]); }});
      cands.push_back({"out-rotate", [&, j] {
                         steps[j].out =
                             static_cast<uint16_t>((steps[j].out + 1) % n);
                       }});
      cands.push_back({"null-out-rotate", [&, j] {
                         nulls[j].out =
                             static_cast<uint16_t>((nulls[j].out + 1) % n);
                       }});
    }
    cands.push_back({"stored-out-of-range", [&, j] {
                       steps[j].stored = static_cast<uint16_t>(n + 3);
                     }});
    cands.push_back({"null-stored-drift",
                     [&, j] { nulls[j].stored += 1; }});
    cands.push_back(
        {"maybe-null-flip", [&, j] { steps[j].maybe_null ^= true; }});
    cands.push_back(
        {"null-maybe-null-flip", [&, j] { nulls[j].maybe_null ^= true; }});
    {
      uint8_t old = static_cast<uint8_t>(steps[j].op);
      uint8_t sub = static_cast<uint8_t>((old + 1 + rng->Uniform(10)) % 11);
      cands.push_back({"op-substitute", [&, j, sub] {
                         steps[j].op = static_cast<DeformOp>(sub);
                       }});
    }
    cands.push_back({"null-op-to-fixed", [&, j] {
                       nulls[j].op = static_cast<DeformOp>(
                           static_cast<uint8_t>(nulls[j].op) - 5);
                     }});
    for (size_t i = 0; i < n; ++i) {
      if (IsFixed(steps[i].op)) {
        uint32_t bump = 1 + static_cast<uint32_t>(rng->Uniform(8));
        cands.push_back(
            {"fixed-offset-drift", [&, i, bump] { steps[i].arg += bump; }});
        break;  // one representative per round keeps the pool balanced
      }
    }
    for (size_t i = 0; i < n; ++i) {
      if (IsDyn(steps[i].op)) {
        cands.push_back({"align-drift", [&, i] {
                           steps[i].align = steps[i].align == 1 ? 4 : 1;
                         }});
        break;
      }
    }
    for (size_t i = 0; i < n; ++i) {
      if (steps[i].op == DeformOp::kFixedChar ||
          steps[i].op == DeformOp::kDynChar) {
        cands.push_back({"char-len-bump", [&, i] { steps[i].len += 1; }});
        cands.push_back(
            {"null-char-len-bump", [&, i] { nulls[i].len += 1; }});
        break;
      }
    }
    cands.push_back({"null-align-drift", [&, j] {
                       nulls[j].align = nulls[j].align == 1 ? 4 : 1;
                     }});

    std::string mutation;
    Pick(rng, &cands, &mutation);
    Status st = BeeVerifier::VerifyDeformSteps(steps, nulls, s, s, {});
    RecordOutcome(&rep, st, mutation, "deform program");
  }
  return rep;
}

/// --- SCL: form-program mutations ------------------------------------------

FuzzFamilyReport FuzzScl(Rng* rng, int rounds) {
  FuzzFamilyReport rep;
  rep.family = "scl";
  for (int round = 0; round < rounds; ++round) {
    Schema s = RandomSchema(rng);
    FormProgram prog = FormProgram::Compile(s, s, {});
    std::vector<FormStep> steps = prog.steps();
    uint32_t hs = prog.header_size();
    uint32_t hsn = prog.header_size_nulls();
    if (!BeeVerifier::VerifyFormSteps(steps, hs, hsn, s, s, {}).ok()) {
      RecordBroken(&rep, "scl baseline rejected");
      continue;
    }
    const size_t n = steps.size();
    size_t j = rng->Uniform(n);
    std::vector<Candidate> cands;
    cands.push_back({"header-size-drift", [&] { hs += 8; }});
    cands.push_back({"null-header-size-drift", [&] { hsn += 8; }});
    cands.push_back({"drop-step", [&] { steps.pop_back(); }});
    cands.push_back({"dup-step", [&] { steps.push_back(steps.back()); }});
    if (n >= 2) {
      size_t k = rng->Uniform(n - 1);
      cands.push_back(
          {"swap-steps", [&, k] { std::swap(steps[k], steps[k + 1]); }});
      cands.push_back({"in-rotate", [&, j] {
                         steps[j].in =
                             static_cast<uint16_t>((steps[j].in + 1) % n);
                       }});
    }
    cands.push_back({"stored-drift", [&, j] { steps[j].stored += 1; }});
    {
      uint8_t old = static_cast<uint8_t>(steps[j].op);
      uint8_t sub = static_cast<uint8_t>((old + 1 + rng->Uniform(4)) % 5);
      cands.push_back({"op-substitute", [&, j, sub] {
                         steps[j].op = static_cast<FormOp>(sub);
                       }});
    }
    cands.push_back({"align-drift", [&, j] {
                       steps[j].align = steps[j].align == 1 ? 8 : 1;
                     }});
    cands.push_back(
        {"maybe-null-flip", [&, j] { steps[j].maybe_null ^= true; }});
    for (size_t i = 0; i < n; ++i) {
      if (steps[i].op == FormOp::kPutChar) {
        cands.push_back({"char-len-bump", [&, i] { steps[i].len += 1; }});
        break;
      }
    }

    std::string mutation;
    Pick(rng, &cands, &mutation);
    Status st = BeeVerifier::VerifyFormSteps(steps, hs, hsn, s, s, {});
    RecordOutcome(&rep, st, mutation, "form program");
  }
  return rep;
}

/// --- EVP corpus: predicates covering every kernel family ------------------

const std::vector<ColMeta>& EvpMeta() {
  static const std::vector<ColMeta> meta = {
      ColMeta::Of(TypeId::kInt32),   ColMeta::Of(TypeId::kInt64),
      ColMeta::Of(TypeId::kFloat64), ColMeta::Of(TypeId::kChar, 8),
      ColMeta::Of(TypeId::kVarchar), ColMeta::Of(TypeId::kDate)};
  return meta;
}

ExprPtr EvpCorpusExpr(size_t idx) {
  const std::vector<ColMeta>& m = EvpMeta();
  switch (idx % 6) {
    case 0:
      return And(ExprListOf(Cmp(CmpOp::kLt, Var(0, m[0]), ConstInt32(5)),
                            Cmp(CmpOp::kGt, Var(2, m[2]),
                                ConstFloat64(1.5))));
    case 1:
      return Cmp(CmpOp::kEq, Var(3, m[3]), ConstChar("abc", 8));
    case 2:
      return std::make_unique<LikeExpr>(Var(4, m[4]), "abc%");
    case 3:
      return std::make_unique<InListExpr>(
          Var(1, m[1]),
          std::vector<Datum>{DatumFromInt64(1), DatumFromInt64(2),
                             DatumFromInt64(3)},
          ColMeta::Of(TypeId::kInt64));
    case 4:
      return Cmp(CmpOp::kEq, Var(4, m[4]), ConstVarchar("hello"));
    default:
      return Between(Var(0, m[0]), ConstInt32(1), ConstInt32(9));
  }
}

bool CoordsDiffer(const EvpClauseInfo& a, const EvpClauseInfo& b) {
  if (a.kind != b.kind || a.cls != b.cls) return true;
  if (a.kind == EvpClauseKind::kCmp && a.op != b.op) return true;
  if (a.kind == EvpClauseKind::kLike &&
      (a.like_mode != b.like_mode || a.negated != b.negated)) {
    return true;
  }
  return false;
}

/// Alternate monomorphization coordinates for a clause: close enough to be a
/// plausible mis-selection, guaranteed to name a different registry kernel.
EvpClauseInfo AlternateInfo(const EvpClauseInfo& ci) {
  EvpClauseInfo alt = ci;
  switch (ci.kind) {
    case EvpClauseKind::kCmp:
      alt.op = static_cast<CmpOp>((static_cast<uint8_t>(ci.op) + 1) % 6);
      break;
    case EvpClauseKind::kLike:
      alt.negated = !ci.negated;
      break;
    case EvpClauseKind::kInList:
      alt.kind = EvpClauseKind::kCmp;
      alt.op = CmpOp::kEq;
      break;
  }
  return alt;
}

FuzzFamilyReport FuzzEvp(Rng* rng, int rounds) {
  FuzzFamilyReport rep;
  rep.family = "evp";
  for (int round = 0; round < rounds; ++round) {
    ExprPtr expr = EvpCorpusExpr(rng->Uniform(6));
    PlacementArena arena;
    std::unique_ptr<EvpBee> bee =
        TrySpecializePredicate(*expr, &arena, /*input_nullable=*/true);
    if (bee == nullptr) {
      RecordBroken(&rep, "evp specializer returned null for corpus expr");
      continue;
    }
    if (!BeeVerifier::VerifyEvp(*bee, *expr, &EvpMeta()).ok()) {
      RecordBroken(&rep, "evp baseline rejected");
      continue;
    }

    std::vector<EvpBee::Clause> cl = bee->clauses();
    std::vector<EvpClauseInfo> info = bee->clause_info();
    // Mutated contexts and byte buffers live here so their addresses stay
    // valid through verification; the original bee (and its arena) stays
    // alive for the unmutated clauses that still point into it.
    std::deque<EvpClause> ctx_store;
    std::deque<std::string> byte_store;
    auto own_ctx = [&](size_t j) -> EvpClause* {
      ctx_store.push_back(*cl[j].ctx);
      cl[j].ctx = &ctx_store.back();
      return &ctx_store.back();
    };

    std::vector<Candidate> cands;
    cands.push_back({"drop-clause", [&] {
                       cl.pop_back();
                       info.pop_back();
                     }});
    cands.push_back({"dup-clause", [&] {
                       cl.push_back(cl.back());
                       info.push_back(info.back());
                     }});
    if (cl.size() >= 2 && CoordsDiffer(info[0], info[1])) {
      cands.push_back({"swap-clauses", [&] {
                         std::swap(cl[0], cl[1]);
                         std::swap(info[0], info[1]);
                       }});
    }
    size_t j = rng->Uniform(cl.size());
    int bump = 1 + static_cast<int>(rng->Uniform(3));
    cands.push_back(
        {"attno-drift", [&, j, bump] { own_ctx(j)->attno += bump; }});
    cands.push_back(
        {"null-guard-drop", [&, j] { own_ctx(j)->nullable = false; }});
    cands.push_back(
        {"charlen-bump", [&, j] { own_ctx(j)->charlen += 1; }});
    {
      EvpClauseInfo alt = AlternateInfo(info[j]);
      EvpKernelFn nf = EvpKernelFor(alt);
      EvpColKernelFn nc = EvpColKernelFor(alt);
      if (nf != nullptr && nf != cl[j].fn) {
        cands.push_back({"row-kernel-swap", [&, j, nf] { cl[j].fn = nf; }});
      }
      if (nc != nullptr && nc != cl[j].col_fn) {
        cands.push_back(
            {"batch-kernel-drift", [&, j, nc] { cl[j].col_fn = nc; }});
      }
      cands.push_back(
          {"coordinate-drift", [&, j, alt] { info[j] = alt; }});
    }
    switch (info[j].kind) {
      case EvpClauseKind::kCmp:
        if (info[j].cls == KernelClass::kInt ||
            info[j].cls == KernelClass::kFloat) {
          cands.push_back(
              {"constant-drift", [&, j] { own_ctx(j)->constant += 1; }});
        } else if (info[j].cls == KernelClass::kVarchar) {
          cands.push_back({"constant-byte-flip", [&, j] {
                             const char* p =
                                 DatumToPointer(cl[j].ctx->constant);
                             byte_store.emplace_back(p, VarlenaSize(p));
                             std::string& s = byte_store.back();
                             s[kVarlenaHeaderSize] =
                                 static_cast<char>(s[kVarlenaHeaderSize] ^
                                                   0x5A);
                             own_ctx(j)->constant =
                                 DatumFromPointer(s.data());
                           }});
        } else {  // kChar: blank-padded bytes of width charlen
          cands.push_back({"constant-byte-flip", [&, j] {
                             const char* p =
                                 DatumToPointer(cl[j].ctx->constant);
                             byte_store.emplace_back(
                                 p, static_cast<size_t>(
                                        cl[j].ctx->charlen));
                             std::string& s = byte_store.back();
                             s[0] = static_cast<char>(s[0] ^ 0x5A);
                             own_ctx(j)->constant =
                                 DatumFromPointer(s.data());
                           }});
        }
        break;
      case EvpClauseKind::kLike:
        cands.push_back({"needle-byte-flip", [&, j] {
                           byte_store.emplace_back(cl[j].ctx->aux,
                                                   cl[j].ctx->aux_len);
                           std::string& s = byte_store.back();
                           s[0] = static_cast<char>(s[0] ^ 0x5A);
                           own_ctx(j)->aux = s.data();
                         }});
        cands.push_back(
            {"needle-truncate", [&, j] { own_ctx(j)->aux_len -= 1; }});
        break;
      case EvpClauseKind::kInList:
        cands.push_back(
            {"inlist-count-drift", [&, j] { own_ctx(j)->aux_len += 1; }});
        cands.push_back({"inlist-byte-flip", [&, j] {
                           size_t bytes = cl[j].ctx->aux_len *
                                          sizeof(int64_t);
                           byte_store.emplace_back(cl[j].ctx->aux, bytes);
                           std::string& s = byte_store.back();
                           s[0] = static_cast<char>(s[0] ^ 0x5A);
                           own_ctx(j)->aux = s.data();
                         }});
        break;
    }

    std::string mutation;
    Pick(rng, &cands, &mutation);
    EvpBee mutant(std::move(cl), std::move(info), {});
    Status st = BeeVerifier::VerifyEvp(mutant, *expr, &EvpMeta());
    RecordOutcome(&rep, st, mutation, "evp bee");
  }
  return rep;
}

/// --- EVJ: join-key mutations ----------------------------------------------

FuzzFamilyReport FuzzEvj(Rng* rng, int rounds) {
  FuzzFamilyReport rep;
  rep.family = "evj";
  for (int round = 0; round < rounds; ++round) {
    std::vector<int> outer_cols;
    std::vector<int> inner_cols;
    std::vector<ColMeta> key_meta;
    int ow;
    int iw;
    if (rng->Uniform(2) == 0) {
      outer_cols = {0, 2};
      inner_cols = {1, 0};
      key_meta = {ColMeta::Of(TypeId::kInt64), ColMeta::Of(TypeId::kChar, 6)};
      ow = 4;
      iw = 3;
    } else {
      outer_cols = {1};
      inner_cols = {2};
      key_meta = {ColMeta::Of(TypeId::kVarchar)};
      ow = 3;
      iw = 4;
    }
    PlacementArena arena;
    std::unique_ptr<EvjBee> bee =
        TrySpecializeJoinKeys(outer_cols, inner_cols, key_meta, &arena);
    if (bee == nullptr) {
      RecordBroken(&rep, "evj specializer returned null");
      continue;
    }
    if (!BeeVerifier::VerifyEvj(*bee, outer_cols, inner_cols, key_meta, ow,
                                iw)
             .ok()) {
      RecordBroken(&rep, "evj baseline rejected");
      continue;
    }

    std::vector<EvjBee::Key> keys = bee->keys();
    std::deque<EvjKey> ctx_store;
    auto own_ctx = [&](size_t j) -> EvjKey* {
      ctx_store.push_back(*keys[j].ctx);
      keys[j].ctx = &ctx_store.back();
      return &ctx_store.back();
    };

    std::vector<Candidate> cands;
    cands.push_back({"drop-key", [&] { keys.pop_back(); }});
    if (keys.size() >= 2) {
      cands.push_back({"swap-keys", [&] { std::swap(keys[0], keys[1]); }});
    }
    size_t j = rng->Uniform(keys.size());
    cands.push_back({"outer-att-out-of-range",
                     [&, j] { own_ctx(j)->outer_att = ow + 2; }});
    cands.push_back({"outer-att-drift", [&, j] {
                       own_ctx(j)->outer_att =
                           (outer_cols[j] + 1) % ow;
                     }});
    cands.push_back({"inner-att-out-of-range",
                     [&, j] { own_ctx(j)->inner_att = iw + 2; }});
    cands.push_back({"inner-att-drift", [&, j] {
                       own_ctx(j)->inner_att =
                           (inner_cols[j] + 1) % iw;
                     }});
    cands.push_back({"charlen-bump", [&, j] { own_ctx(j)->charlen += 1; }});
    {
      static const KernelClass kAll[] = {KernelClass::kInt,
                                         KernelClass::kFloat,
                                         KernelClass::kChar,
                                         KernelClass::kVarchar};
      for (KernelClass cls : kAll) {
        if (EvjHashKernelFor(cls) != keys[j].hash) {
          EvjHashFn nf = EvjHashKernelFor(cls);
          cands.push_back(
              {"hash-kernel-swap", [&, j, nf] { keys[j].hash = nf; }});
          break;
        }
      }
      for (KernelClass cls : kAll) {
        if (EvjEqualKernelFor(cls) != keys[j].equal) {
          EvjEqualFn nf = EvjEqualKernelFor(cls);
          cands.push_back(
              {"equal-kernel-swap", [&, j, nf] { keys[j].equal = nf; }});
          break;
        }
      }
    }

    std::string mutation;
    Pick(rng, &cands, &mutation);
    EvjBee mutant(std::move(keys));
    Status st = BeeVerifier::VerifyEvj(mutant, outer_cols, inner_cols,
                                       key_meta, ow, iw);
    RecordOutcome(&rep, st, mutation, "evj bee");
  }
  return rep;
}

/// --- Log bees: program-tier applier mutations -----------------------------

/// Splits a random logical schema into a (logical, stored, spec_cols)
/// triple; every fourth round specializes column 0 into a data section so
/// the beeID-flag expectation exercises both values.
void LogBeeConfig(Rng* rng, int round, Schema* logical, Schema* stored,
                  std::vector<int>* spec_cols) {
  *logical = RandomSchema(rng);
  spec_cols->clear();
  if (round % 4 == 0) {
    *spec_cols = {0};
    std::vector<Column> rest;
    for (int i = 1; i < logical->natts(); ++i) {
      rest.push_back(logical->column(i));
    }
    *stored = Schema(std::move(rest));
  } else {
    *stored = *logical;
  }
}

FuzzFamilyReport FuzzLogApplier(Rng* rng, int rounds) {
  FuzzFamilyReport rep;
  rep.family = "logapp";
  for (int round = 0; round < rounds; ++round) {
    Schema logical, stored;
    std::vector<int> spec_cols;
    LogBeeConfig(rng, round, &logical, &stored, &spec_cols);
    LogApplierProgram prog =
        LogApplierProgram::Compile(stored, !spec_cols.empty());
    std::vector<LogStep> steps = prog.steps();
    if (!BeeVerifier::VerifyLogApplier(steps, logical, stored, spec_cols)
             .ok()) {
      RecordBroken(&rep, "logapp baseline rejected");
      continue;
    }

    const size_t n = steps.size();
    std::vector<Candidate> cands;
    size_t j = rng->Uniform(n);
    cands.push_back(
        {"drop-step", [&, j] { steps.erase(steps.begin() +
                                           static_cast<ptrdiff_t>(j)); }});
    cands.push_back({"dup-step", [&, j] { steps.push_back(steps[j]); }});
    if (n >= 2) {
      size_t k = rng->Uniform(n - 1);
      cands.push_back(
          {"swap-steps", [&, k] { std::swap(steps[k], steps[k + 1]); }});
    }
    uint8_t sub = static_cast<uint8_t>(rng->Uniform(5));
    cands.push_back({"op-substitute", [&, j, sub] {
                       steps[j].op = static_cast<LogStepOp>(
                           (static_cast<uint8_t>(steps[j].op) + 1 + sub) % 6);
                     }});
    for (size_t i = 0; i < n; ++i) {
      switch (steps[i].op) {
        case LogStepOp::kCheckNatts:
          cands.push_back({"natts-drift", [&, i] { steps[i].arg += 1; }});
          break;
        case LogStepOp::kCheckBeeFlag:
          cands.push_back({"bee-flag-flip", [&, i] { steps[i].arg ^= 1u; }});
          break;
        case LogStepOp::kCheckHoff:
          cands.push_back({"hoff-drift", [&, i] { steps[i].arg += 8; }});
          cands.push_back({"hoff-nulls-drift", [&, i] { steps[i].arg2 += 8; }});
          break;
        case LogStepOp::kCheckLen:
          cands.push_back({"len-min-drift", [&, i] { steps[i].arg += 1; }});
          cands.push_back({"len-max-drift", [&, i] { steps[i].arg2 += 8; }});
          break;
        case LogStepOp::kApply:
          break;
      }
    }

    std::string mutation;
    Pick(rng, &cands, &mutation);
    Status st =
        BeeVerifier::VerifyLogApplier(steps, logical, stored, spec_cols);
    RecordOutcome(&rep, st, mutation, "log applier program");
  }
  return rep;
}

}  // namespace

int FuzzReport::mutants() const {
  int n = 0;
  for (const FuzzFamilyReport& f : families) n += f.mutants;
  return n;
}

int FuzzReport::rejected() const {
  int n = 0;
  for (const FuzzFamilyReport& f : families) n += f.rejected;
  return n;
}

int FuzzReport::undetected() const { return mutants() - rejected(); }

std::string FuzzReport::ToString() const {
  telemetry::TextTable t;
  t.Header({"family", "mutants", "rejected", "escaped"});
  for (const FuzzFamilyReport& f : families) {
    t.Row({f.family, std::to_string(f.mutants), std::to_string(f.rejected),
           std::to_string(f.mutants - f.rejected)});
  }
  std::string out = t.ToString();
  for (const FuzzFamilyReport& f : families) {
    for (const std::string& e : f.escapes) {
      out += "ESCAPE [" + f.family + "] " + e + "\n";
    }
  }
  out += "total: " + std::to_string(mutants()) + " mutants, " +
         std::to_string(rejected()) + " rejected, " +
         std::to_string(undetected()) + " undetected\n";
  return out;
}

FuzzReport RunMutationFuzz(uint64_t seed, int mutants_per_family) {
  Rng rng(seed);
  FuzzReport rep;
  rep.families.push_back(FuzzGcl(&rng, mutants_per_family));
  rep.families.push_back(FuzzScl(&rng, mutants_per_family));
  rep.families.push_back(FuzzEvp(&rng, mutants_per_family));
  rep.families.push_back(FuzzEvj(&rng, mutants_per_family));
  rep.families.push_back(FuzzLogApplier(&rng, mutants_per_family));
  return rep;
}

}  // namespace microspec::bee
