#include "bee/verifier.h"

#include <cstdint>

#include "common/align.h"
#include "common/telemetry.h"
#include "common/tracing.h"
#include "storage/page.h"
#include "storage/tuple.h"

namespace microspec::bee {

const char* VerifyModeName(VerifyMode mode) {
  switch (mode) {
    case VerifyMode::kOff:
      return "off";
    case VerifyMode::kWarn:
      return "warn";
    case VerifyMode::kEnforce:
      return "enforce";
  }
  return "?";
}

namespace {

Status Reject(size_t step, const std::string& what) {
  return Status::InvalidArgument("bee verifier: step " + std::to_string(step) +
                                 ": " + what);
}

/// What the layout model expects for one column: the canonical ops and how
/// far the fixed cursor advances past the value.
struct ColOps {
  DeformOp fixed_op;
  DeformOp dyn_op;
  FormOp form_op;
  uint32_t advance;    // fixed-cursor advance; 0 for varlena (value-dependent)
  bool is_varlena;
  bool is_char;
};

ColOps OpsFor(const Column& c) {
  ColOps ops{};
  if (c.byval()) {
    switch (c.attlen()) {
      case 1:
        ops = {DeformOp::kFixed1, DeformOp::kDyn1, FormOp::kPut1, 1, false,
               false};
        break;
      case 4:
        ops = {DeformOp::kFixed4, DeformOp::kDyn4, FormOp::kPut4, 4, false,
               false};
        break;
      default:
        ops = {DeformOp::kFixed8, DeformOp::kDyn8, FormOp::kPut8, 8, false,
               false};
        break;
    }
  } else if (c.attlen() == kVariableLength) {
    ops = {DeformOp::kFixedVarlena, DeformOp::kDynVarlena, FormOp::kPutVarlena,
           0, true, false};
  } else {
    ops = {DeformOp::kFixedChar, DeformOp::kDynChar, FormOp::kPutChar,
           static_cast<uint32_t>(c.attlen()), false, true};
  }
  return ops;
}

bool IsFixedOp(DeformOp op) {
  return static_cast<uint8_t>(op) <= static_cast<uint8_t>(DeformOp::kFixedVarlena);
}

/// Validates spec_cols and builds logical-attno -> section-slot and
/// logical-attno -> stored-ordinal maps, cross-checking that the stored
/// schema really is the logical schema minus the specialized columns.
Status BuildMaps(const Schema& logical, const Schema& stored,
                 const std::vector<int>& spec_cols, std::vector<int>* to_slot,
                 std::vector<int>* to_stored) {
  to_slot->assign(static_cast<size_t>(logical.natts()), -1);
  to_stored->assign(static_cast<size_t>(logical.natts()), -1);
  for (size_t s = 0; s < spec_cols.size(); ++s) {
    int c = spec_cols[s];
    if (c < 0 || c >= logical.natts()) {
      return Status::InvalidArgument(
          "bee verifier: specialized column " + std::to_string(c) +
          " outside the logical schema");
    }
    if ((*to_slot)[static_cast<size_t>(c)] >= 0) {
      return Status::InvalidArgument("bee verifier: specialized column " +
                                     std::to_string(c) + " listed twice");
    }
    (*to_slot)[static_cast<size_t>(c)] = static_cast<int>(s);
  }
  int stored_idx = 0;
  for (int i = 0; i < logical.natts(); ++i) {
    if ((*to_slot)[static_cast<size_t>(i)] >= 0) continue;
    if (stored_idx >= stored.natts()) {
      return Status::InvalidArgument(
          "bee verifier: stored schema is missing attributes of the logical "
          "schema");
    }
    const Column& lc = logical.column(i);
    const Column& sc = stored.column(stored_idx);
    if (lc.attlen() != sc.attlen() || lc.attalign() != sc.attalign() ||
        lc.byval() != sc.byval() || lc.not_null() != sc.not_null()) {
      return Status::InvalidArgument(
          "bee verifier: stored column " + std::to_string(stored_idx) +
          " physically disagrees with logical column " + std::to_string(i));
    }
    (*to_stored)[static_cast<size_t>(i)] = stored_idx++;
  }
  if (stored_idx != stored.natts()) {
    return Status::InvalidArgument(
        "bee verifier: stored schema has extra attributes not present in the "
        "logical schema");
  }
  return Status::OK();
}

}  // namespace

Status BeeVerifier::VerifyDeformSteps(const std::vector<DeformStep>& steps,
                                      const std::vector<DeformStep>& null_steps,
                                      const Schema& logical,
                                      const Schema& stored,
                                      const std::vector<int>& spec_cols) {
  std::vector<int> to_slot;
  std::vector<int> to_stored;
  MICROSPEC_RETURN_NOT_OK(
      BuildMaps(logical, stored, spec_cols, &to_slot, &to_stored));
  const int natts = logical.natts();

  if (steps.size() != static_cast<size_t>(natts)) {
    return Status::InvalidArgument(
        "bee verifier: program has " + std::to_string(steps.size()) +
        " steps for " + std::to_string(natts) +
        " logical attributes (attribute covered zero times or twice)");
  }

  // --- Fast path: replay every step through the cursor state machine. ------
  bool fixed_mode = true;
  uint32_t off = 0;
  for (size_t k = 0; k < steps.size(); ++k) {
    const DeformStep& st = steps[k];
    if (st.out >= natts) {
      return Reject(k, "out index " + std::to_string(st.out) +
                           " outside the logical schema");
    }
    if (st.out != static_cast<uint16_t>(k)) {
      return Reject(k, "covers attribute " + std::to_string(st.out) +
                           " out of order (duplicate or missing coverage; the "
                           "partial-deform early-out requires ascending out)");
    }
    const int slot = to_slot[k];
    if (st.op == DeformOp::kSection) {
      if (slot < 0) {
        return Reject(k, "section load for a non-specialized attribute");
      }
      if (st.arg >= spec_cols.size()) {
        return Reject(k, "section slot " + std::to_string(st.arg) +
                             " out of range");
      }
      if (st.arg != static_cast<uint32_t>(slot)) {
        return Reject(k, "wrong section slot (got " + std::to_string(st.arg) +
                             ", layout says " + std::to_string(slot) + ")");
      }
      continue;  // specialized columns occupy no tuple storage
    }
    if (slot >= 0) {
      return Reject(k, "specialized attribute must be a section load");
    }
    if (st.stored >= stored.natts()) {
      return Reject(k, "stored ordinal " + std::to_string(st.stored) +
                           " outside the stored schema");
    }
    if (st.stored != static_cast<uint16_t>(to_stored[k])) {
      return Reject(k, "wrong stored ordinal (bitmap position) for logical "
                       "attribute " +
                           std::to_string(k));
    }
    const Column& c = logical.column(static_cast<int>(k));
    const ColOps ops = OpsFor(c);
    const uint32_t align = static_cast<uint32_t>(c.attalign());
    if (st.maybe_null != !c.not_null()) {
      return Reject(k, c.not_null()
                           ? "maybe_null set on a NOT NULL attribute"
                           : "nullable stored attribute missing maybe_null");
    }
    if (IsFixedOp(st.op)) {
      if (!fixed_mode) {
        return Reject(k,
                      "fixed-mode step after the first variable-length "
                      "attribute (offset is no longer a constant)");
      }
      if (st.op != ops.fixed_op) {
        return Reject(k, "op does not match the column's physical type");
      }
      const uint32_t want = AlignUp32(off, align);
      if (st.arg % align != 0) {
        return Reject(k, "misaligned fixed offset " + std::to_string(st.arg) +
                             " (attalign " + std::to_string(align) + ")");
      }
      if (st.arg != want) {
        return Reject(k, "fixed offset " + std::to_string(st.arg) +
                             " disagrees with the cursor model (expected " +
                             std::to_string(want) +
                             "; non-monotonic or overlapping layout)");
      }
      if (ops.is_char && st.len != ops.advance) {
        return Reject(k, "char(n) length mismatch");
      }
      if (ops.is_varlena) {
        fixed_mode = false;  // later offsets depend on this value's length
      } else {
        off = want + ops.advance;
      }
    } else {
      if (fixed_mode) {
        return Reject(k,
                      "dynamic step while the layout prefix is still fixed "
                      "(the executor's dynamic cursor would be stale)");
      }
      if (st.op != ops.dyn_op) {
        return Reject(k, "op does not match the column's physical type");
      }
      if (st.align != align) {
        return Reject(k, "alignment " + std::to_string(st.align) +
                             " disagrees with catalog attalign " +
                             std::to_string(align));
      }
      if (ops.is_char && st.len != ops.advance) {
        return Reject(k, "char(n) length mismatch");
      }
    }
  }

  // --- Null-aware variant: all-dynamic, and shape-identical to the fast
  // path (same attribute order, same section slots, same widths). ----------
  if (null_steps.size() != steps.size()) {
    return Status::InvalidArgument(
        "bee verifier: fast path and null-aware variant disagree on step "
        "count (" +
        std::to_string(steps.size()) + " vs " +
        std::to_string(null_steps.size()) + ")");
  }
  for (size_t k = 0; k < null_steps.size(); ++k) {
    const DeformStep& ns = null_steps[k];
    const DeformStep& fast = steps[k];
    if (ns.out != fast.out) {
      return Reject(k, "null-aware variant deforms a different attribute "
                       "than the fast path");
    }
    if (fast.op == DeformOp::kSection) {
      if (ns.op != DeformOp::kSection || ns.arg != fast.arg) {
        return Reject(k, "null-aware variant disagrees with the fast path "
                         "on a section load");
      }
      continue;
    }
    if (ns.op == DeformOp::kSection) {
      return Reject(k, "null-aware variant treats a stored attribute as "
                       "specialized");
    }
    if (IsFixedOp(ns.op)) {
      return Reject(k,
                    "fixed-mode op in the null-aware variant (a NULL earlier "
                    "in the tuple shifts every later offset)");
    }
    if (ns.stored != fast.stored) {
      return Reject(k, "null-aware variant disagrees with the fast path on "
                       "the stored ordinal");
    }
    const Column& c = logical.column(static_cast<int>(k));
    const ColOps ops = OpsFor(c);
    if (ns.op != ops.dyn_op) {
      return Reject(k, "null-aware variant op disagrees with the fast path's "
                       "value width");
    }
    if (ns.align != static_cast<uint32_t>(c.attalign())) {
      return Reject(k, "null-aware variant alignment disagrees with catalog "
                       "attalign");
    }
    if (ops.is_char && ns.len != ops.advance) {
      return Reject(k, "null-aware variant char(n) length mismatch");
    }
    const Column& sc = stored.column(ns.stored);
    if (!sc.not_null() && !ns.maybe_null) {
      return Reject(k,
                    "nullable stored attribute missing maybe_null (the "
                    "bitmap would never be tested and garbage read)");
    }
    if (sc.not_null() && ns.maybe_null) {
      return Reject(k, "maybe_null set on a NOT NULL stored attribute");
    }
  }
  return Status::OK();
}

Status BeeVerifier::VerifyDeform(const DeformProgram& program,
                                 const Schema& logical, const Schema& stored,
                                 const std::vector<int>& spec_cols) {
  Status st = VerifyDeformSteps(program.steps(), program.null_steps(), logical,
                                stored, spec_cols);
  if (st.ok()) return st;
  return Status(st.code(), st.message() + "\nprogram disassembly:\n" +
                               program.ToString());
}

Status BeeVerifier::VerifyFormSteps(const std::vector<FormStep>& steps,
                                    uint32_t header_size,
                                    uint32_t header_size_nulls,
                                    const Schema& logical, const Schema& stored,
                                    const std::vector<int>& spec_cols) {
  std::vector<int> to_slot;
  std::vector<int> to_stored;
  MICROSPEC_RETURN_NOT_OK(
      BuildMaps(logical, stored, spec_cols, &to_slot, &to_stored));

  if (header_size != TupleHeaderSize(stored.natts(), /*has_nulls=*/false)) {
    return Status::InvalidArgument(
        "bee verifier: form header size disagrees with the tuple layout");
  }
  if (header_size_nulls !=
      TupleHeaderSize(stored.natts(), /*has_nulls=*/true)) {
    return Status::InvalidArgument(
        "bee verifier: form null-bitmap header size disagrees with the tuple "
        "layout");
  }
  if (steps.size() != static_cast<size_t>(stored.natts())) {
    return Status::InvalidArgument(
        "bee verifier: form program has " + std::to_string(steps.size()) +
        " steps for " + std::to_string(stored.natts()) +
        " stored attributes (attribute covered zero times or twice)");
  }
  size_t k = 0;
  for (int i = 0; i < logical.natts(); ++i) {
    if (to_slot[static_cast<size_t>(i)] >= 0) continue;  // lives in a section
    const FormStep& st = steps[k];
    if (st.in >= logical.natts()) {
      return Reject(k, "in index " + std::to_string(st.in) +
                           " outside the logical schema");
    }
    if (st.in != static_cast<uint16_t>(i)) {
      return Reject(k, "form step takes its value from attribute " +
                           std::to_string(st.in) + ", layout says " +
                           std::to_string(i));
    }
    if (st.stored != static_cast<uint16_t>(to_stored[static_cast<size_t>(i)])) {
      return Reject(k, "wrong stored ordinal (bitmap position)");
    }
    const Column& c = logical.column(i);
    const ColOps ops = OpsFor(c);
    if (st.op != ops.form_op) {
      return Reject(k, "op does not match the column's physical type");
    }
    if (st.align != static_cast<uint32_t>(c.attalign())) {
      return Reject(k, "alignment disagrees with catalog attalign");
    }
    if (ops.is_char && st.len != ops.advance) {
      return Reject(k, "char(n) length mismatch");
    }
    if (st.maybe_null != !c.not_null()) {
      return Reject(k, c.not_null()
                           ? "maybe_null set on a NOT NULL attribute"
                           : "nullable attribute missing maybe_null (a NULL "
                             "value's garbage pointer would be stored)");
    }
    ++k;
  }
  return Status::OK();
}

Status BeeVerifier::VerifyForm(const FormProgram& program,
                               const Schema& logical, const Schema& stored,
                               const std::vector<int>& spec_cols) {
  return VerifyFormSteps(program.steps(), program.header_size(),
                         program.header_size_nulls(), logical, stored,
                         spec_cols);
}

/// --- Log-bee verification ---------------------------------------------------

namespace {

/// The constants a correct log applier must carry, re-derived from the
/// stored schema by the verifier's own layout walk. Deliberately a separate
/// code path from ComputeLogLenBounds: sharing the compiler's derivation
/// would let one bug pass both sides.
struct LogLayout {
  uint32_t natts;
  uint32_t bee_flag;  // 1 if images must carry kTupleHasBeeId
  uint32_t hoff;      // header size without a null bitmap
  uint32_t hoffn;     // header size with a null bitmap
  uint32_t min_len;
  uint32_t max_len;
};

LogLayout DeriveLogLayout(const Schema& stored,
                          const std::vector<int>& spec_cols) {
  LogLayout l{};
  l.natts = static_cast<uint32_t>(stored.natts());
  l.bee_flag = spec_cols.empty() ? 0u : 1u;
  l.hoff = TupleHeaderSize(stored.natts(), /*has_nulls=*/false);
  l.hoffn = TupleHeaderSize(stored.natts(), /*has_nulls=*/true);
  bool fixed = true;
  uint32_t data = 0;
  for (int i = 0; i < stored.natts(); ++i) {
    const Column& c = stored.column(i);
    if (c.attlen() == kVariableLength) {
      fixed = false;
      break;
    }
    data = AlignUp32(data, static_cast<uint32_t>(c.attalign())) +
           static_cast<uint32_t>(c.attlen());
  }
  const uint32_t slot_cap = kPageSize - kPageHeaderSize - kPageSlotSize;
  if (fixed && !stored.has_nullable()) {
    l.min_len = l.hoff + data;
    l.max_len = l.min_len;
  } else if (fixed) {
    l.min_len = l.hoffn < l.hoff + data ? l.hoffn : l.hoff + data;
    const uint32_t hi = l.hoffn + data;
    l.max_len = hi > l.hoff + data ? hi : l.hoff + data;
  } else {
    l.min_len = l.hoff;
    l.max_len = slot_cap;
  }
  return l;
}

Status LogReject(size_t step, const std::string& what) {
  return Status::InvalidArgument("log-bee verifier: step " +
                                 std::to_string(step) + ": " + what);
}

}  // namespace

Status BeeVerifier::VerifyLogApplier(const std::vector<LogStep>& steps,
                                     const Schema& logical,
                                     const Schema& stored,
                                     const std::vector<int>& spec_cols) {
  if (stored.natts() + static_cast<int>(spec_cols.size()) != logical.natts()) {
    return Status::InvalidArgument(
        "log-bee verifier: stored schema width " +
        std::to_string(stored.natts()) + " + " +
        std::to_string(spec_cols.size()) + " specialized columns != logical " +
        std::to_string(logical.natts()));
  }
  const LogLayout l = DeriveLogLayout(stored, spec_cols);
  // Each check family must appear exactly once, in canonical (enum) order,
  // all of them before the one kApply step, which must be last — a
  // duplicated apply would mutate the page twice per record, a reordered
  // program is not the compiler's output and is rejected wholesale rather
  // than reasoned about.
  bool seen[5] = {false, false, false, false, false};
  int last = -1;
  for (size_t i = 0; i < steps.size(); ++i) {
    const LogStep& s = steps[i];
    const size_t idx = static_cast<size_t>(s.op);
    if (idx >= 5) {
      return LogReject(i, "unknown step op " + std::to_string(idx));
    }
    if (seen[idx]) {
      return LogReject(i, "duplicate step family");
    }
    if (static_cast<int>(idx) < last) {
      return LogReject(i, "step family out of canonical order");
    }
    last = static_cast<int>(idx);
    seen[idx] = true;
    switch (s.op) {
      case LogStepOp::kCheckNatts:
        if (s.arg != l.natts) {
          return LogReject(i, "natts " + std::to_string(s.arg) + " != " +
                                  std::to_string(l.natts));
        }
        break;
      case LogStepOp::kCheckBeeFlag:
        if (s.arg != l.bee_flag) {
          return LogReject(i, "beeID-flag expectation " +
                                  std::to_string(s.arg) + " != " +
                                  std::to_string(l.bee_flag));
        }
        break;
      case LogStepOp::kCheckHoff:
        if (s.arg != l.hoff || s.arg2 != l.hoffn) {
          return LogReject(i, "header offsets (" + std::to_string(s.arg) +
                                  "," + std::to_string(s.arg2) + ") != (" +
                                  std::to_string(l.hoff) + "," +
                                  std::to_string(l.hoffn) + ")");
        }
        break;
      case LogStepOp::kCheckLen:
        if (s.arg != l.min_len || s.arg2 != l.max_len) {
          return LogReject(i, "length bounds [" + std::to_string(s.arg) +
                                  "," + std::to_string(s.arg2) + "] != [" +
                                  std::to_string(l.min_len) + "," +
                                  std::to_string(l.max_len) + "]");
        }
        break;
      case LogStepOp::kApply:
        if (i + 1 != steps.size()) {
          return LogReject(i, "apply step must be last");
        }
        break;
    }
  }
  static const char* kFamily[5] = {"check_natts", "check_bee_flag",
                                   "check_hoff", "check_len", "apply"};
  for (size_t f = 0; f < 5; ++f) {
    if (!seen[f]) {
      return LogReject(steps.size(),
                       std::string("missing step family ") + kFamily[f]);
    }
  }
  return Status::OK();
}

/// --- Query-bee verification --------------------------------------------------

namespace {

Status EvpReject(size_t clause, const std::string& what) {
  return Status::InvalidArgument("bee verifier: evp clause " +
                                 std::to_string(clause) + ": " + what);
}

Status EvjReject(size_t key, const std::string& what) {
  return Status::InvalidArgument("bee verifier: evj key " +
                                 std::to_string(key) + ": " + what);
}

CmpOp FlipCmpOp(CmpOp op) {
  switch (op) {
    case CmpOp::kLt:
      return CmpOp::kGt;
    case CmpOp::kLe:
      return CmpOp::kGe;
    case CmpOp::kGt:
      return CmpOp::kLt;
    case CmpOp::kGe:
      return CmpOp::kLe;
    default:
      return op;
  }
}

/// What a correctly lowered clause must contain, re-derived from one
/// conjunct independently of the specializer (the verifier's own mirror of
/// the lowering rules: operand swap, char(n) blank-padding, IN-list
/// encoding).
struct ExpectedClause {
  EvpClauseInfo info;
  int32_t attno = 0;
  int32_t charlen = 0;
  bool has_datum_const = false;  // int/float constant, compared as a datum
  Datum datum_const = 0;
  bool is_varchar_const = false;  // bytes_const compared as varlena payload
  std::string bytes_const;        // varchar payload / padded char(n) bytes
  std::string aux;                // LIKE needle / encoded IN-list storage
  uint32_t aux_len = 0;           // needle length / item count
};

Status ExpectClause(const Expr& e, size_t idx, ExpectedClause* out) {
  if (e.kind() == ExprKind::kCmp) {
    const auto& cmp = static_cast<const CmpExpr&>(e);
    const Expr* var = cmp.lhs();
    const Expr* cst = cmp.rhs();
    CmpOp op = cmp.op();
    if (var->kind() == ExprKind::kConst && cst->kind() == ExprKind::kVar) {
      std::swap(var, cst);
      op = FlipCmpOp(op);
    }
    if (var->kind() != ExprKind::kVar || cst->kind() != ExprKind::kConst) {
      return EvpReject(idx, "conjunct is not a var-vs-constant comparison");
    }
    const auto& v = static_cast<const VarExpr&>(*var);
    const auto& k = static_cast<const ConstExpr&>(*cst);
    if (v.side() != RowSide::kOuter || k.is_null_const()) {
      return EvpReject(idx, "conjunct is not specializable");
    }
    ColMeta vm = v.meta();
    KernelClass cls = EvpKernelClassOf(vm.type);
    out->info.kind = EvpClauseKind::kCmp;
    out->info.cls = cls;
    out->info.op = op;
    out->attno = v.attno();
    out->charlen = vm.attlen;
    ColMeta km = k.meta();
    if (cls == KernelClass::kInt || cls == KernelClass::kFloat) {
      if (EvpKernelClassOf(km.type) != cls) {
        return EvpReject(idx, "constant class disagrees with the column");
      }
      out->has_datum_const = true;
      out->datum_const = k.value();
    } else if (cls == KernelClass::kVarchar) {
      if (km.type != TypeId::kVarchar) {
        return EvpReject(idx, "constant class disagrees with the column");
      }
      const char* p = DatumToPointer(k.value());
      out->bytes_const.assign(VarlenaPayload(p), VarlenaPayloadSize(p));
      out->is_varchar_const = true;
    } else {  // kChar: the constant must be blank-padded to the column width
      if (km.type == TypeId::kVarchar) {
        const char* p = DatumToPointer(k.value());
        out->bytes_const.assign(VarlenaPayload(p), VarlenaPayloadSize(p));
      } else if (km.type == TypeId::kChar) {
        out->bytes_const.assign(DatumToPointer(k.value()),
                                static_cast<size_t>(km.attlen));
      } else {
        return EvpReject(idx, "constant class disagrees with the column");
      }
      out->bytes_const.resize(static_cast<size_t>(vm.attlen), ' ');
    }
    return Status::OK();
  }

  if (e.kind() == ExprKind::kLike) {
    const auto& like = static_cast<const LikeExpr&>(e);
    if (like.input()->kind() != ExprKind::kVar) {
      return EvpReject(idx, "LIKE input is not a column");
    }
    const auto& v = static_cast<const VarExpr&>(*like.input());
    if (v.side() != RowSide::kOuter) {
      return EvpReject(idx, "conjunct is not specializable");
    }
    ColMeta vm = v.meta();
    if (vm.type != TypeId::kVarchar && vm.type != TypeId::kChar) {
      return EvpReject(idx, "LIKE over a non-string column");
    }
    out->info.kind = EvpClauseKind::kLike;
    out->info.cls = vm.type == TypeId::kChar ? KernelClass::kChar
                                             : KernelClass::kVarchar;
    out->info.like_mode = like.mode();
    out->info.negated = like.negated();
    out->attno = v.attno();
    out->charlen = vm.attlen;
    out->aux = like.needle();
    out->aux_len = static_cast<uint32_t>(like.needle().size());
    return Status::OK();
  }

  if (e.kind() == ExprKind::kInList) {
    const auto& in = static_cast<const InListExpr&>(e);
    if (in.input()->kind() != ExprKind::kVar) {
      return EvpReject(idx, "IN input is not a column");
    }
    const auto& v = static_cast<const VarExpr&>(*in.input());
    if (v.side() != RowSide::kOuter) {
      return EvpReject(idx, "conjunct is not specializable");
    }
    KernelClass cls = EvpKernelClassOf(v.meta().type);
    out->info.kind = EvpClauseKind::kInList;
    out->info.cls = cls;
    out->attno = v.attno();
    out->charlen = v.meta().attlen;
    out->aux_len = static_cast<uint32_t>(in.items().size());
    if (cls == KernelClass::kInt) {
      out->aux.resize(in.items().size() * sizeof(int64_t));
      auto* arr = reinterpret_cast<int64_t*>(out->aux.data());
      for (size_t i = 0; i < in.items().size(); ++i) {
        arr[i] = DatumToInt64(in.items()[i]);
      }
      return Status::OK();
    }
    if (cls == KernelClass::kVarchar) {
      for (Datum d : in.items()) {
        const char* p = DatumToPointer(d);
        uint32_t len = VarlenaPayloadSize(p);
        out->aux.append(reinterpret_cast<const char*>(&len), 4);
        out->aux.append(VarlenaPayload(p), len);
      }
      return Status::OK();
    }
    return EvpReject(idx, "IN-list over an unsupported type class");
  }

  return EvpReject(idx, "conjunct shape is not specializable");
}

/// Flattens `expr` into conjuncts exactly as the specializer does (one
/// nested AND level, e.g. from Between).
Status FlattenConjunction(const Expr& expr,
                          std::vector<const Expr*>* conjuncts) {
  if (expr.kind() == ExprKind::kBool) {
    const auto& b = static_cast<const BoolExpr&>(expr);
    if (b.op() != BoolOp::kAnd) {
      return Status::InvalidArgument(
          "bee verifier: evp: predicate is not a conjunction");
    }
    for (const ExprPtr& c : b.children()) {
      if (c->kind() == ExprKind::kBool) {
        const auto& nb = static_cast<const BoolExpr&>(*c);
        if (nb.op() != BoolOp::kAnd) {
          return Status::InvalidArgument(
              "bee verifier: evp: nested non-AND boolean");
        }
        for (const ExprPtr& nc : nb.children()) conjuncts->push_back(nc.get());
      } else {
        conjuncts->push_back(c.get());
      }
    }
  } else {
    conjuncts->push_back(&expr);
  }
  return Status::OK();
}

}  // namespace

Status BeeVerifier::VerifyEvp(const EvpBee& bee, const Expr& expr,
                              const std::vector<ColMeta>* input_meta) {
  std::vector<const Expr*> conjuncts;
  MICROSPEC_RETURN_NOT_OK(FlattenConjunction(expr, &conjuncts));

  if (bee.clauses().size() != bee.clause_info().size()) {
    return Status::InvalidArgument(
        "bee verifier: evp: clause metadata length disagrees with the "
        "program");
  }
  if (bee.clauses().size() != conjuncts.size()) {
    return Status::InvalidArgument(
        "bee verifier: evp: clause count " +
        std::to_string(bee.clauses().size()) +
        " disagrees with the conjunction's " +
        std::to_string(conjuncts.size()));
  }

  for (size_t i = 0; i < conjuncts.size(); ++i) {
    ExpectedClause exp;
    MICROSPEC_RETURN_NOT_OK(ExpectClause(*conjuncts[i], i, &exp));
    const EvpBee::Clause& cl = bee.clauses()[i];
    const EvpClauseInfo& ci = bee.clause_info()[i];

    // The short-circuit contract evaluates clauses in conjunct order; a
    // clause whose coordinates disagree with conjunct i is either reordered
    // or monomorphized differently than the expression requires.
    bool coords_ok = ci.kind == exp.info.kind && ci.cls == exp.info.cls;
    if (coords_ok && ci.kind == EvpClauseKind::kCmp) {
      coords_ok = ci.op == exp.info.op;
    }
    if (coords_ok && ci.kind == EvpClauseKind::kLike) {
      coords_ok =
          ci.like_mode == exp.info.like_mode && ci.negated == exp.info.negated;
    }
    if (!coords_ok) {
      return EvpReject(i,
                       "monomorphization coordinates disagree with the "
                       "conjunct (clause order or kernel selection)");
    }

    EvpKernelFn want_fn = EvpKernelFor(exp.info);
    EvpColKernelFn want_col = EvpColKernelFor(exp.info);
    if (want_fn == nullptr || want_col == nullptr) {
      return EvpReject(
          i, "the kernel catalog does not enumerate this clause shape");
    }
    if (cl.fn != want_fn) {
      return EvpReject(i,
                       "row-form kernel is not the registry kernel for this "
                       "monomorphization");
    }
    if (cl.col_fn != want_col) {
      return EvpReject(i,
                       "batch-form kernel is not the row-form kernel's "
                       "value-form sibling (EVP-B would diverge)");
    }
    if (cl.ctx == nullptr) return EvpReject(i, "missing clause context");
    const EvpClause& ctx = *cl.ctx;

    if (ctx.attno != exp.attno) {
      return EvpReject(i, "column reference " + std::to_string(ctx.attno) +
                              " disagrees with the expression's attribute " +
                              std::to_string(exp.attno));
    }
    if (ctx.attno < 0) {
      return EvpReject(i, "negative column reference");
    }
    if (input_meta != nullptr) {
      if (static_cast<size_t>(ctx.attno) >= input_meta->size()) {
        return EvpReject(i, "column reference " + std::to_string(ctx.attno) +
                                " out of range for input width " +
                                std::to_string(input_meta->size()));
      }
      const ColMeta& m = (*input_meta)[static_cast<size_t>(ctx.attno)];
      if (EvpKernelClassOf(m.type) != exp.info.cls) {
        return EvpReject(i,
                         "type-mismatched comparison: input column class "
                         "disagrees with the kernel monomorphization");
      }
      if (exp.info.cls == KernelClass::kChar && m.attlen != exp.charlen) {
        return EvpReject(i, "char(n) length disagrees with the catalog");
      }
    }
    if (ctx.charlen != exp.charlen) {
      return EvpReject(i, "char(n) length mismatch");
    }
    if (!ctx.nullable) {
      return EvpReject(i,
                       "null guard dropped: the clause must be marked "
                       "nullable so NULL cells fail it");
    }

    switch (exp.info.kind) {
      case EvpClauseKind::kCmp:
        if (exp.has_datum_const) {
          if (ctx.constant != exp.datum_const) {
            return EvpReject(i,
                             "comparison constant disagrees with the "
                             "expression literal");
          }
        } else if (exp.is_varchar_const) {
          const char* p = DatumToPointer(ctx.constant);
          if (p == nullptr ||
              std::string_view(VarlenaPayload(p), VarlenaPayloadSize(p)) !=
                  exp.bytes_const) {
            return EvpReject(i,
                             "comparison constant disagrees with the "
                             "expression literal");
          }
        } else {
          const char* p = DatumToPointer(ctx.constant);
          if (p == nullptr ||
              std::string_view(p, exp.bytes_const.size()) !=
                  exp.bytes_const) {
            return EvpReject(i,
                             "comparison constant is not the blank-padded "
                             "char(n) literal");
          }
        }
        break;
      case EvpClauseKind::kLike:
        if (ctx.aux == nullptr || ctx.aux_len != exp.aux_len ||
            std::string_view(ctx.aux, ctx.aux_len) != exp.aux) {
          return EvpReject(i, "LIKE needle disagrees with the pattern");
        }
        break;
      case EvpClauseKind::kInList:
        if (ctx.aux == nullptr || ctx.aux_len != exp.aux_len ||
            std::string_view(ctx.aux, exp.aux.size()) != exp.aux) {
          return EvpReject(i, "IN-list items disagree with the expression");
        }
        break;
    }
  }
  return Status::OK();
}

Status BeeVerifier::VerifyEvj(const EvjBee& bee,
                              const std::vector<int>& outer_cols,
                              const std::vector<int>& inner_cols,
                              const std::vector<ColMeta>& key_meta,
                              int outer_width, int inner_width) {
  if (outer_cols.size() != inner_cols.size() ||
      key_meta.size() != outer_cols.size()) {
    return Status::InvalidArgument(
        "bee verifier: evj: key column lists disagree in length");
  }
  if (bee.keys().size() != outer_cols.size()) {
    return Status::InvalidArgument(
        "bee verifier: evj: key count " + std::to_string(bee.keys().size()) +
        " disagrees with the join's " + std::to_string(outer_cols.size()));
  }
  for (size_t i = 0; i < bee.keys().size(); ++i) {
    const EvjBee::Key& k = bee.keys()[i];
    if (k.ctx == nullptr) return EvjReject(i, "missing key context");
    if (outer_width > 0 &&
        (k.ctx->outer_att < 0 || k.ctx->outer_att >= outer_width)) {
      return EvjReject(i, "outer attribute " +
                              std::to_string(k.ctx->outer_att) +
                              " out of range for width " +
                              std::to_string(outer_width));
    }
    if (inner_width > 0 &&
        (k.ctx->inner_att < 0 || k.ctx->inner_att >= inner_width)) {
      return EvjReject(i, "inner attribute " +
                              std::to_string(k.ctx->inner_att) +
                              " out of range for width " +
                              std::to_string(inner_width));
    }
    if (k.ctx->outer_att != outer_cols[i]) {
      return EvjReject(i, "outer attribute disagrees with the join's key "
                          "column");
    }
    if (k.ctx->inner_att != inner_cols[i]) {
      return EvjReject(i, "inner attribute disagrees with the join's key "
                          "column");
    }
    if (k.ctx->charlen != key_meta[i].attlen) {
      return EvjReject(i, "key length disagrees with the catalog");
    }
    KernelClass cls = EvpKernelClassOf(key_meta[i].type);
    if (k.hash != EvjHashKernelFor(cls)) {
      return EvjReject(i, "hash kernel is not the registry kernel for the "
                          "key's type class");
    }
    if (k.equal != EvjEqualKernelFor(cls)) {
      return EvjReject(i, "equality kernel is not the registry kernel for "
                          "the key's type class");
    }
  }
  return Status::OK();
}

bool BeeVerifier::ReportReject(const char* family, const std::string& subject,
                               const Status& st, VerifyMode mode) {
  telemetry::Registry::Global()
      .GetCounter("microspec_bee_verify_rejects_total")
      ->Add(1);
  const uint64_t now = telemetry::NowNs();
  trace::RecordEvent("verify-rejected", family, now, now,
                     subject + ": " + st.message());
  return mode == VerifyMode::kEnforce;
}

}  // namespace microspec::bee
