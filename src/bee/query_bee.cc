#include "bee/query_bee.h"

#include <cstring>

#include "bee/verifier.h"
#include "common/counters.h"
#include "common/hash.h"

namespace microspec::bee {

namespace {

/// --- Pre-compiled EVP kernel variants ---------------------------------------
/// One template instantiation per (type class x operator): the ahead-of-time
/// enumerated object code the paper describes. Each kernel does exactly one
/// null check, one load, and one comparison — no tree walk, no type dispatch.

template <CmpOp Op>
inline bool ApplyCmp(int c) {
  switch (Op) {
    case CmpOp::kEq:
      return c == 0;
    case CmpOp::kNe:
      return c != 0;
    case CmpOp::kLt:
      return c < 0;
    case CmpOp::kLe:
      return c <= 0;
    case CmpOp::kGt:
      return c > 0;
    case CmpOp::kGe:
      return c >= 0;
  }
  return false;
}

/// Comparison cores shared by the row-form kernels and their value-form
/// (EVP-B batch) siblings — one monomorphized comparison, two entry shapes.

template <CmpOp Op>
inline bool CmpIntVal(const EvpClause& c, Datum v) {
  int64_t x = DatumToInt64(v);
  int64_t k = DatumToInt64(c.constant);
  return ApplyCmp<Op>(x < k ? -1 : (x > k ? 1 : 0));
}

template <CmpOp Op>
inline bool CmpFloatVal(const EvpClause& c, Datum v) {
  double x = DatumToFloat64(v);
  double k = DatumToFloat64(c.constant);
  return ApplyCmp<Op>(x < k ? -1 : (x > k ? 1 : 0));
}

template <CmpOp Op>
inline bool CmpCharVal(const EvpClause& c, Datum v) {
  int cmp = std::memcmp(DatumToPointer(v), DatumToPointer(c.constant),
                        static_cast<size_t>(c.charlen));
  return ApplyCmp<Op>(cmp);
}

template <CmpOp Op>
inline bool CmpVarcharVal(const EvpClause& c, Datum v) {
  const char* a = DatumToPointer(v);
  const char* b = DatumToPointer(c.constant);
  uint32_t la = VarlenaPayloadSize(a);
  uint32_t lb = VarlenaPayloadSize(b);
  uint32_t m = la < lb ? la : lb;
  int cmp = std::memcmp(VarlenaPayload(a), VarlenaPayload(b), m);
  if (cmp == 0) cmp = la < lb ? -1 : (la > lb ? 1 : 0);
  return ApplyCmp<Op>(cmp);
}

template <CmpOp Op>
bool CmpIntKernel(const EvpClause& c, const Datum* v, const bool* n) {
  if (n != nullptr && n[c.attno]) return false;
  return CmpIntVal<Op>(c, v[c.attno]);
}

template <CmpOp Op>
bool CmpFloatKernel(const EvpClause& c, const Datum* v, const bool* n) {
  if (n != nullptr && n[c.attno]) return false;
  return CmpFloatVal<Op>(c, v[c.attno]);
}

template <CmpOp Op>
bool CmpCharKernel(const EvpClause& c, const Datum* v, const bool* n) {
  if (n != nullptr && n[c.attno]) return false;
  return CmpCharVal<Op>(c, v[c.attno]);
}

template <CmpOp Op>
bool CmpVarcharKernel(const EvpClause& c, const Datum* v, const bool* n) {
  if (n != nullptr && n[c.attno]) return false;
  return CmpVarcharVal<Op>(c, v[c.attno]);
}

template <CmpOp Op>
bool CmpIntColKernel(const EvpClause& c, Datum v, bool isnull) {
  return !isnull && CmpIntVal<Op>(c, v);
}

template <CmpOp Op>
bool CmpFloatColKernel(const EvpClause& c, Datum v, bool isnull) {
  return !isnull && CmpFloatVal<Op>(c, v);
}

template <CmpOp Op>
bool CmpCharColKernel(const EvpClause& c, Datum v, bool isnull) {
  return !isnull && CmpCharVal<Op>(c, v);
}

template <CmpOp Op>
bool CmpVarcharColKernel(const EvpClause& c, Datum v, bool isnull) {
  return !isnull && CmpVarcharVal<Op>(c, v);
}

EvpKernelFn SelectCmpKernel(KernelClass cls, CmpOp op) {
  static constexpr EvpKernelFn kInt[] = {
      CmpIntKernel<CmpOp::kEq>, CmpIntKernel<CmpOp::kNe>,
      CmpIntKernel<CmpOp::kLt>, CmpIntKernel<CmpOp::kLe>,
      CmpIntKernel<CmpOp::kGt>, CmpIntKernel<CmpOp::kGe>};
  static constexpr EvpKernelFn kFloat[] = {
      CmpFloatKernel<CmpOp::kEq>, CmpFloatKernel<CmpOp::kNe>,
      CmpFloatKernel<CmpOp::kLt>, CmpFloatKernel<CmpOp::kLe>,
      CmpFloatKernel<CmpOp::kGt>, CmpFloatKernel<CmpOp::kGe>};
  static constexpr EvpKernelFn kChar[] = {
      CmpCharKernel<CmpOp::kEq>, CmpCharKernel<CmpOp::kNe>,
      CmpCharKernel<CmpOp::kLt>, CmpCharKernel<CmpOp::kLe>,
      CmpCharKernel<CmpOp::kGt>, CmpCharKernel<CmpOp::kGe>};
  static constexpr EvpKernelFn kVarchar[] = {
      CmpVarcharKernel<CmpOp::kEq>, CmpVarcharKernel<CmpOp::kNe>,
      CmpVarcharKernel<CmpOp::kLt>, CmpVarcharKernel<CmpOp::kLe>,
      CmpVarcharKernel<CmpOp::kGt>, CmpVarcharKernel<CmpOp::kGe>};
  switch (cls) {
    case KernelClass::kInt:
      return kInt[static_cast<int>(op)];
    case KernelClass::kFloat:
      return kFloat[static_cast<int>(op)];
    case KernelClass::kChar:
      return kChar[static_cast<int>(op)];
    case KernelClass::kVarchar:
      return kVarchar[static_cast<int>(op)];
  }
  return nullptr;
}

EvpColKernelFn SelectCmpColKernel(KernelClass cls, CmpOp op) {
  static constexpr EvpColKernelFn kInt[] = {
      CmpIntColKernel<CmpOp::kEq>, CmpIntColKernel<CmpOp::kNe>,
      CmpIntColKernel<CmpOp::kLt>, CmpIntColKernel<CmpOp::kLe>,
      CmpIntColKernel<CmpOp::kGt>, CmpIntColKernel<CmpOp::kGe>};
  static constexpr EvpColKernelFn kFloat[] = {
      CmpFloatColKernel<CmpOp::kEq>, CmpFloatColKernel<CmpOp::kNe>,
      CmpFloatColKernel<CmpOp::kLt>, CmpFloatColKernel<CmpOp::kLe>,
      CmpFloatColKernel<CmpOp::kGt>, CmpFloatColKernel<CmpOp::kGe>};
  static constexpr EvpColKernelFn kChar[] = {
      CmpCharColKernel<CmpOp::kEq>, CmpCharColKernel<CmpOp::kNe>,
      CmpCharColKernel<CmpOp::kLt>, CmpCharColKernel<CmpOp::kLe>,
      CmpCharColKernel<CmpOp::kGt>, CmpCharColKernel<CmpOp::kGe>};
  static constexpr EvpColKernelFn kVarchar[] = {
      CmpVarcharColKernel<CmpOp::kEq>, CmpVarcharColKernel<CmpOp::kNe>,
      CmpVarcharColKernel<CmpOp::kLt>, CmpVarcharColKernel<CmpOp::kLe>,
      CmpVarcharColKernel<CmpOp::kGt>, CmpVarcharColKernel<CmpOp::kGe>};
  switch (cls) {
    case KernelClass::kInt:
      return kInt[static_cast<int>(op)];
    case KernelClass::kFloat:
      return kFloat[static_cast<int>(op)];
    case KernelClass::kChar:
      return kChar[static_cast<int>(op)];
    case KernelClass::kVarchar:
      return kVarchar[static_cast<int>(op)];
  }
  return nullptr;
}

template <LikeExpr::Mode Mode, bool Negated, bool FixedChar>
inline bool LikeVal(const EvpClause& c, Datum v) {
  std::string_view hay;
  if constexpr (FixedChar) {
    hay = std::string_view(DatumToPointer(v), static_cast<size_t>(c.charlen));
  } else {
    const char* p = DatumToPointer(v);
    hay = std::string_view(VarlenaPayload(p), VarlenaPayloadSize(p));
  }
  std::string_view needle(c.aux, c.aux_len);
  bool match = false;
  switch (Mode) {
    case LikeExpr::Mode::kExact:
      match = hay == needle;
      break;
    case LikeExpr::Mode::kPrefix:
      match = hay.substr(0, needle.size()) == needle;
      break;
    case LikeExpr::Mode::kSuffix:
      match = hay.size() >= needle.size() &&
              hay.substr(hay.size() - needle.size()) == needle;
      break;
    case LikeExpr::Mode::kContains:
      match = hay.find(needle) != std::string_view::npos;
      break;
  }
  return Negated ? !match : match;
}

template <LikeExpr::Mode Mode, bool Negated, bool FixedChar>
bool LikeKernel(const EvpClause& c, const Datum* v, const bool* n) {
  if (n != nullptr && n[c.attno]) return false;
  return LikeVal<Mode, Negated, FixedChar>(c, v[c.attno]);
}

template <LikeExpr::Mode Mode, bool Negated, bool FixedChar>
bool LikeColKernel(const EvpClause& c, Datum v, bool isnull) {
  return !isnull && LikeVal<Mode, Negated, FixedChar>(c, v);
}

template <bool FixedChar>
EvpKernelFn SelectLikeKernel(LikeExpr::Mode mode, bool negated) {
  switch (mode) {
    case LikeExpr::Mode::kExact:
      return negated ? LikeKernel<LikeExpr::Mode::kExact, true, FixedChar>
                     : LikeKernel<LikeExpr::Mode::kExact, false, FixedChar>;
    case LikeExpr::Mode::kPrefix:
      return negated ? LikeKernel<LikeExpr::Mode::kPrefix, true, FixedChar>
                     : LikeKernel<LikeExpr::Mode::kPrefix, false, FixedChar>;
    case LikeExpr::Mode::kSuffix:
      return negated ? LikeKernel<LikeExpr::Mode::kSuffix, true, FixedChar>
                     : LikeKernel<LikeExpr::Mode::kSuffix, false, FixedChar>;
    case LikeExpr::Mode::kContains:
      return negated
                 ? LikeKernel<LikeExpr::Mode::kContains, true, FixedChar>
                 : LikeKernel<LikeExpr::Mode::kContains, false, FixedChar>;
  }
  return nullptr;
}

template <bool FixedChar>
EvpColKernelFn SelectLikeColKernel(LikeExpr::Mode mode, bool negated) {
  switch (mode) {
    case LikeExpr::Mode::kExact:
      return negated ? LikeColKernel<LikeExpr::Mode::kExact, true, FixedChar>
                     : LikeColKernel<LikeExpr::Mode::kExact, false, FixedChar>;
    case LikeExpr::Mode::kPrefix:
      return negated
                 ? LikeColKernel<LikeExpr::Mode::kPrefix, true, FixedChar>
                 : LikeColKernel<LikeExpr::Mode::kPrefix, false, FixedChar>;
    case LikeExpr::Mode::kSuffix:
      return negated
                 ? LikeColKernel<LikeExpr::Mode::kSuffix, true, FixedChar>
                 : LikeColKernel<LikeExpr::Mode::kSuffix, false, FixedChar>;
    case LikeExpr::Mode::kContains:
      return negated
                 ? LikeColKernel<LikeExpr::Mode::kContains, true, FixedChar>
                 : LikeColKernel<LikeExpr::Mode::kContains, false, FixedChar>;
  }
  return nullptr;
}

inline bool InListIntVal(const EvpClause& c, Datum v) {
  int64_t x = DatumToInt64(v);
  const int64_t* items = reinterpret_cast<const int64_t*>(c.aux);
  for (uint32_t i = 0; i < c.aux_len; ++i) {
    workops::Bump(1);
    if (items[i] == x) return true;
  }
  return false;
}

inline bool InListVarcharVal(const EvpClause& c, Datum v) {
  const char* p = DatumToPointer(v);
  std::string_view hay(VarlenaPayload(p), VarlenaPayloadSize(p));
  // aux holds concatenated (u32 len, bytes) entries; aux_len is item count.
  const char* q = c.aux;
  for (uint32_t i = 0; i < c.aux_len; ++i) {
    workops::Bump(1);
    uint32_t len;
    std::memcpy(&len, q, 4);
    q += 4;
    if (hay.size() == len && std::memcmp(hay.data(), q, len) == 0) return true;
    q += len;
  }
  return false;
}

bool InListIntKernel(const EvpClause& c, const Datum* v, const bool* n) {
  if (n != nullptr && n[c.attno]) return false;
  return InListIntVal(c, v[c.attno]);
}

bool InListVarcharKernel(const EvpClause& c, const Datum* v, const bool* n) {
  if (n != nullptr && n[c.attno]) return false;
  return InListVarcharVal(c, v[c.attno]);
}

bool InListIntColKernel(const EvpClause& c, Datum v, bool isnull) {
  return !isnull && InListIntVal(c, v);
}

bool InListVarcharColKernel(const EvpClause& c, Datum v, bool isnull) {
  return !isnull && InListVarcharVal(c, v);
}

KernelClass ClassOf(TypeId t) {
  switch (t) {
    case TypeId::kBool:
    case TypeId::kInt32:
    case TypeId::kInt64:
    case TypeId::kDate:
      return KernelClass::kInt;
    case TypeId::kFloat64:
      return KernelClass::kFloat;
    case TypeId::kChar:
      return KernelClass::kChar;
    case TypeId::kVarchar:
      return KernelClass::kVarchar;
  }
  return KernelClass::kInt;
}

CmpOp FlipOp(CmpOp op) {
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

/// Tries to lower one conjunct into a clause. Returns false when the shape
/// is not specializable.
bool LowerClause(const Expr& e, PlacementArena* arena,
                 std::vector<EvpBee::Clause>* clauses,
                 std::vector<EvpClauseInfo>* info,
                 std::vector<std::string>* owned) {
  if (e.kind() == ExprKind::kCmp) {
    const auto& cmp = static_cast<const CmpExpr&>(e);
    const Expr* var = cmp.lhs();
    const Expr* cst = cmp.rhs();
    CmpOp op = cmp.op();
    if (var->kind() == ExprKind::kConst && cst->kind() == ExprKind::kVar) {
      std::swap(var, cst);
      op = FlipOp(op);
    }
    if (var->kind() != ExprKind::kVar || cst->kind() != ExprKind::kConst) {
      return false;
    }
    const auto& v = static_cast<const VarExpr&>(*var);
    const auto& k = static_cast<const ConstExpr&>(*cst);
    if (v.side() != RowSide::kOuter || k.is_null_const()) return false;

    ColMeta vm = v.meta();
    KernelClass cls = ClassOf(vm.type);
    EvpClause ctx{};
    ctx.attno = v.attno();
    ctx.charlen = vm.attlen;
    ctx.nullable = true;

    ColMeta km = k.meta();
    if (cls == KernelClass::kInt || cls == KernelClass::kFloat) {
      if (ClassOf(km.type) != cls) return false;
      ctx.constant = k.value();
    } else if (cls == KernelClass::kVarchar) {
      if (km.type != TypeId::kVarchar) return false;
      const char* p = DatumToPointer(k.value());
      owned->emplace_back(p, VarlenaSize(p));
      ctx.constant = DatumFromPointer(owned->back().data());
    } else {  // kChar: blank-pad the constant to the column width
      std::string padded;
      if (km.type == TypeId::kVarchar) {
        const char* p = DatumToPointer(k.value());
        padded.assign(VarlenaPayload(p), VarlenaPayloadSize(p));
      } else if (km.type == TypeId::kChar) {
        padded.assign(DatumToPointer(k.value()),
                      static_cast<size_t>(km.attlen));
      } else {
        return false;
      }
      padded.resize(static_cast<size_t>(vm.attlen), ' ');
      owned->push_back(std::move(padded));
      ctx.constant = DatumFromPointer(owned->back().data());
    }
    clauses->push_back(EvpBee::Clause{SelectCmpKernel(cls, op),
                                      SelectCmpColKernel(cls, op),
                                      arena->New(ctx)});
    EvpClauseInfo ci{};
    ci.kind = EvpClauseKind::kCmp;
    ci.cls = cls;
    ci.op = op;
    info->push_back(ci);
    return true;
  }

  if (e.kind() == ExprKind::kLike) {
    const auto& like = static_cast<const LikeExpr&>(e);
    if (like.input()->kind() != ExprKind::kVar) return false;
    const auto& v = static_cast<const VarExpr&>(*like.input());
    if (v.side() != RowSide::kOuter) return false;
    ColMeta vm = v.meta();
    if (vm.type != TypeId::kVarchar && vm.type != TypeId::kChar) return false;
    owned->push_back(like.needle());
    EvpClause ctx{};
    ctx.attno = v.attno();
    ctx.charlen = vm.attlen;
    ctx.nullable = true;
    ctx.aux = owned->back().data();
    ctx.aux_len = static_cast<uint32_t>(owned->back().size());
    EvpKernelFn fn = vm.type == TypeId::kChar
                         ? SelectLikeKernel<true>(like.mode(), like.negated())
                         : SelectLikeKernel<false>(like.mode(), like.negated());
    EvpColKernelFn col_fn =
        vm.type == TypeId::kChar
            ? SelectLikeColKernel<true>(like.mode(), like.negated())
            : SelectLikeColKernel<false>(like.mode(), like.negated());
    clauses->push_back(EvpBee::Clause{fn, col_fn, arena->New(ctx)});
    EvpClauseInfo ci{};
    ci.kind = EvpClauseKind::kLike;
    ci.cls = vm.type == TypeId::kChar ? KernelClass::kChar
                                      : KernelClass::kVarchar;
    ci.like_mode = like.mode();
    ci.negated = like.negated();
    info->push_back(ci);
    return true;
  }

  if (e.kind() == ExprKind::kInList) {
    const auto& in = static_cast<const InListExpr&>(e);
    if (in.input()->kind() != ExprKind::kVar) return false;
    const auto& v = static_cast<const VarExpr&>(*in.input());
    if (v.side() != RowSide::kOuter) return false;
    KernelClass cls = ClassOf(v.meta().type);
    EvpClause ctx{};
    ctx.attno = v.attno();
    ctx.charlen = v.meta().attlen;
    ctx.nullable = true;
    EvpClauseInfo ci{};
    ci.kind = EvpClauseKind::kInList;
    ci.cls = cls;
    if (cls == KernelClass::kInt) {
      std::string storage(in.items().size() * sizeof(int64_t), '\0');
      auto* arr = reinterpret_cast<int64_t*>(storage.data());
      for (size_t i = 0; i < in.items().size(); ++i) {
        arr[i] = DatumToInt64(in.items()[i]);
      }
      owned->push_back(std::move(storage));
      ctx.aux = owned->back().data();
      ctx.aux_len = static_cast<uint32_t>(in.items().size());
      clauses->push_back(EvpBee::Clause{InListIntKernel, InListIntColKernel,
                                        arena->New(ctx)});
      info->push_back(ci);
      return true;
    }
    if (cls == KernelClass::kVarchar) {
      std::string storage;
      for (Datum d : in.items()) {
        const char* p = DatumToPointer(d);
        uint32_t len = VarlenaPayloadSize(p);
        storage.append(reinterpret_cast<const char*>(&len), 4);
        storage.append(VarlenaPayload(p), len);
      }
      owned->push_back(std::move(storage));
      ctx.aux = owned->back().data();
      ctx.aux_len = static_cast<uint32_t>(in.items().size());
      clauses->push_back(EvpBee::Clause{
          InListVarcharKernel, InListVarcharColKernel, arena->New(ctx)});
      info->push_back(ci);
      return true;
    }
    return false;
  }

  return false;
}

}  // namespace

KernelClass EvpKernelClassOf(TypeId t) { return ClassOf(t); }

EvpKernelFn EvpKernelFor(const EvpClauseInfo& info) {
  switch (info.kind) {
    case EvpClauseKind::kCmp:
      return SelectCmpKernel(info.cls, info.op);
    case EvpClauseKind::kLike:
      if (info.cls == KernelClass::kChar) {
        return SelectLikeKernel<true>(info.like_mode, info.negated);
      }
      if (info.cls == KernelClass::kVarchar) {
        return SelectLikeKernel<false>(info.like_mode, info.negated);
      }
      return nullptr;
    case EvpClauseKind::kInList:
      if (info.cls == KernelClass::kInt) return InListIntKernel;
      if (info.cls == KernelClass::kVarchar) return InListVarcharKernel;
      return nullptr;
  }
  return nullptr;
}

EvpColKernelFn EvpColKernelFor(const EvpClauseInfo& info) {
  switch (info.kind) {
    case EvpClauseKind::kCmp:
      return SelectCmpColKernel(info.cls, info.op);
    case EvpClauseKind::kLike:
      if (info.cls == KernelClass::kChar) {
        return SelectLikeColKernel<true>(info.like_mode, info.negated);
      }
      if (info.cls == KernelClass::kVarchar) {
        return SelectLikeColKernel<false>(info.like_mode, info.negated);
      }
      return nullptr;
    case EvpClauseKind::kInList:
      if (info.cls == KernelClass::kInt) return InListIntColKernel;
      if (info.cls == KernelClass::kVarchar) return InListVarcharColKernel;
      return nullptr;
  }
  return nullptr;
}

std::unique_ptr<EvpBee> TrySpecializePredicate(const Expr& expr,
                                               PlacementArena* arena,
                                               bool input_nullable) {
  (void)input_nullable;
  std::vector<EvpBee::Clause> clauses;
  std::vector<EvpClauseInfo> info;
  // Clause contexts capture pointers into these strings, so the vector must
  // never reallocate after a pointer is taken: reserve more slots than the
  // conjunct cap below can ever need.
  std::vector<std::string> owned;
  owned.reserve(64);

  std::vector<const Expr*> conjuncts;
  if (expr.kind() == ExprKind::kBool) {
    const auto& b = static_cast<const BoolExpr&>(expr);
    if (b.op() != BoolOp::kAnd) return nullptr;
    for (const ExprPtr& c : b.children()) {
      // Nested ANDs (e.g. from Between) flatten one level.
      if (c->kind() == ExprKind::kBool) {
        const auto& nb = static_cast<const BoolExpr&>(*c);
        if (nb.op() != BoolOp::kAnd) return nullptr;
        for (const ExprPtr& nc : nb.children()) conjuncts.push_back(nc.get());
      } else {
        conjuncts.push_back(c.get());
      }
    }
  } else {
    conjuncts.push_back(&expr);
  }
  if (conjuncts.size() > 48) return nullptr;

  for (const Expr* c : conjuncts) {
    if (!LowerClause(*c, arena, &clauses, &info, &owned)) return nullptr;
  }
  return std::make_unique<EvpBee>(std::move(clauses), std::move(info),
                                  std::move(owned));
}

std::unique_ptr<EvpBee> TrySpecializePredicateChecked(
    const Expr& expr, PlacementArena* arena, bool input_nullable,
    const std::vector<ColMeta>* input_meta, VerifyMode mode) {
  std::unique_ptr<EvpBee> bee =
      TrySpecializePredicate(expr, arena, input_nullable);
  if (bee == nullptr || mode == VerifyMode::kOff) return bee;
  Status st = BeeVerifier::VerifyEvp(*bee, expr, input_meta);
  if (!st.ok() && BeeVerifier::ReportReject("evp", "query:evp", st, mode)) {
    return nullptr;
  }
  return bee;
}

/// --- EVJ kernels -------------------------------------------------------------

namespace {

uint64_t HashIntK(const EvjKey&, Datum v, uint64_t seed) {
  return HashInt64(DatumToInt64(v), seed);
}
uint64_t HashFloatK(const EvjKey&, Datum v, uint64_t seed) {
  return HashInt64(static_cast<int64_t>(v), seed);
}
uint64_t HashCharK(const EvjKey& k, Datum v, uint64_t seed) {
  return Hash64(DatumToPointer(v), static_cast<size_t>(k.charlen), seed);
}
uint64_t HashVarcharK(const EvjKey&, Datum v, uint64_t seed) {
  const char* p = DatumToPointer(v);
  return Hash64(VarlenaPayload(p), VarlenaPayloadSize(p), seed);
}

bool EqIntK(const EvjKey&, Datum a, Datum b) {
  return DatumToInt64(a) == DatumToInt64(b);
}
bool EqFloatK(const EvjKey&, Datum a, Datum b) {
  return DatumToFloat64(a) == DatumToFloat64(b);
}
bool EqCharK(const EvjKey& k, Datum a, Datum b) {
  return std::memcmp(DatumToPointer(a), DatumToPointer(b),
                     static_cast<size_t>(k.charlen)) == 0;
}
bool EqVarcharK(const EvjKey&, Datum a, Datum b) {
  const char* pa = DatumToPointer(a);
  const char* pb = DatumToPointer(b);
  uint32_t la = VarlenaPayloadSize(pa);
  uint32_t lb = VarlenaPayloadSize(pb);
  return la == lb && std::memcmp(VarlenaPayload(pa), VarlenaPayload(pb),
                                 la) == 0;
}

}  // namespace

EvjHashFn EvjHashKernelFor(KernelClass cls) {
  switch (cls) {
    case KernelClass::kInt:
      return HashIntK;
    case KernelClass::kFloat:
      return HashFloatK;
    case KernelClass::kChar:
      return HashCharK;
    case KernelClass::kVarchar:
      return HashVarcharK;
  }
  return nullptr;
}

EvjEqualFn EvjEqualKernelFor(KernelClass cls) {
  switch (cls) {
    case KernelClass::kInt:
      return EqIntK;
    case KernelClass::kFloat:
      return EqFloatK;
    case KernelClass::kChar:
      return EqCharK;
    case KernelClass::kVarchar:
      return EqVarcharK;
  }
  return nullptr;
}

std::unique_ptr<EvjBee> TrySpecializeJoinKeys(
    const std::vector<int>& outer_cols, const std::vector<int>& inner_cols,
    const std::vector<ColMeta>& key_meta, PlacementArena* arena) {
  std::vector<EvjBee::Key> keys;
  for (size_t i = 0; i < outer_cols.size(); ++i) {
    EvjKey ctx{};
    ctx.outer_att = outer_cols[i];
    ctx.inner_att = inner_cols[i];
    ctx.charlen = key_meta[i].attlen;
    EvjBee::Key key{};
    key.ctx = arena->New(ctx);
    key.hash = EvjHashKernelFor(ClassOf(key_meta[i].type));
    key.equal = EvjEqualKernelFor(ClassOf(key_meta[i].type));
    keys.push_back(key);
  }
  return std::make_unique<EvjBee>(std::move(keys));
}

std::unique_ptr<EvjBee> TrySpecializeJoinKeysChecked(
    const std::vector<int>& outer_cols, const std::vector<int>& inner_cols,
    const std::vector<ColMeta>& key_meta, PlacementArena* arena,
    int outer_width, int inner_width, VerifyMode mode) {
  std::unique_ptr<EvjBee> bee =
      TrySpecializeJoinKeys(outer_cols, inner_cols, key_meta, arena);
  if (bee == nullptr || mode == VerifyMode::kOff) return bee;
  Status st = BeeVerifier::VerifyEvj(*bee, outer_cols, inner_cols, key_meta,
                                     outer_width, inner_width);
  if (!st.ok() && BeeVerifier::ReportReject("evj", "query:evj", st, mode)) {
    return nullptr;
  }
  return bee;
}

}  // namespace microspec::bee
