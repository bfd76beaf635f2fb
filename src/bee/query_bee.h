#ifndef MICROSPEC_BEE_QUERY_BEE_H_
#define MICROSPEC_BEE_QUERY_BEE_H_

#include <memory>
#include <string>
#include <vector>

#include "bee/placement.h"
#include "exec/access.h"
#include "expr/expr.h"

namespace microspec::bee {

enum class VerifyMode : uint8_t;  // bee/verifier.h

/// --- Query bees: EVP and EVJ -------------------------------------------------
/// Query bees must be created at query-preparation time without invoking a
/// compiler (Section III-B). Following the paper's mechanism, all object-code
/// variants are enumerated and compiled ahead of time — here as C++ template
/// instantiations over (type class x operator) — and bee creation merely
/// selects a variant and patches the value holes (attribute number, constant)
/// into a per-clause context block allocated from the bee placement arena.

/// Type classes the kernels are monomorphized over.
enum class KernelClass : uint8_t { kInt, kFloat, kChar, kVarchar };

/// A clause context: the EVP bee's "data section" holding the patched-in
/// attribute number and comparison constant.
struct EvpClause {
  int32_t attno;
  int32_t charlen;       // char(n) length for kChar operands
  Datum constant;        // patched constant (points into owned_bytes if byref)
  const char* aux;       // LIKE needle / IN-list storage
  uint32_t aux_len;      // LIKE needle length / IN-list item count
  bool nullable;         // whether a null check must be emitted
};

/// Which kernel family a clause was lowered into. Recorded next to every
/// clause so the verifier (and the native-source emitter) can re-derive the
/// exact ahead-of-time monomorphization the clause claims to use and check
/// the function pointers against the kernel registry.
enum class EvpClauseKind : uint8_t { kCmp, kLike, kInList };

/// The monomorphization coordinates of one clause: enough to look the kernel
/// pair back up in the registry, independently of the function pointers the
/// bee actually carries.
struct EvpClauseInfo {
  EvpClauseKind kind = EvpClauseKind::kCmp;
  KernelClass cls = KernelClass::kInt;
  CmpOp op = CmpOp::kEq;                              // kCmp only
  LikeExpr::Mode like_mode = LikeExpr::Mode::kExact;  // kLike only
  bool negated = false;                               // kLike only
};

/// One monomorphized clause kernel: returns the clause verdict for a row.
using EvpKernelFn = bool (*)(const EvpClause& c, const Datum* values,
                             const bool* isnull);

/// Value-form sibling of EvpKernelFn, used by the batch (EVP-B) path: the
/// clause verdict for one column cell. The attribute load happens in the
/// caller's clause-major loop over the batch's column array — the kernels
/// share their comparison cores with the row-form variants, so both forms
/// are the same ahead-of-time enumerated object code.
using EvpColKernelFn = bool (*)(const EvpClause& c, Datum v, bool isnull);

/// An EVP query bee: a conjunction of monomorphized clause kernels replacing
/// the generic expression-tree walk.
class EvpBee final : public PredicateEvaluator {
 public:
  struct Clause {
    EvpKernelFn fn;
    EvpColKernelFn col_fn;  // value-form sibling (same monomorphization)
    const EvpClause* ctx;   // lives in the placement arena
  };

  EvpBee(std::vector<Clause> clauses, std::vector<EvpClauseInfo> info,
         std::vector<std::string> owned_bytes)
      : clauses_(std::move(clauses)),
        info_(std::move(info)),
        owned_bytes_(std::move(owned_bytes)) {}

  bool Matches(const ExecRow& row) const override {
    uint64_t ops = 0;
    bool result = true;
    for (const Clause& cl : clauses_) {
      ops += 3;  // the bee's whole per-clause cost
      if (!cl.fn(*cl.ctx, row.values, row.isnull)) {
        result = false;
        break;
      }
    }
    workops::Bump(ops);
    return result;
  }

  /// EVP-B: evaluates the conjunction over a batch, compacting the selection
  /// vector in place. Clause-major: each kernel streams down one column
  /// array (the batch's native layout) and rows failing a clause drop out
  /// before the next clause reads them — NULL cells fail a clause exactly
  /// as in the row form.
  int MatchBatch(const Datum* const* cols, const bool* const* nulls,
                 int ncols, int* sel, int nsel) const override {
    (void)ncols;
    uint64_t ops = 0;
    for (const Clause& cl : clauses_) {
      const Datum* col = cols[cl.ctx->attno];
      const bool* nul = nulls[cl.ctx->attno];
      // 2 per row entering the clause: the batch form amortizes the
      // per-row dispatch share of the scalar bee's 3-op clause cost.
      ops += 1 + 2 * static_cast<uint64_t>(nsel);
      int out = 0;
      for (int i = 0; i < nsel; ++i) {
        const int r = sel[i];
        if (cl.col_fn(*cl.ctx, col[r], nul[r])) sel[out++] = r;
      }
      nsel = out;
      if (nsel == 0) break;
    }
    workops::Bump(ops);
    return nsel;
  }

  size_t num_clauses() const { return clauses_.size(); }

  /// Verifier access: the compiled clause program and its monomorphization
  /// coordinates, parallel vectors of equal length.
  const std::vector<Clause>& clauses() const { return clauses_; }
  const std::vector<EvpClauseInfo>& clause_info() const { return info_; }

 private:
  std::vector<Clause> clauses_;
  std::vector<EvpClauseInfo> info_;
  std::vector<std::string> owned_bytes_;  // backing for byref constants
};

/// --- Kernel registry ---------------------------------------------------------
/// The verifier's independent view of the ahead-of-time kernel catalog: given
/// a clause's monomorphization coordinates it returns the one row-form /
/// value-form kernel pair those coordinates name. A bee whose function
/// pointers disagree with the registry is carrying code the catalog never
/// enumerated (or a row/batch pair that is not the same monomorphization).

/// Maps a column type to its kernel class; mirrors the specializer's lowering.
KernelClass EvpKernelClassOf(TypeId t);

/// Registry lookups; return nullptr only for kind/class combinations the
/// catalog does not enumerate (e.g. an IN-list over floats).
EvpKernelFn EvpKernelFor(const EvpClauseInfo& info);
EvpColKernelFn EvpColKernelFor(const EvpClauseInfo& info);

/// Attempts to build an EVP bee for `expr` evaluated against rows whose
/// columns may be NULL only when `input_nullable` (per-column nullability is
/// taken from VarExpr metadata being unavailable, so a conservative flag is
/// used). Returns nullptr when the predicate shape is not specializable —
/// the caller falls back to the generic interpreter, as in the paper.
std::unique_ptr<EvpBee> TrySpecializePredicate(const Expr& expr,
                                               PlacementArena* arena,
                                               bool input_nullable);

/// Install-site entry point: builds the bee, then runs it through
/// BeeVerifier::VerifyEvp (against `expr` and, when non-null, the operator's
/// `input_meta`) under `mode`. A rejection is
/// routed through BeeVerifier::ReportReject (telemetry counter + trace
/// event); under kEnforce the bee is discarded and nullptr returned so the
/// caller falls back to the generic interpreter.
std::unique_ptr<EvpBee> TrySpecializePredicateChecked(
    const Expr& expr, PlacementArena* arena, bool input_nullable,
    const std::vector<ColMeta>* input_meta, VerifyMode mode);

/// --- EVJ ---------------------------------------------------------------------

/// Per-key context for the EVJ bee.
struct EvjKey {
  int32_t outer_att;
  int32_t inner_att;
  int32_t charlen;
};

using EvjHashFn = uint64_t (*)(const EvjKey& k, Datum v, uint64_t seed);
using EvjEqualFn = bool (*)(const EvjKey& k, Datum a, Datum b);

/// An EVJ query bee: monomorphized hash/equality kernels with attribute
/// numbers patched into per-key contexts, replacing the generic per-probe
/// type dispatch.
class EvjBee final : public JoinKeyEvaluator {
 public:
  struct Key {
    const EvjKey* ctx;
    EvjHashFn hash;
    EvjEqualFn equal;
  };

  explicit EvjBee(std::vector<Key> keys) : keys_(std::move(keys)) {}

  uint64_t HashOuter(const Datum* values, const bool* isnull) const override {
    uint64_t h = 0;
    for (const Key& k : keys_) {
      workops::Bump(2);
      if (isnull != nullptr && isnull[k.ctx->outer_att]) continue;
      h = k.hash(*k.ctx, values[k.ctx->outer_att], h);
    }
    return h;
  }
  uint64_t HashInner(const Datum* values, const bool* isnull) const override {
    uint64_t h = 0;
    for (const Key& k : keys_) {
      workops::Bump(2);
      if (isnull != nullptr && isnull[k.ctx->inner_att]) continue;
      h = k.hash(*k.ctx, values[k.ctx->inner_att], h);
    }
    return h;
  }
  bool KeysEqual(const Datum* outer_values, const bool* outer_isnull,
                 const Datum* inner_values,
                 const bool* inner_isnull) const override {
    for (const Key& k : keys_) {
      workops::Bump(2);
      if ((outer_isnull != nullptr && outer_isnull[k.ctx->outer_att]) ||
          (inner_isnull != nullptr && inner_isnull[k.ctx->inner_att])) {
        return false;
      }
      if (!k.equal(*k.ctx, outer_values[k.ctx->outer_att],
                   inner_values[k.ctx->inner_att])) {
        return false;
      }
    }
    return true;
  }

  /// Verifier access: the compiled key program.
  const std::vector<Key>& keys() const { return keys_; }

 private:
  std::vector<Key> keys_;
};

/// Registry lookups for the EVJ hash/equality kernel pair of a key class.
EvjHashFn EvjHashKernelFor(KernelClass cls);
EvjEqualFn EvjEqualKernelFor(KernelClass cls);

/// Builds an EVJ bee for the given key columns, or nullptr if a key type is
/// not specializable.
std::unique_ptr<EvjBee> TrySpecializeJoinKeys(
    const std::vector<int>& outer_cols, const std::vector<int>& inner_cols,
    const std::vector<ColMeta>& key_meta, PlacementArena* arena);

/// Install-site entry point: builds the bee, then verifies it with
/// BeeVerifier::VerifyEvj under `mode`. `outer_width`/`inner_width` bound the
/// key attribute numbers; pass 0 when a side's width is unknown to skip its
/// range check. Rejections are reported like TrySpecializePredicateChecked.
std::unique_ptr<EvjBee> TrySpecializeJoinKeysChecked(
    const std::vector<int>& outer_cols, const std::vector<int>& inner_cols,
    const std::vector<ColMeta>& key_meta, PlacementArena* arena,
    int outer_width, int inner_width, VerifyMode mode);

}  // namespace microspec::bee

#endif  // MICROSPEC_BEE_QUERY_BEE_H_
