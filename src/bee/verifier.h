#ifndef MICROSPEC_BEE_VERIFIER_H_
#define MICROSPEC_BEE_VERIFIER_H_

#include <string>
#include <vector>

#include "bee/deform_program.h"
#include "bee/log_bee.h"
#include "bee/query_bee.h"
#include "catalog/schema.h"
#include "common/status.h"
#include "expr/expr.h"

namespace microspec::bee {

/// When the bee module verifies freshly compiled specialization code.
/// A bee replaces the metadata-checked generic path with straight-line code,
/// so a bad bee is a silent data-corruption bug; the verifier is the type
/// system those hot paths otherwise lack.
enum class VerifyMode : uint8_t {
  kOff,      // trust the compiler (the seed behaviour)
  kWarn,     // verify, log rejects to stderr, install the bee anyway
  kEnforce,  // verify, refuse to install a rejected bee (tests run here)
};

const char* VerifyModeName(VerifyMode mode);

/// --- The bee verifier -------------------------------------------------------
/// An eBPF-style static verifier for generated specialization code: before a
/// relation bee is installed, its compiled DeformProgram / FormProgram is
/// abstract-interpreted against the catalog schemas. The abstract domain is
/// the tuple cursor — a state machine that starts in *fixed* mode (every
/// offset a compile-time constant, aligned per common/align.h) and moves to
/// *dynamic* mode at the first variable-length stored attribute. The
/// verifier replays each step through that model and rejects programs that:
///
///   - carry a fixed offset that is misaligned or disagrees with the model's
///     monotonically advancing cursor,
///   - use a fixed-mode op after the cursor has gone dynamic (or a dynamic
///     op while the layout is still provably fixed),
///   - index out of range (`out` past the logical schema, `stored` past the
///     stored schema, a section slot past the specialized columns),
///   - mismatch the column's physical type (op width, char(n) length,
///     alignment),
///   - omit `maybe_null` on a nullable stored attribute in the null-aware
///     variant (a missed bitmap test reads garbage),
///   - fail to cover every logical attribute exactly once in ascending
///     order (the partial-deform early-out depends on it), or
///   - let the fast path and the null_steps variant disagree on shape.
///
/// The native backend needs no verifier of its own: NativeJit lowers the
/// very steps checked here to C (one template per op), so both tiers answer
/// to one verified IR, and the deform and log-applier differentials prove
/// the templates against the program tier and the generic paths.
class BeeVerifier {
 public:
  /// Verifies a compiled GCL program. On rejection the Status message
  /// carries a step-level diagnostic plus the program disassembly.
  static Status VerifyDeform(const DeformProgram& program,
                             const Schema& logical, const Schema& stored,
                             const std::vector<int>& spec_cols);

  /// Step-level entry point (also used by negative tests, which feed
  /// mutated copies of a compiled program's steps).
  static Status VerifyDeformSteps(const std::vector<DeformStep>& steps,
                                  const std::vector<DeformStep>& null_steps,
                                  const Schema& logical, const Schema& stored,
                                  const std::vector<int>& spec_cols);

  /// Verifies a compiled SCL program (step shape, stored ordinals, header
  /// sizes) against the same layout model.
  static Status VerifyForm(const FormProgram& program, const Schema& logical,
                           const Schema& stored,
                           const std::vector<int>& spec_cols);

  static Status VerifyFormSteps(const std::vector<FormStep>& steps,
                                uint32_t header_size,
                                uint32_t header_size_nulls,
                                const Schema& logical, const Schema& stored,
                                const std::vector<int>& spec_cols);

  /// --- Log-bee verification -------------------------------------------------
  /// Verifies a compiled log-applier program against the relation's stored
  /// layout. A log bee with a wrong constant silently re-installs corrupt
  /// tuples during redo, so the verifier re-derives every burned-in value on
  /// its own (natts, the beeID-flag expectation, both header offsets, and
  /// the image-length bounds — the bounds via an independent layout walk,
  /// not ComputeLogLenBounds) and rejects programs that:
  ///
  ///   - disagree with any re-derived constant,
  ///   - omit a check family, run one twice, or add an unknown step,
  ///   - place the kApply step anywhere but last, or perform more than one
  ///     page mutation per record.
  ///
  /// `spec_cols` states whether tuple images must carry the beeID flag
  /// (non-empty means the relation has tuple bees).
  static Status VerifyLogApplier(const std::vector<LogStep>& steps,
                                 const Schema& logical, const Schema& stored,
                                 const std::vector<int>& spec_cols);

  /// --- Query-bee verification -----------------------------------------------
  /// Abstract-interprets a compiled EVP clause program against the expression
  /// tree it claims to implement and (when `input_meta` is non-null) the
  /// operator's input schema. The verifier independently re-derives the
  /// expected lowering — conjunct flattening, constant/operand swap,
  /// char(n) blank-padding, IN-list encoding — and rejects bees whose:
  ///
  ///   - clause count or order disagrees with the conjunction (the
  ///     short-circuit contract evaluates clauses in conjunct order),
  ///   - column references are out of range or name a column whose type
  ///     class does not match the kernel's monomorphization,
  ///   - char(n) lengths disagree with the catalog's declared attlen,
  ///   - null guard was dropped (every clause must fail on a NULL cell),
  ///   - patched constants / LIKE needles / IN-lists differ from the
  ///     expression's literals,
  ///   - row-form kernel is not the registry kernel for the clause's
  ///     monomorphization coordinates, or whose batch-form kernel is not
  ///     that row kernel's value-form sibling — the check that makes the
  ///     scalar and EVP-B paths provably shape-equivalent.
  static Status VerifyEvp(const EvpBee& bee, const Expr& expr,
                          const std::vector<ColMeta>* input_meta);

  /// Verifies a compiled EVJ key program: key count, patched attribute
  /// numbers (bounded by `outer_width`/`inner_width` when positive; pass 0
  /// for a side whose width is unknown), char(n) key lengths, and the
  /// hash/equality kernel pair against the registry entry for each key's
  /// type class.
  static Status VerifyEvj(const EvjBee& bee,
                          const std::vector<int>& outer_cols,
                          const std::vector<int>& inner_cols,
                          const std::vector<ColMeta>& key_meta,
                          int outer_width, int inner_width);

  /// Routes a verifier rejection through telemetry: bumps the
  /// `microspec_bee_verify_rejects_total` counter and records a
  /// "verify-rejected <family>: <subject>: <diagnostic>" span on the
  /// background lane (trace::RecordEvent). Returns true when `mode` is
  /// kEnforce — i.e. when the caller must refuse the install.
  static bool ReportReject(const char* family, const std::string& subject,
                           const Status& st, VerifyMode mode);
};

}  // namespace microspec::bee

#endif  // MICROSPEC_BEE_VERIFIER_H_
