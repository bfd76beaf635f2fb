#ifndef MICROSPEC_BEE_NATIVE_JIT_H_
#define MICROSPEC_BEE_NATIVE_JIT_H_

#include <mutex>
#include <string>
#include <vector>

#include "bee/deform_program.h"
#include "bee/log_bee.h"
#include "common/macros.h"
#include "common/result.h"
#include "common/status.h"

namespace microspec::bee {

/// Signature of a natively compiled GCL routine. `sections` is the per-
/// beeID array of datum arrays (the data-section holes of Listing 2);
/// nullptr for relations without tuple bees.
using NativeGclFn = void (*)(const char* tuple, int natts,
                             unsigned long* values, char* isnull,
                             const unsigned long* const* sections);

/// Signature of the natively compiled GCL-B routine (`<symbol>_b`): deforms
/// `ntuples` tuples — all live tuples of one pinned page — in a single
/// call, writing column-major (cols[a][r] / nulls[a][r] receive attribute
/// `a` of tuples[r]).
using NativeGclBatchFn = void (*)(const char* const* tuples, int ntuples,
                                  int natts, unsigned long* const* cols,
                                  char* const* nulls,
                                  const unsigned long* const* sections);

/// Signature of the natively compiled log-bee applier (`<symbol>_la`):
/// applies one physiological WAL mutation to a pinned page after checking
/// the tuple image against the relation's layout constants. Returns 0 on
/// success, a small positive diagnostic code on any check or page-state
/// failure (the caller maps codes back to Status::Corruption).
using NativeLogApplyFn = int (*)(char* page, int op, unsigned int slot,
                                 const char* img, unsigned int len);

/// All three entry points of one compiled relation-bee shared object:
/// scalar GCL, GCL-B page batch, and the log applier.
struct NativeGclTriple {
  NativeGclFn scalar = nullptr;
  NativeGclBatchFn batch = nullptr;
  NativeLogApplyFn log_apply = nullptr;
};

/// --- The native bee backend -------------------------------------------------
/// A relation bee has one intermediate representation: the DeformProgram and
/// LogApplierProgram steps the bee verifier proves against the catalog. The
/// program tier interprets those steps; this backend lowers the same steps to
/// C (one template per DeformOp and per LogStepOp, cf. the paper's Listing
/// 2), invokes the system C compiler to build a shared object, and dlopens
/// the resulting routines. Every schema constant in the C text is a field of
/// a verified step, so the native tier needs no verifier of its own; the
/// deform and log-applier differentials (native vs program vs generic) are
/// the proof that the templates themselves are right. The paper extracts
/// function bodies from the ELF object into its bee cache; we keep the .so
/// itself as the cached executable form.
///
/// The paper invokes gcc inline at CREATE TABLE ("bee creation overhead is
/// not critical ... we can invoke gcc", Section III-B); under the forge
/// (bee/forge.h) compilation instead happens on background workers, so every
/// entry point here is safe to call from multiple threads concurrently.
class NativeJit {
 public:
  NativeJit() = default;
  ~NativeJit();
  MICROSPEC_DISALLOW_COPY_AND_MOVE(NativeJit);

  /// True if a C compiler is available on this host. Probed exactly once
  /// (thread-safe: forge workers and DDL threads may race the first call).
  static bool CompilerAvailable();

  /// Lowers one relation bee to a single C translation unit: the scalar GCL
  /// routine `symbol` and its GCL-B page-batch sibling `symbol`_b from the
  /// deform program's no-NULLs fast path `deform` (DeformProgram::steps()),
  /// and the log applier `symbol`_la from `log` (LogApplierProgram::steps()).
  /// The routines assume NOT-NULL tuple images; NULL-carrying tuples and
  /// pages stay on the program tier. Callers lower only programs that have
  /// been through the verifier (or deliberately skipped it, VerifyMode::kOff).
  static std::string LowerRelationBee(const std::vector<DeformStep>& deform,
                                      const std::vector<LogStep>& log,
                                      const std::string& symbol);

  /// Compiles and loads a lowered relation bee: writes `source` to
  /// `work_dir`/`symbol`.c (the on-disk bee cache), runs
  /// `cc -O2 -shared -fPIC`, dlopens the result, and resolves `symbol`,
  /// `symbol`_b and `symbol`_la together, so a source missing any of them
  /// never half-publishes. On any failure the .c/.so are removed and the
  /// Status message carries the compiler's captured stderr.
  Result<NativeGclTriple> Compile(const std::string& source,
                                  const std::string& work_dir,
                                  const std::string& symbol);

 private:
  std::mutex mutex_;            // guards handles_ (forge workers race here)
  std::vector<void*> handles_;  // dlopen handles, closed on destruction
};

}  // namespace microspec::bee

#endif  // MICROSPEC_BEE_NATIVE_JIT_H_
