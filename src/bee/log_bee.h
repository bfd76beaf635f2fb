#ifndef MICROSPEC_BEE_LOG_BEE_H_
#define MICROSPEC_BEE_LOG_BEE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/status.h"
#include "storage/page.h"

namespace microspec::bee {

/// The four page-level mutations a physiological WAL record can demand.
/// Redo and undo both reduce to these: redo of kInsert is kInsert, undo of
/// kInsert is kDelete, undo of kDelete is kRestore (re-install at the
/// preserved slot offset), and an in-place kUpdate redoes/undoes as
/// kUpdateInPlace with the corresponding image.
enum class LogApplyOp : uint8_t {
  kInsert = 0,
  kDelete = 1,
  kRestore = 2,
  kUpdateInPlace = 3,
};

/// Step opcodes of the program-tier log applier. The checks validate the
/// tuple image against the relation's catalog-derived layout before any
/// byte touches the page — the same "fold the catalog into straight-line
/// code" move GCL/SCL make, applied to the recovery path. A log bee with a
/// wrong constant re-installs corrupt tuples during redo, so the verifier
/// treats these steps exactly like deform/form steps: re-derive every
/// constant independently and reject on any disagreement.
enum class LogStepOp : uint8_t {
  kCheckNatts = 0,   // arg = expected TupleHeader::natts (stored natts)
  kCheckBeeFlag = 1, // arg = 1 if tuples must carry kTupleHasBeeId, else 0
  kCheckHoff = 2,    // arg = hoff without nulls, arg2 = hoff with nulls
  kCheckLen = 3,     // arg = min image length, arg2 = max image length
  kApply = 4,        // perform the page mutation (must be the final step)
};

struct LogStep {
  LogStepOp op;
  uint32_t arg = 0;
  uint32_t arg2 = 0;
};

/// Image-length bounds derived from the stored schema. For a fixed-layout
/// all-NOT-NULL relation the tuple size is a compile-time constant (min ==
/// max); variable-length or nullable layouts widen to what one page slot
/// can hold. Shared by the compiler, the verifier re-derives it on its own.
struct LogLenBounds {
  uint32_t min_len = 0;
  uint32_t max_len = 0;
};
LogLenBounds ComputeLogLenBounds(const Schema& stored);

/// Per-relation log bee, program tier: a short checked-apply program
/// compiled from the catalog at CREATE TABLE (and at recovery-time catalog
/// rebuild), interpreted by Apply(). The native tier is these same steps
/// lowered to C (NativeJit::LowerRelationBee, one template per LogStepOp)
/// after the verifier has checked them, and is forged beside GCL.
class LogApplierProgram {
 public:
  LogApplierProgram() = default;

  /// Compiles the applier for a relation: `stored` is the on-page layout
  /// (spec columns already removed), `has_tuple_bees` states whether tuple
  /// images must carry the beeID flag.
  static LogApplierProgram Compile(const Schema& stored, bool has_tuple_bees);

  /// Runs the checks against `img`/`len` (skipped for kDelete, which
  /// carries no new image onto the page) and performs the mutation.
  /// Corruption on any image/page-state disagreement.
  Status Apply(char* page, LogApplyOp op, uint16_t slot, const char* img,
               uint32_t len) const;

  const std::vector<LogStep>& steps() const { return steps_; }
  bool empty() const { return steps_.empty(); }

  /// Test seam: build a program from raw steps (the mutation-fuzz harness
  /// feeds single-step mutants through the verifier).
  static LogApplierProgram FromStepsForTesting(std::vector<LogStep> steps) {
    LogApplierProgram p;
    p.steps_ = std::move(steps);
    return p;
  }

  std::string Disassemble() const;

 private:
  std::vector<LogStep> steps_;
};

/// The stock (bee-less) applier: page-structural checks only, no schema
/// knowledge. This is what a bees-off database recovers through, and the
/// baseline the log-bee configurations are differential-tested against.
Status GenericLogApply(char* page, LogApplyOp op, uint16_t slot,
                       const char* img, uint32_t len);

const char* LogApplyOpName(LogApplyOp op);

}  // namespace microspec::bee

#endif  // MICROSPEC_BEE_LOG_BEE_H_
