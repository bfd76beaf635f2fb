#ifndef MICROSPEC_EXEC_SEQ_SCAN_H_
#define MICROSPEC_EXEC_SEQ_SCAN_H_

#include <memory>
#include <optional>
#include <vector>

#include "exec/morsel.h"
#include "exec/operator.h"
#include "storage/heap_file.h"

namespace microspec {

/// Full scan of a relation. Every produced tuple goes through the session's
/// TupleDeformer — the stock per-attribute loop, or the relation bee's GCL
/// routine when micro-specialization is enabled. This is the operator whose
/// inner loop the paper's case study (Section II) measures.
///
/// Without a cursor the scan covers the whole relation once with the
/// unbounded heap iterator, which follows the live tail of a growing file.
/// With a cursor the instance is one worker's slice of a morsel-driven
/// parallel scan: dop instances share the MorselCursor, each claims fixed-
/// size page ranges and scans them with the bounded iterator, so together
/// they produce every tuple exactly once. Each instance resolves its
/// deformer through its own ExecContext — a worker context under
/// parallelism — which keeps GCL bee invocation (and the program→native tier
/// switch via the bee state's acquire load) on the thread that scans.
class SeqScan final : public Operator {
 public:
  /// `natts_to_fetch` < 0 means all attributes; a smaller count enables the
  /// partial-deform early-out both the stock loop and GCL support.
  SeqScan(ExecContext* ctx, TableInfo* table, int natts_to_fetch = -1,
          std::shared_ptr<MorselCursor> cursor = nullptr);

  Status Init() override;
  Status Next(bool* has_row) override;
  /// Page-granular batch: all live tuples of the next heap page, deformed
  /// in one GCL-B call, with the page pinned by the batch. Claims stay
  /// page-granular, so dop composes with batching unchanged.
  Status NextBatch(RowBatch* batch) override;
  bool BatchCapable() const override { return true; }
  void Close() override;

 private:
  /// Points iter_ at the next page range: the whole relation (once) without
  /// a cursor, else the next claimed morsel. False when none is left.
  bool OpenNextRange();

  ExecContext* ctx_;
  TableInfo* table_;
  std::shared_ptr<MorselCursor> cursor_;
  int natts_;
  const TupleDeformer* deformer_ = nullptr;
  std::optional<HeapFile::Iterator> iter_;
  bool whole_opened_ = false;  // cursor-less scans open one range per Init
  std::vector<Datum> values_buf_;
  std::unique_ptr<bool[]> isnull_buf_;
  std::vector<const char*> tuple_buf_;
};

}  // namespace microspec

#endif  // MICROSPEC_EXEC_SEQ_SCAN_H_
