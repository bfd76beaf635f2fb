#ifndef MICROSPEC_EXEC_FILTER_H_
#define MICROSPEC_EXEC_FILTER_H_

#include <memory>
#include <utility>

#include "common/counters.h"
#include "common/telemetry.h"
#include "exec/operator.h"

namespace microspec {

/// Applies a predicate to each child row. The predicate is evaluated either
/// by the generic expression interpreter or by an EVP query bee, decided at
/// Init (query-preparation) time by ExecContext::MakePredicate.
///
/// Rows in and rows out are counted in two member integers on every path
/// (row and batch); under a trace they become the rows/aux of the one
/// aggregated bee span emitted on Close.
class Filter final : public Operator {
 public:
  Filter(ExecContext* ctx, OperatorPtr child, ExprPtr predicate)
      : ctx_(ctx), child_(std::move(child)), pred_expr_(std::move(predicate)) {
    meta_ = child_->output_meta();
  }

  ~Filter() override { EmitBeeSpan(); }

  Status Init() override {
    MICROSPEC_RETURN_NOT_OK(child_->Init());
    // Query preparation happens once; Init may be called again to rescan.
    if (evaluator_ == nullptr) {
      const bool traced = static_cast<bool>(ctx_->trace());
      if (traced) prepare_ns_ = telemetry::NowNs();
      evaluator_ = ctx_->MakePredicate(std::move(pred_expr_), &meta_);
      // The generic interpreter is an ExprPredicate (or end of the chain);
      // anything else is a specialized EVP artifact.
      specialized_ =
          dynamic_cast<ExprPredicate*>(evaluator_.get()) == nullptr;
    }
    values_ = child_->values();
    isnull_ = child_->isnull();
    return Status::OK();
  }

  Status Next(bool* has_row) override {
    for (;;) {
      MICROSPEC_RETURN_NOT_OK(child_->Next(has_row));
      if (!*has_row) return Status::OK();
      ++rows_in_;
      ExecRow row{child_->values(), child_->isnull(), nullptr, nullptr};
      workops::Bump(6);  // qual-node dispatch per input row
      if (evaluator_->Matches(row)) {
        ++rows_out_;
        values_ = child_->values();
        isnull_ = child_->isnull();
        return Status::OK();
      }
    }
  }

  /// Batch path: narrows the child batch's selection vector in place — no
  /// row is copied or moved. With an EVP bee the compaction runs through
  /// the bee's batch kernels (EVP-B); otherwise through the generic
  /// gather-and-interpret fallback.
  Status NextBatch(RowBatch* batch) override {
    for (;;) {
      MICROSPEC_RETURN_NOT_OK(child_->NextBatch(batch));
      if (batch->selected() == 0) return Status::OK();  // end of stream
      rows_in_ += static_cast<uint64_t>(batch->selected());
      workops::Bump(6);  // qual-node dispatch, amortized over the batch
      const int nsel = evaluator_->MatchBatch(
          batch->cols(), batch->null_cols(), batch->ncols(), batch->sel(),
          batch->selected());
      batch->SetSelected(nsel);
      rows_out_ += static_cast<uint64_t>(nsel);
      // A fully filtered-out batch must not read as end-of-stream.
      if (nsel > 0) return Status::OK();
    }
  }

  bool BatchCapable() const override { return child_->BatchCapable(); }

  void Close() override {
    child_->Close();
    EmitBeeSpan();
  }

 private:
  void EmitBeeSpan() {
    if (rows_in_ == 0 && rows_out_ == 0) return;
    const trace::TraceContext& tc = ctx_->trace();
    if (tc && evaluator_ != nullptr) {
      // One aggregated bee-invocation span per run: rows = rows in,
      // aux = rows out, window = prepare..close. Parent resolves to the
      // exec span via the trace's default parent.
      tc.trace->AddComplete(tc.trace->default_parent(), trace::SpanKind::kBee,
                            specialized_ ? "evp-bee" : "evp-interp",
                            prepare_ns_ != 0 ? prepare_ns_
                                             : telemetry::NowNs(),
                            telemetry::NowNs(), trace::WaitKind::kNone,
                            rows_in_, rows_out_);
    }
    rows_in_ = rows_out_ = 0;
  }

  ExecContext* ctx_;
  OperatorPtr child_;
  ExprPtr pred_expr_;
  std::unique_ptr<PredicateEvaluator> evaluator_;
  bool specialized_ = false;
  uint64_t prepare_ns_ = 0;
  uint64_t rows_in_ = 0;
  uint64_t rows_out_ = 0;
};

}  // namespace microspec

#endif  // MICROSPEC_EXEC_FILTER_H_
