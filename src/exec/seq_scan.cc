#include "exec/seq_scan.h"

namespace microspec {

SeqScan::SeqScan(ExecContext* ctx, TableInfo* table, int natts_to_fetch,
                 std::shared_ptr<MorselCursor> cursor)
    : ctx_(ctx), table_(table), cursor_(std::move(cursor)) {
  int all = table->schema().natts();
  natts_ = (natts_to_fetch < 0 || natts_to_fetch > all) ? all : natts_to_fetch;
  meta_.reserve(static_cast<size_t>(natts_));
  for (int i = 0; i < natts_; ++i) {
    meta_.push_back(ColMeta::FromColumn(table->schema().column(i)));
  }
}

Status SeqScan::Init() {
  deformer_ = ctx_->DeformerFor(table_);
  values_buf_.assign(static_cast<size_t>(natts_), 0);
  isnull_buf_ = std::make_unique<bool[]>(static_cast<size_t>(natts_));
  for (int i = 0; i < natts_; ++i) isnull_buf_[i] = false;
  iter_.reset();  // the first Next opens the first range
  whole_opened_ = false;
  values_ = values_buf_.data();
  isnull_ = isnull_buf_.get();
  return Status::OK();
}

bool SeqScan::OpenNextRange() {
  if (cursor_ == nullptr) {
    if (whole_opened_) return false;
    whole_opened_ = true;
    iter_.emplace(table_->heap()->Scan());
    return true;
  }
  PageNo begin = 0;
  PageNo end = 0;
  if (!cursor_->Claim(&begin, &end)) return false;
  iter_.emplace(table_->heap()->Scan(begin, end));
  return true;
}

Status SeqScan::Next(bool* has_row) {
  const char* tuple = nullptr;
  uint32_t len = 0;
  TupleId tid = 0;
  for (;;) {
    if (iter_.has_value()) {
      if (iter_->Next(&tuple, &len, &tid)) break;
      if (!iter_->status().ok()) return iter_->status();
      iter_.reset();  // range exhausted; release its last page pin
    }
    if (!OpenNextRange()) {
      *has_row = false;
      return Status::OK();
    }
  }
  workops::Bump(10);  // executor node dispatch (ExecProcNode analog)
  deformer_->Deform(tuple, natts_, values_buf_.data(), isnull_buf_.get());
  *has_row = true;
  return Status::OK();
}

Status SeqScan::NextBatch(RowBatch* batch) {
  batch->Reset();
  const int cap = batch->capacity();
  tuple_buf_.resize(static_cast<size_t>(cap));
  int n = 0;
  for (;;) {
    if (iter_.has_value()) {
      n = iter_->NextPageBatch(tuple_buf_.data(), cap, batch->pin());
      if (n > 0) break;
      if (!iter_->status().ok()) return iter_->status();
      iter_.reset();  // range exhausted; release its last page pin
    }
    if (!OpenNextRange()) {
      return Status::OK();  // end of relation; selected() stays 0
    }
  }
  workops::Bump(10);  // executor node dispatch, amortized over the batch
  deformer_->DeformBatch(tuple_buf_.data(), n, natts_, batch->cols(),
                         batch->null_cols());
  batch->SetAllSelected(n);
  return Status::OK();
}

void SeqScan::Close() { iter_.reset(); }

}  // namespace microspec
