#include "exec/hash_join.h"

#include "common/counters.h"
#include "exec/parallel.h"

namespace microspec {

Status DrainJoinBuild(Operator* child, const JoinKeyEvaluator& keys,
                      int batch_rows, Arena* arena,
                      std::vector<JoinBuildRow*>* rows) {
  const std::vector<ColMeta>& meta = child->output_meta();
  const size_t width = meta.size();
  // Copies one row, read cell by cell through `cell_at`
  // (`Datum cell_at(size_t c, bool* isnull)`), and hashes its keys.
  auto append = [&](const auto& cell_at) {
    auto* row = static_cast<JoinBuildRow*>(
        arena->Allocate(sizeof(JoinBuildRow), alignof(JoinBuildRow)));
    row->values =
        static_cast<Datum*>(arena->Allocate(sizeof(Datum) * width, 8));
    row->isnull = static_cast<bool*>(arena->Allocate(width, 1));
    for (size_t c = 0; c < width; ++c) {
      const Datum v = cell_at(c, &row->isnull[c]);
      row->values[c] = row->isnull[c] ? 0 : CopyDatum(arena, v, meta[c]);
    }
    row->hash = keys.HashInner(row->values, row->isnull);
    rows->push_back(row);
  };
  MICROSPEC_RETURN_NOT_OK(child->Init());
  Status st;
  if (batch_rows > 0 && child->BatchCapable()) {
    RowBatch batch(static_cast<int>(width), batch_rows);
    for (;;) {
      st = child->NextBatch(&batch);
      if (!st.ok() || batch.selected() == 0) break;
      const int* sel = batch.sel();
      for (int si = 0; si < batch.selected(); ++si) {
        const int r = sel[si];
        append([&](size_t c, bool* isnull) {
          *isnull = batch.nulls(static_cast<int>(c))[r];
          return batch.col(static_cast<int>(c))[r];
        });
      }
    }
    batch.Reset();  // every row is copied: drop the page pin
  } else {
    bool has_row = false;
    for (;;) {
      st = child->Next(&has_row);
      if (!st.ok() || !has_row) break;
      const Datum* v = child->values();
      const bool* n = child->isnull();
      append([&](size_t c, bool* isnull) {
        *isnull = n != nullptr && n[c];
        return v[c];
      });
    }
  }
  child->Close();
  return st;
}

uint64_t ChainJoinBuild(const std::vector<JoinBuildRow*>& rows,
                        std::vector<JoinBuildRow*>* buckets) {
  size_t nbuckets = 16;
  while (nbuckets < rows.size() * 2) nbuckets <<= 1;
  buckets->assign(nbuckets, nullptr);
  const uint64_t mask = nbuckets - 1;
  for (JoinBuildRow* row : rows) {
    JoinBuildRow*& head = (*buckets)[row->hash & mask];
    row->next = head;
    head = row;
  }
  return mask;
}

HashJoin::HashJoin(ExecContext* ctx, OperatorPtr outer, OperatorPtr inner,
                   std::vector<int> outer_keys, std::vector<int> inner_keys,
                   JoinType join_type, ExprPtr residual)
    : ctx_(ctx),
      outer_(std::move(outer)),
      inner_(std::move(inner)),
      outer_keys_(std::move(outer_keys)),
      inner_keys_(std::move(inner_keys)),
      join_type_(join_type),
      residual_expr_(std::move(residual)) {
  MICROSPEC_CHECK(outer_keys_.size() == inner_keys_.size());
  outer_width_ = outer_->output_meta().size();
  inner_width_ = inner_->output_meta().size();
  meta_ = outer_->output_meta();
  if (join_type_ == JoinType::kInner || join_type_ == JoinType::kLeft) {
    for (const ColMeta& m : inner_->output_meta()) meta_.push_back(m);
  }
}

HashJoin::HashJoin(ExecContext* ctx, OperatorPtr outer,
                   std::shared_ptr<SharedJoinBuild> shared,
                   std::vector<int> outer_keys, std::vector<int> inner_keys,
                   JoinType join_type, ExprPtr residual)
    : ctx_(ctx),
      outer_(std::move(outer)),
      shared_(std::move(shared)),
      outer_keys_(std::move(outer_keys)),
      inner_keys_(std::move(inner_keys)),
      join_type_(join_type),
      residual_expr_(std::move(residual)) {
  MICROSPEC_CHECK(outer_keys_.size() == inner_keys_.size());
  outer_width_ = outer_->output_meta().size();
  inner_width_ = shared_->inner_meta().size();
  meta_ = outer_->output_meta();
  if (join_type_ == JoinType::kInner || join_type_ == JoinType::kLeft) {
    for (const ColMeta& m : shared_->inner_meta()) meta_.push_back(m);
  }
}

HashJoin::~HashJoin() = default;

Status HashJoin::Init() {
  // Query-preparation-time decisions: key kernel (EVJ seam) and join-type
  // dispatch mode.
  std::vector<ColMeta> key_meta;
  key_meta.reserve(outer_keys_.size());
  for (size_t i = 0; i < outer_keys_.size(); ++i) {
    key_meta.push_back(outer_->output_meta()[static_cast<size_t>(
        outer_keys_[i])]);
  }
  if (keys_ == nullptr) {
    keys_ = ctx_->MakeJoinKeys(outer_keys_, inner_keys_, key_meta,
                               static_cast<int>(outer_width_),
                               static_cast<int>(inner_width_));
  }
  if (residual_expr_ != nullptr) {
    residual_ = std::make_unique<ExprPredicate>(std::move(residual_expr_));
  }
  if (ctx_->options().enable_evj) {
    switch (join_type_) {
      case JoinType::kInner:
        next_fn_ = &HashJoin::NextStatic<JoinType::kInner>;
        break;
      case JoinType::kLeft:
        next_fn_ = &HashJoin::NextStatic<JoinType::kLeft>;
        break;
      case JoinType::kSemi:
        next_fn_ = &HashJoin::NextStatic<JoinType::kSemi>;
        break;
      case JoinType::kAnti:
        next_fn_ = &HashJoin::NextStatic<JoinType::kAnti>;
        break;
    }
  } else {
    next_fn_ = &HashJoin::NextGeneric;
  }

  values_buf_.assign(outer_width_ + inner_width_, 0);
  isnull_buf_ = std::make_unique<bool[]>(outer_width_ + inner_width_);
  values_ = values_buf_.data();
  isnull_ = isnull_buf_.get();

  const int cap = ctx_->batch_rows();
  if (cap > 0 && outer_->BatchCapable()) {
    if (outer_batch_ == nullptr || outer_batch_->capacity() != cap) {
      outer_batch_ =
          std::make_unique<RowBatch>(static_cast<int>(outer_width_), cap);
    }
    outer_batch_->Reset();  // a re-Init drops the last run's page pin
    orow_values_.assign(outer_width_, 0);
    orow_isnull_ = std::make_unique<bool[]>(outer_width_);
    outer_values_ = orow_values_.data();
    outer_isnull_ = orow_isnull_.get();
  } else {
    outer_batch_.reset();
  }
  outer_pos_ = 0;

  MICROSPEC_RETURN_NOT_OK(outer_->Init());
  MICROSPEC_RETURN_NOT_OK(BuildTable());
  chain_ = nullptr;
  outer_valid_ = false;
  return Status::OK();
}

Status HashJoin::BuildTable() {
  if (shared_ != nullptr) {
    // Parallel build: participate in (or wait out) the cooperative build,
    // then probe the shared table. Built once; re-Init reuses it.
    MICROSPEC_RETURN_NOT_OK(shared_->EnsureBuilt(*keys_));
    buckets_data_ = shared_->buckets();
    bucket_mask_ = shared_->bucket_mask();
    return Status::OK();
  }
  build_arena_.Reset();  // re-Init rebuilds from scratch
  // The probe's own evaluator hashes the build side too: no second EVJ bee.
  std::vector<BuildRow*> rows;
  MICROSPEC_RETURN_NOT_OK(DrainJoinBuild(inner_.get(), *keys_,
                                         ctx_->batch_rows(), &build_arena_,
                                         &rows));
  bucket_mask_ = ChainJoinBuild(rows, &buckets_);
  buckets_data_ = buckets_.data();
  return Status::OK();
}

Status HashJoin::AdvanceOuter(bool* has_row) {
  if (outer_batch_ == nullptr) {
    MICROSPEC_RETURN_NOT_OK(outer_->Next(has_row));
    outer_values_ = outer_->values();
    outer_isnull_ = outer_->isnull();
    return Status::OK();
  }
  if (outer_pos_ >= outer_batch_->selected()) {
    // Every row of the batch has been emitted, so the refill may release
    // the page its pointer Datums point into.
    MICROSPEC_RETURN_NOT_OK(outer_->NextBatch(outer_batch_.get()));
    outer_pos_ = 0;
    if (outer_batch_->selected() == 0) {
      *has_row = false;
      return Status::OK();
    }
  }
  outer_batch_->GatherRow(outer_batch_->sel()[outer_pos_++],
                          orow_values_.data(), orow_isnull_.get());
  *has_row = true;
  return Status::OK();
}

void HashJoin::EmitCombined(const BuildRow* inner_row) {
  const Datum* ov = outer_values_;
  const bool* on = outer_isnull_;
  for (size_t i = 0; i < outer_width_; ++i) {
    values_buf_[i] = ov[i];
    isnull_buf_[i] = on != nullptr && on[i];
  }
  if (join_type_ == JoinType::kSemi || join_type_ == JoinType::kAnti) return;
  for (size_t i = 0; i < inner_width_; ++i) {
    if (inner_row == nullptr) {
      values_buf_[outer_width_ + i] = 0;
      isnull_buf_[outer_width_ + i] = true;
    } else {
      values_buf_[outer_width_ + i] = inner_row->values[i];
      isnull_buf_[outer_width_ + i] = inner_row->isnull[i];
    }
  }
}

bool HashJoin::RowMatches(const BuildRow* entry) const {
  if (entry->hash != cur_hash_) return false;
  if (!keys_->KeysEqual(outer_values_, outer_isnull_, entry->values,
                        entry->isnull)) {
    return false;
  }
  if (residual_ != nullptr) {
    ExecRow row{outer_values_, outer_isnull_, entry->values, entry->isnull};
    if (!residual_->Matches(row)) return false;
  }
  return true;
}

Status HashJoin::NextGeneric(bool* has_row) {
  for (;;) {
    // Resume a partially-consumed match chain (inner/left emit per match).
    if (outer_valid_) {
      // The stock path re-dispatches on the join type for every probe step,
      // the generality EVJ's pre-compiled variants remove.
      workops::Bump(3);
      switch (join_type_) {
        case JoinType::kInner:
        case JoinType::kLeft:
          while (chain_ != nullptr) {
            BuildRow* entry = chain_;
            chain_ = chain_->next;
            workops::Bump(3);
            if (RowMatches(entry)) {
              outer_matched_ = true;
              EmitCombined(entry);
              *has_row = true;
              return Status::OK();
            }
          }
          if (join_type_ == JoinType::kLeft && !outer_matched_) {
            outer_matched_ = true;
            EmitCombined(nullptr);
            *has_row = true;
            outer_valid_ = false;
            return Status::OK();
          }
          outer_valid_ = false;
          break;
        case JoinType::kSemi:
        case JoinType::kAnti: {
          bool found = false;
          while (chain_ != nullptr) {
            BuildRow* entry = chain_;
            chain_ = chain_->next;
            workops::Bump(3);
            if (RowMatches(entry)) {
              found = true;
              break;
            }
          }
          outer_valid_ = false;
          if (found == (join_type_ == JoinType::kSemi)) {
            EmitCombined(nullptr);
            *has_row = true;
            return Status::OK();
          }
          break;
        }
      }
    }
    // Advance the outer side and start a new probe.
    MICROSPEC_RETURN_NOT_OK(AdvanceOuter(has_row));
    if (!*has_row) return Status::OK();
    cur_hash_ = keys_->HashOuter(outer_values_, outer_isnull_);
    chain_ = buckets_data_[cur_hash_ & bucket_mask_];
    outer_matched_ = false;
    outer_valid_ = true;
    workops::Bump(5);  // bucket computation + probe setup in the stock path
  }
}

template <JoinType JT>
Status HashJoin::NextStatic(bool* has_row) {
  for (;;) {
    if (outer_valid_) {
      if constexpr (JT == JoinType::kInner || JT == JoinType::kLeft) {
        while (chain_ != nullptr) {
          BuildRow* entry = chain_;
          chain_ = chain_->next;
          workops::Bump(2);
          if (RowMatches(entry)) {
            outer_matched_ = true;
            EmitCombined(entry);
            *has_row = true;
            return Status::OK();
          }
        }
        if constexpr (JT == JoinType::kLeft) {
          if (!outer_matched_) {
            outer_matched_ = true;
            EmitCombined(nullptr);
            *has_row = true;
            outer_valid_ = false;
            return Status::OK();
          }
        }
        outer_valid_ = false;
      } else {
        bool found = false;
        while (chain_ != nullptr) {
          BuildRow* entry = chain_;
          chain_ = chain_->next;
          workops::Bump(2);
          if (RowMatches(entry)) {
            found = true;
            break;
          }
        }
        outer_valid_ = false;
        if (found == (JT == JoinType::kSemi)) {
          EmitCombined(nullptr);
          *has_row = true;
          return Status::OK();
        }
      }
    }
    MICROSPEC_RETURN_NOT_OK(AdvanceOuter(has_row));
    if (!*has_row) return Status::OK();
    cur_hash_ = keys_->HashOuter(outer_values_, outer_isnull_);
    chain_ = buckets_data_[cur_hash_ & bucket_mask_];
    outer_matched_ = false;
    outer_valid_ = true;
    workops::Bump(3);
  }
}

Status HashJoin::Next(bool* has_row) { return (this->*next_fn_)(has_row); }

void HashJoin::Close() {
  if (outer_batch_ != nullptr) outer_batch_->Reset();  // drop the page pin
  outer_->Close();
  if (shared_ != nullptr) return;  // the shared table outlives this probe
  buckets_.clear();
  buckets_data_ = nullptr;
  build_arena_.Reset();
}

}  // namespace microspec
