#include "exec/hash_agg.h"

#include "common/counters.h"

namespace microspec {

namespace {

bool ArgIsFloat(const ColMeta& m) { return m.type == TypeId::kFloat64; }

ColMeta AggOutputMeta(const AggSpec& spec, const ColMeta& arg_meta) {
  switch (spec.kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      return ColMeta::Of(TypeId::kInt64);
    case AggKind::kSum:
      return ArgIsFloat(arg_meta) ? ColMeta::Of(TypeId::kFloat64)
                                  : ColMeta::Of(TypeId::kInt64);
    case AggKind::kAvg:
      return ColMeta::Of(TypeId::kFloat64);
    case AggKind::kMin:
    case AggKind::kMax:
      return arg_meta;
  }
  return ColMeta::Of(TypeId::kInt64);
}

bool IsIntKind(TypeId t) {
  return t == TypeId::kBool || t == TypeId::kInt32 || t == TypeId::kInt64 ||
         t == TypeId::kDate;
}

/// Monomorphized aggregate-update kernels (the aggregation bee's
/// pre-compiled variants, also run by batch accumulation). One
/// instantiation per (kind x argument type); one argument cell in. Only
/// by-value argument types get one, so storing the extreme Datum directly
/// (no arena copy) is always safe.
void SumFloatKernel(HashAggregate::AggState& st, Datum v, bool n) {
  if (n) return;
  st.fsum += DatumToFloat64(v);
  ++st.count;
}
void SumIntKernel(HashAggregate::AggState& st, Datum v, bool n) {
  if (n) return;
  st.isum += DatumToInt64(v);
  ++st.count;
}
void CountKernel(HashAggregate::AggState& st, Datum, bool n) {
  if (n) return;
  ++st.count;
}
void CountStarKernel(HashAggregate::AggState& st, Datum, bool) {
  ++st.count;
}
template <bool kMin>
void ExtremeFloatKernel(HashAggregate::AggState& st, Datum v, bool n) {
  if (n) return;
  double x = DatumToFloat64(v);
  if (!st.has_value ||
      (kMin ? x < DatumToFloat64(st.extreme) : x > DatumToFloat64(st.extreme))) {
    st.extreme = DatumFromFloat64(x);
    st.has_value = true;
  }
}
template <bool kMin>
void ExtremeIntKernel(HashAggregate::AggState& st, Datum v, bool n) {
  if (n) return;
  int64_t x = DatumToInt64(v);
  if (!st.has_value ||
      (kMin ? x < DatumToInt64(st.extreme) : x > DatumToInt64(st.extreme))) {
    st.extreme = DatumFromInt64(x);
    st.has_value = true;
  }
}

}  // namespace

void HashAggregate::BuildKernels() {
  kernels_.clear();
  all_kernels_ = true;
  for (size_t i = 0; i < aggs_.size(); ++i) {
    Kernel k;
    const AggSpec& spec = aggs_[i];
    if (spec.kind == AggKind::kCountStar) {
      k.fn = CountStarKernel;
      kernels_.push_back(k);
      continue;
    }
    // Only bare outer-column arguments of by-value type qualify; anything
    // else uses the generic fold for that spec (as with EVP's unsupported
    // shapes).
    if (spec.arg->kind() == ExprKind::kVar) {
      const auto& var = static_cast<const VarExpr&>(*spec.arg);
      if (var.side() == RowSide::kOuter) {
        k.attno = var.attno();
        bool is_float = agg_arg_meta_[i].type == TypeId::kFloat64;
        bool is_int = IsIntKind(agg_arg_meta_[i].type);
        switch (spec.kind) {
          case AggKind::kCount:
            k.fn = CountKernel;
            break;
          case AggKind::kSum:
          case AggKind::kAvg:
            if (is_float) {
              k.fn = SumFloatKernel;
            } else if (is_int) {
              k.fn = SumIntKernel;
            }
            break;
          case AggKind::kMin:
            if (is_float) {
              k.fn = ExtremeFloatKernel<true>;
            } else if (is_int) {
              k.fn = ExtremeIntKernel<true>;
            }
            break;
          case AggKind::kMax:
            if (is_float) {
              k.fn = ExtremeFloatKernel<false>;
            } else if (is_int) {
              k.fn = ExtremeIntKernel<false>;
            }
            break;
          default:
            break;
        }
      }
    }
    if (k.fn == nullptr) all_kernels_ = false;
    kernels_.push_back(k);
  }
}

HashAggregate::HashAggregate(ExecContext* ctx, OperatorPtr child,
                             std::vector<int> group_cols,
                             std::vector<AggSpec> aggs)
    : ctx_(ctx),
      child_(std::move(child)),
      group_cols_(std::move(group_cols)),
      aggs_(std::move(aggs)) {
  for (int c : group_cols_) {
    group_meta_.push_back(child_->output_meta()[static_cast<size_t>(c)]);
    meta_.push_back(group_meta_.back());
  }
  for (const AggSpec& a : aggs_) {
    ColMeta am =
        a.arg != nullptr ? a.arg->meta() : ColMeta::Of(TypeId::kInt64);
    agg_arg_meta_.push_back(am);
    meta_.push_back(AggOutputMeta(a, am));
  }
  BuildKernels();
}

Status HashAggregate::Init() {
  accumulated_ = false;
  emit_pos_ = 0;
  groups_.clear();
  arena_.Reset();
  buckets_.assign(kInitialBuckets, nullptr);
  bucket_mask_ = buckets_.size() - 1;
  values_buf_.assign(meta_.size(), 0);
  isnull_buf_ = std::make_unique<bool[]>(meta_.size());
  values_ = values_buf_.data();
  isnull_ = isnull_buf_.get();
  use_kernels_ = ctx_->options().enable_agg_bee;
  return child_->Init();
}

template <typename KeyAt>
uint64_t HashAggregate::HashKeys(const KeyAt& key_at) const {
  // Generic: per-key type dispatch.
  uint64_t h = 0;
  for (size_t i = 0; i < group_cols_.size(); ++i) {
    workops::Bump(2);
    bool isnull = false;
    Datum v = key_at(i, &isnull);
    if (isnull) continue;
    h = DatumHashGeneric(v, group_meta_[i], h);
  }
  return h;
}

template <bool kCharged, typename KeyAt>
HashAggregate::Group* HashAggregate::FindOrCreateGroup(uint64_t h,
                                                       const KeyAt& key_at) {
  const size_t nkeys = group_cols_.size();
  Group* g = buckets_[h & bucket_mask_];
  while (g != nullptr) {
    if constexpr (kCharged) workops::Bump(2);
    if (g->hash == h) {
      bool eq = true;
      for (size_t i = 0; i < nkeys; ++i) {
        bool rn = false;
        Datum v = key_at(i, &rn);
        if (rn != g->keynull[i] ||
            (!rn && !DatumEqualsGeneric(v, g->keys[i], group_meta_[i]))) {
          eq = false;
          break;
        }
      }
      if (eq) return g;
    }
    g = g->next;
  }
  g = static_cast<Group*>(arena_.Allocate(sizeof(Group), alignof(Group)));
  g->hash = h;
  g->keys = static_cast<Datum*>(
      arena_.Allocate(sizeof(Datum) * (nkeys == 0 ? 1 : nkeys), 8));
  g->keynull = static_cast<bool*>(arena_.Allocate(nkeys == 0 ? 1 : nkeys, 1));
  for (size_t i = 0; i < nkeys; ++i) {
    Datum v = key_at(i, &g->keynull[i]);
    g->keys[i] = g->keynull[i] ? 0 : CopyDatum(&arena_, v, group_meta_[i]);
  }
  g->states = static_cast<AggState*>(arena_.Allocate(
      sizeof(AggState) * (aggs_.empty() ? 1 : aggs_.size()),
      alignof(AggState)));
  for (size_t i = 0; i < aggs_.size(); ++i) g->states[i] = AggState{};
  g->next = buckets_[h & bucket_mask_];
  buckets_[h & bucket_mask_] = g;
  groups_.push_back(g);
  if (groups_.size() > buckets_.size()) GrowBuckets();
  return g;
}

void HashAggregate::GrowBuckets() {
  buckets_.assign(buckets_.size() * 2, nullptr);
  bucket_mask_ = buckets_.size() - 1;
  for (Group* g : groups_) {
    Group*& head = buckets_[g->hash & bucket_mask_];
    g->next = head;
    head = g;
  }
}

// inline: the generic update runs it per aggregate per row.
inline void HashAggregate::FoldValue(AggState& st, size_t i, Datum v) {
  const AggKind kind = aggs_[i].kind;
  switch (kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      ++st.count;
      break;
    case AggKind::kSum:
    case AggKind::kAvg:
      if (ArgIsFloat(agg_arg_meta_[i])) {
        st.fsum += DatumToFloat64(v);
      } else {
        st.isum += DatumToInt64(v);
      }
      ++st.count;
      break;
    case AggKind::kMin:
    case AggKind::kMax: {
      if (!st.has_value) {
        st.extreme = CopyDatum(&arena_, v, agg_arg_meta_[i]);
        st.has_value = true;
        break;
      }
      int c = DatumCompareGeneric(v, st.extreme, agg_arg_meta_[i]);
      if ((kind == AggKind::kMin && c < 0) ||
          (kind == AggKind::kMax && c > 0)) {
        st.extreme = CopyDatum(&arena_, v, agg_arg_meta_[i]);
      }
      break;
    }
  }
}

void HashAggregate::UpdateGeneric(Group* g, const ExecRow& row) {
  // The generic update loop: per aggregate, evaluate the argument through
  // the interpreter and dispatch on kind and argument type.
  for (size_t i = 0; i < aggs_.size(); ++i) {
    AggState& st = g->states[i];
    const AggSpec& spec = aggs_[i];
    workops::Bump(5);  // agg-kind dispatch + state load
    if (spec.kind == AggKind::kCountStar) {
      ++st.count;
      continue;
    }
    bool isnull = false;
    Datum v = spec.arg->Eval(row, &isnull);
    if (isnull) continue;  // SQL aggregates skip NULLs
    if (spec.kind != AggKind::kCount) workops::Bump(3);  // arg-type dispatch
    FoldValue(st, i, v);
  }
}

void HashAggregate::UpdateWithKernels(Group* g, const ExecRow& row) {
  uint64_t ops = 0;
  for (size_t i = 0; i < kernels_.size(); ++i) {
    const Kernel& k = kernels_[i];
    ops += 2;  // the bee's whole per-aggregate cost
    if (k.fn != nullptr) {
      if (k.attno < 0) {
        k.fn(g->states[i], 0, false);
      } else {
        k.fn(g->states[i], row.values[k.attno],
             row.isnull != nullptr && row.isnull[k.attno]);
      }
      continue;
    }
    // Fallback: the generic fold for this one spec.
    bool isnull = false;
    Datum v = aggs_[i].arg->Eval(row, &isnull);
    if (!isnull) FoldValue(g->states[i], i, v);
  }
  workops::Bump(ops);
}

Status HashAggregate::Accumulate() {
  MICROSPEC_RETURN_NOT_OK(ctx_->batch_rows() > 0 && child_->BatchCapable()
                              ? AccumulateBatch()
                              : AccumulateRows());
  child_->Close();
  // Global aggregation over an empty input still yields one row. It is
  // chained into the table too so MergeFrom finds it: dop parallel partials
  // over an empty input each create this group, and the merge must
  // collapse them into one output row, not dop of them.
  if (groups_.empty() && group_cols_.empty()) {
    FindOrCreateGroup<false>(0, [](size_t, bool* isnull) {
      *isnull = true;  // no key cells to read
      return Datum{0};
    });
  }
  return Status::OK();
}

Status HashAggregate::AccumulateRows() {
  bool has_row = false;
  for (;;) {
    MICROSPEC_RETURN_NOT_OK(child_->Next(&has_row));
    if (!has_row) break;
    const Datum* cv = child_->values();
    const bool* cn = child_->isnull();
    ExecRow row{cv, cn, nullptr, nullptr};
    workops::Bump(8);  // agg-node dispatch per input row
    auto key_at = [&](size_t i, bool* isnull) {
      const int c = group_cols_[i];
      *isnull = cn != nullptr && cn[c];
      return cv[c];
    };
    Group* g = FindOrCreateGroup<true>(HashKeys(key_at), key_at);
    if (use_kernels_) {
      UpdateWithKernels(g, row);
    } else {
      UpdateGeneric(g, row);
    }
  }
  return Status::OK();
}

Status HashAggregate::AccumulateBatch() {
  const int child_ncols = static_cast<int>(child_->output_meta().size());
  const int cap = ctx_->batch_rows();
  if (batch_ == nullptr || batch_->capacity() != cap ||
      batch_->ncols() != child_ncols) {
    batch_ = std::make_unique<RowBatch>(child_ncols, cap);
  }
  crow_values_.assign(static_cast<size_t>(child_ncols), 0);
  crow_isnull_ = std::make_unique<bool[]>(static_cast<size_t>(child_ncols));
  for (;;) {
    MICROSPEC_RETURN_NOT_OK(child_->NextBatch(batch_.get()));
    const int nsel = batch_->selected();
    if (nsel == 0) break;
    workops::Bump(8);  // agg-node dispatch, amortized over the batch
    const int* sel = batch_->sel();
    for (int si = 0; si < nsel; ++si) {
      const int r = sel[si];
      // Group keys hash and compare straight out of the column arrays.
      auto key_at = [&](size_t i, bool* isnull) {
        const int c = group_cols_[i];
        *isnull = batch_->nulls(c)[r];
        return batch_->col(c)[r];
      };
      Group* g = FindOrCreateGroup<true>(HashKeys(key_at), key_at);

      if (all_kernels_) {
        // Column-at-a-time update: one cell load per aggregate, no row.
        uint64_t ops = 0;
        for (size_t i = 0; i < kernels_.size(); ++i) {
          const Kernel& k = kernels_[i];
          // A flat modeled cost per aggregate: 2 with the bee on (as the
          // scalar bee update), 8 with it off — not the scalar generic
          // update's 5 (+3 for a non-NULL SUM/AVG/MIN/MAX). The batch
          // savings are the amortized dispatch, not the arithmetic.
          ops += use_kernels_ ? 2 : 8;
          if (k.attno < 0) {
            k.fn(g->states[i], 0, false);
          } else {
            k.fn(g->states[i], batch_->col(k.attno)[r],
                 batch_->nulls(k.attno)[r]);
          }
        }
        workops::Bump(ops);
      } else {
        // Some aggregate needs the full row (expression argument or
        // by-reference extreme): gather once and reuse the scalar update.
        batch_->GatherRow(r, crow_values_.data(), crow_isnull_.get());
        ExecRow row{crow_values_.data(), crow_isnull_.get(), nullptr, nullptr};
        if (use_kernels_) {
          UpdateWithKernels(g, row);
        } else {
          UpdateGeneric(g, row);
        }
      }
    }
  }
  return Status::OK();
}

void HashAggregate::EmitGroup(const Group* g) {
  size_t out = 0;
  for (size_t i = 0; i < group_cols_.size(); ++i, ++out) {
    values_buf_[out] = g->keys[i];
    isnull_buf_[out] = g->keynull[i];
  }
  for (size_t i = 0; i < aggs_.size(); ++i, ++out) {
    const AggState& st = g->states[i];
    isnull_buf_[out] = false;
    switch (aggs_[i].kind) {
      case AggKind::kCountStar:
      case AggKind::kCount:
        values_buf_[out] = DatumFromInt64(st.count);
        break;
      case AggKind::kSum:
        if (st.count == 0) {
          isnull_buf_[out] = true;
          values_buf_[out] = 0;
        } else if (ArgIsFloat(agg_arg_meta_[i])) {
          values_buf_[out] = DatumFromFloat64(st.fsum);
        } else {
          values_buf_[out] = DatumFromInt64(st.isum);
        }
        break;
      case AggKind::kAvg:
        if (st.count == 0) {
          isnull_buf_[out] = true;
          values_buf_[out] = 0;
        } else {
          double total = ArgIsFloat(agg_arg_meta_[i])
                             ? st.fsum
                             : static_cast<double>(st.isum);
          values_buf_[out] =
              DatumFromFloat64(total / static_cast<double>(st.count));
        }
        break;
      case AggKind::kMin:
      case AggKind::kMax:
        if (!st.has_value) {
          isnull_buf_[out] = true;
          values_buf_[out] = 0;
        } else {
          values_buf_[out] = st.extreme;
        }
        break;
    }
  }
}

Status HashAggregate::PartialAccumulate() {
  MICROSPEC_RETURN_NOT_OK(Init());
  MICROSPEC_RETURN_NOT_OK(Accumulate());
  accumulated_ = true;
  return Status::OK();
}

void HashAggregate::MergeFrom(HashAggregate* src) {
  for (Group* sg : src->groups_) {
    // Unlike Accumulate the key values come from the source group, not a
    // child row, and the hash is the one the partial already computed.
    Group* g = FindOrCreateGroup<false>(sg->hash, [&](size_t i, bool* isnull) {
      *isnull = sg->keynull[i];
      return sg->keys[i];
    });
    for (size_t i = 0; i < aggs_.size(); ++i) {
      AggState& d = g->states[i];
      const AggState& s = sg->states[i];
      d.fsum += s.fsum;
      d.isum += s.isum;
      d.count += s.count;
      // Only MIN/MAX states carry a value: fold it as one more argument.
      if (s.has_value) FoldValue(d, i, s.extreme);
    }
  }
}

Status HashAggregate::Next(bool* has_row) {
  if (!accumulated_) {
    MICROSPEC_RETURN_NOT_OK(Accumulate());
    accumulated_ = true;
  }
  if (emit_pos_ >= groups_.size()) {
    *has_row = false;
    return Status::OK();
  }
  EmitGroup(groups_[emit_pos_++]);
  *has_row = true;
  return Status::OK();
}

void HashAggregate::Close() {
  groups_.clear();
  buckets_.clear();
  arena_.Reset();
  if (batch_ != nullptr) batch_->Reset();  // drop any page pin held mid-error
}

}  // namespace microspec
