#include "exec/parallel.h"

#include "common/telemetry.h"
#include "common/tracing.h"

namespace microspec {

// --- Gather -----------------------------------------------------------------

Gather::Gather(ExecContext* ctx, std::vector<OperatorPtr> workers,
               std::vector<std::unique_ptr<ExecContext>> worker_ctxs,
               std::vector<std::shared_ptr<MorselCursor>> cursors)
    : ctx_(ctx),
      workers_(std::move(workers)),
      worker_ctxs_(std::move(worker_ctxs)),
      cursors_(std::move(cursors)) {
  MICROSPEC_CHECK(!workers_.empty());
  meta_ = workers_[0]->output_meta();
  width_ = meta_.size();
  row_values_.assign(width_, 0);
  row_isnull_ = std::make_unique<bool[]>(width_ + 1);
}

Gather::~Gather() { StopWorkers(); }

Status Gather::Init() {
  StopWorkers();  // rescan: quiesce any previous run first
  cur_.reset();
  cur_sel_ = 0;
  worker_status_ = Status::OK();
  cancelled_.store(false, std::memory_order_release);
  for (const auto& c : cursors_) c->Reset();
  inline_mode_ =
      ctx_->executor() == nullptr || ThreadPool::OnWorkerThread();
  inline_cur_ = 0;
  inline_open_ = false;
  if (inline_mode_) return Status::OK();
  {
    std::lock_guard<std::mutex> l(mu_);
    queue_.clear();
    max_queue_ =
        workers_.size() * static_cast<size_t>(ctx_->gather_max_batches());
    active_ = workers_.size();
    started_ = true;
  }
  // Producers may block mid-task on the bounded queue; reserve pool
  // capacity so they can all hold threads while parked without starving a
  // sibling exchange's workers (see ThreadPool::Reserve).
  ctx_->executor()->Reserve(static_cast<int>(workers_.size()));
  for (size_t i = 0; i < workers_.size(); ++i) {
    ctx_->executor()->Submit([this, i] { WorkerMain(i); });
  }
  return Status::OK();
}

void Gather::WorkerMain(size_t i) {
  // Install the sampled query's trace (if any) on this worker thread so
  // shared stall sites — buffer-pool reads, the bounded queue below — can
  // attribute their waits. No-op (one TLS store) for unsampled queries.
  const trace::TraceContext wtc = worker_ctxs_[i]->trace();
  trace::ThreadTraceScope trace_scope(wtc.trace, wtc.parent);
  Operator* op = workers_[i].get();
  Status st = op->Init();
  if (st.ok()) {
    // With batching on, each hand-off batch is the fragment's real NextBatch
    // output (page-granular at a scan leaf, the page pin riding inside).
    // With batching off, the scalar adapter deep-copies kScalarBatchRows
    // rows per batch — the explicit ScalarNextIntoBatch call (not the
    // virtual) guarantees batch-off runs never enter a batch implementation.
    const int cap = ctx_->batch_rows();
    const bool use_batch = cap > 0;
    auto batch = std::make_unique<RowBatch>(static_cast<int>(width_),
                                            use_batch ? cap : kScalarBatchRows);
    while (!cancelled_.load(std::memory_order_acquire)) {
      st = use_batch ? op->NextBatch(batch.get())
                     : ScalarNextIntoBatch(op, batch.get());
      if (!st.ok() || batch->selected() == 0) break;
      // The scalar adapter only under-fills on end-of-stream, so a partial
      // batch is the fragment's last — hand it off and stop without paying
      // one more Next() after EOS. (A real NextBatch has no such guarantee:
      // a Filter can legally return a partial batch mid-stream.)
      const bool last = !use_batch && batch->selected() < batch->capacity();
      bool dropped = false;
      {
        std::unique_lock<std::mutex> l(mu_);
        // Time the producer-side stall only when (a) this is a traced query
        // and (b) the queue is actually full — the common uncontended pass
        // pays one TLS null test.
        uint64_t wait_start = 0;
        if (queue_.size() >= max_queue_ && trace::ThreadTraceActive()) {
          wait_start = telemetry::NowNs();
        }
        space_.wait(l, [&] {
          return queue_.size() < max_queue_ ||
                 cancelled_.load(std::memory_order_relaxed);
        });
        if (wait_start != 0) {
          trace::RecordWait(trace::WaitKind::kGatherQueue, wait_start,
                            telemetry::NowNs());
        }
        if (cancelled_.load(std::memory_order_relaxed)) {
          dropped = true;
        } else {
          queue_.push_back(std::move(batch));
          ready_.notify_one();
        }
      }
      if (dropped || last) break;
      batch = std::make_unique<RowBatch>(static_cast<int>(width_),
                                         use_batch ? cap : kScalarBatchRows);
    }
    batch.reset();  // before Close: a scan batch's pin references the file
    op->Close();    // releases the fragment's pinned pages
  }
  // Final bookkeeping and notification happen under the lock: once active_
  // hits zero a waiter may destroy this operator, so nothing — including the
  // condition variables — may be touched after the lock is released.
  std::lock_guard<std::mutex> l(mu_);
  if (!st.ok() && worker_status_.ok()) worker_status_ = st;
  --active_;
  ready_.notify_all();
  idle_.notify_all();
}

Status Gather::Next(bool* has_row) {
  if (inline_mode_) {
    for (;;) {
      if (!inline_open_) {
        if (inline_cur_ >= workers_.size()) {
          *has_row = false;
          return Status::OK();
        }
        MICROSPEC_RETURN_NOT_OK(workers_[inline_cur_]->Init());
        inline_open_ = true;
      }
      MICROSPEC_RETURN_NOT_OK(workers_[inline_cur_]->Next(has_row));
      if (*has_row) {
        values_ = workers_[inline_cur_]->values();
        isnull_ = workers_[inline_cur_]->isnull();
        return Status::OK();
      }
      workers_[inline_cur_]->Close();
      inline_open_ = false;
      ++inline_cur_;
    }
  }
  for (;;) {
    if (cur_ != nullptr && cur_sel_ < cur_->selected()) {
      // Gather the selected row into the consumer's row-major scratch: the
      // batch's column data (and any page pin backing pointer Datums) stays
      // alive in cur_ until the next batch replaces it.
      cur_->GatherRow(cur_->sel()[cur_sel_], row_values_.data(),
                      row_isnull_.get());
      values_ = row_values_.data();
      isnull_ = row_isnull_.get();
      ++cur_sel_;
      *has_row = true;
      return Status::OK();
    }
    std::unique_lock<std::mutex> l(mu_);
    // Consumer-side stall: the drive thread waiting on worker output.
    uint64_t wait_start = 0;
    if (queue_.empty() && active_ != 0 && trace::ThreadTraceActive()) {
      wait_start = telemetry::NowNs();
    }
    ready_.wait(l, [&] { return !queue_.empty() || active_ == 0; });
    if (wait_start != 0) {
      trace::RecordWait(trace::WaitKind::kGatherQueue, wait_start,
                        telemetry::NowNs());
    }
    if (!queue_.empty()) {
      cur_ = std::move(queue_.front());
      queue_.pop_front();
      cur_sel_ = 0;
      space_.notify_one();  // a producer may be blocked on the bound
      continue;
    }
    *has_row = false;
    return worker_status_;
  }
}

void Gather::StopWorkers() {
  {
    std::unique_lock<std::mutex> l(mu_);
    if (!started_) return;
    cancelled_.store(true, std::memory_order_release);
    space_.notify_all();  // wake producers blocked on the full queue
    idle_.wait(l, [&] { return active_ == 0; });
    queue_.clear();  // releases any page pins the batches carry
    started_ = false;
  }
  ctx_->executor()->Release(static_cast<int>(workers_.size()));
}

void Gather::Close() {
  if (inline_mode_) {
    if (inline_open_) {
      workers_[inline_cur_]->Close();
      inline_open_ = false;
    }
    return;
  }
  StopWorkers();
  cur_.reset();
}

// --- SharedJoinBuild --------------------------------------------------------

SharedJoinBuild::SharedJoinBuild(
    std::vector<OperatorPtr> partitions,
    std::vector<std::unique_ptr<ExecContext>> partition_ctxs,
    std::vector<std::shared_ptr<MorselCursor>> cursors)
    : partition_ops_(std::move(partitions)),
      partition_ctxs_(std::move(partition_ctxs)),
      cursors_(std::move(cursors)),
      partials_(partition_ops_.size()) {
  MICROSPEC_CHECK(!partition_ops_.empty());
  MICROSPEC_CHECK(partition_ops_.size() == partition_ctxs_.size());
  inner_meta_ = partition_ops_[0]->output_meta();
}

void SharedJoinBuild::MergeLocked() {
  // Partition order, then each partition's drain order: one row list for
  // the chaining routine the serial build uses.
  std::vector<JoinBuildRow*> rows;
  for (Partition& p : partials_) {
    rows.insert(rows.end(), p.rows.begin(), p.rows.end());
    p.rows.clear();
    p.rows.shrink_to_fit();
  }
  bucket_mask_ = ChainJoinBuild(rows, &buckets_);
}

Status SharedJoinBuild::EnsureBuilt(const JoinKeyEvaluator& keys) {
  {
    std::lock_guard<std::mutex> l(mutex_);
    if (built_) return status_;
  }
  // Work-steal undrained partitions; never wait for a pool slot.
  for (;;) {
    size_t i = next_partition_.fetch_add(1, std::memory_order_relaxed);
    if (i >= partition_ops_.size()) break;
    Partition& p = partials_[i];
    Status st = DrainJoinBuild(partition_ops_[i].get(), keys,
                               partition_ctxs_[i]->batch_rows(), &p.arena,
                               &p.rows);
    std::lock_guard<std::mutex> l(mutex_);
    if (!st.ok() && status_.ok()) status_ = st;
    ++drained_;
  }
  std::unique_lock<std::mutex> l(mutex_);
  if (!built_ && drained_ == partition_ops_.size()) {
    if (status_.ok()) MergeLocked();
    built_ = true;
    built_cv_.notify_all();
  } else {
    built_cv_.wait(l, [&] { return built_; });
  }
  return status_;
}

// --- ParallelHashAggregate --------------------------------------------------

ParallelHashAggregate::ParallelHashAggregate(
    ExecContext* ctx, std::vector<std::unique_ptr<HashAggregate>> locals,
    std::vector<std::unique_ptr<ExecContext>> worker_ctxs,
    std::vector<std::shared_ptr<MorselCursor>> cursors)
    : ctx_(ctx),
      locals_(std::move(locals)),
      worker_ctxs_(std::move(worker_ctxs)),
      cursors_(std::move(cursors)) {
  MICROSPEC_CHECK(!locals_.empty());
  meta_ = locals_[0]->output_meta();
}

Status ParallelHashAggregate::Init() {
  merged_ = false;
  return Status::OK();
}

Status ParallelHashAggregate::RunPartials() {
  for (const auto& c : cursors_) c->Reset();
  ThreadPool* pool = ctx_->executor();
  if (pool == nullptr || ThreadPool::OnWorkerThread()) {
    // Nested below another parallel operator (or no executor): run the
    // partials sequentially right here rather than wait on a pool slot.
    for (auto& local : locals_) {
      MICROSPEC_RETURN_NOT_OK(local->PartialAccumulate());
    }
    return Status::OK();
  }
  std::mutex mu;
  std::condition_variable done;
  size_t remaining = locals_.size();
  Status first_error;
  for (size_t i = 0; i < locals_.size(); ++i) {
    HashAggregate* agg = locals_[i].get();
    ExecContext* wctx = worker_ctxs_[i].get();
    pool->Submit([&, agg, wctx] {
      // Same per-worker trace install as Gather::WorkerMain: stall sites on
      // this thread (page I/O, forge waits) attribute to the sampled query.
      const trace::TraceContext wtc = wctx->trace();
      trace::ThreadTraceScope trace_scope(wtc.trace, wtc.parent);
      Status st = agg->PartialAccumulate();
      // Notify under the lock: the waiter's stack frame (and with it mu/done)
      // may unwind as soon as the lock is released.
      std::lock_guard<std::mutex> l(mu);
      if (!st.ok() && first_error.ok()) first_error = st;
      if (--remaining == 0) done.notify_one();
    });
  }
  std::unique_lock<std::mutex> l(mu);
  done.wait(l, [&] { return remaining == 0; });
  return first_error;
}

Status ParallelHashAggregate::Next(bool* has_row) {
  if (!merged_) {
    Status st = RunPartials();
    if (!st.ok()) {
      for (auto& local : locals_) local->Close();
      return st;
    }
    for (size_t i = 1; i < locals_.size(); ++i) {
      locals_[0]->MergeFrom(locals_[i].get());
      locals_[i]->Close();
    }
    merged_ = true;
  }
  MICROSPEC_RETURN_NOT_OK(locals_[0]->Next(has_row));
  if (*has_row) {
    values_ = locals_[0]->values();
    isnull_ = locals_[0]->isnull();
  }
  return Status::OK();
}

void ParallelHashAggregate::Close() { locals_[0]->Close(); }

}  // namespace microspec
