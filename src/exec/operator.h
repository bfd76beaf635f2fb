#ifndef MICROSPEC_EXEC_OPERATOR_H_
#define MICROSPEC_EXEC_OPERATOR_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "catalog/catalog.h"
#include "common/arena.h"
#include "common/status.h"
#include "common/tracing.h"
#include "exec/access.h"
#include "exec/batch.h"
#include "exec/row.h"

namespace microspec {

/// Join semantics supported by the join operators. These are the variants
/// the paper's EVJ bee enumerates ahead of time ("all possible combinations
/// of the join routines ... can be enumerated and compiled ahead of time").
enum class JoinType : uint8_t { kInner, kLeft, kSemi, kAnti };

/// Per-session micro-specialization switches. Each bee routine is
/// independently toggleable, which is what makes the paper's additivity
/// experiment (Figure 7) expressible: {GCL}, {GCL,EVP}, {GCL,EVP,EVJ}.
struct SessionOptions {
  bool enable_gcl = false;         // relation bee: specialized deform
  bool enable_scl = false;         // relation bee: specialized form
  bool enable_evp = false;         // query bee: predicate evaluation
  bool enable_evj = false;         // query bee: join evaluation
  bool enable_tuple_bees = false;  // attribute-value specialization
  bool enable_agg_bee = false;     // extension: aggregation kernels (§VIII)

  static SessionOptions Stock() { return SessionOptions{}; }
  static SessionOptions AllBees() {
    SessionOptions o;
    o.enable_gcl = o.enable_scl = o.enable_evp = o.enable_evj =
        o.enable_tuple_bees = true;
    return o;
  }
  bool AnyEnabled() const {
    return enable_gcl || enable_scl || enable_evp || enable_evj ||
           enable_tuple_bees || enable_agg_bee;
  }
};

/// The bee module's face toward the executor (the Bee Caller seam). A null
/// implementation (stock engine) makes every factory return the generic
/// path. Implemented by bee::BeeModule.
class BeeHooks {
 public:
  virtual ~BeeHooks() = default;

  /// GCL routine for `table`, or nullptr to use the stock deform loop.
  virtual const TupleDeformer* DeformerFor(TableInfo* table,
                                           const SessionOptions& opts) = 0;

  /// SCL routine for `table`, or nullptr to use the stock form loop.
  virtual const TupleFormer* FormerFor(TableInfo* table,
                                       const SessionOptions& opts) = 0;

  /// EVP bee for `expr`, or nullptr when the shape is not specializable
  /// (the generic interpreter remains the fallback, as in the paper).
  /// `input_meta`, when non-null, is the operator's input row shape; the
  /// bee verifier range- and type-checks every clause's column reference
  /// against it before the bee may install.
  virtual std::unique_ptr<PredicateEvaluator> SpecializePredicate(
      const Expr& expr, const SessionOptions& opts,
      const std::vector<ColMeta>* input_meta) = 0;

  /// EVJ bee for the given join keys, or nullptr. `outer_width` and
  /// `inner_width` bound the key attribute numbers for verification; pass 0
  /// for a side whose row width is unknown at this call site.
  virtual std::unique_ptr<JoinKeyEvaluator> SpecializeJoinKeys(
      const std::vector<int>& outer_cols, const std::vector<int>& inner_cols,
      const std::vector<ColMeta>& key_meta, const SessionOptions& opts,
      int outer_width, int inner_width) = 0;
};

class QueryStats;
class ThreadPool;
class QueryBeeCache;

/// Per-query execution context: catalog access, the session's bee switches,
/// scratch memory, and factories that route through bees when enabled.
///
/// An ExecContext is single-threaded: the deformer/former memoization maps
/// and the arena are unsynchronized. Parallel plans therefore give each
/// worker its own context via MakeWorkerContext(), which also keeps bee tier
/// counters and deform-latency telemetry on the worker thread's shards
/// (merged on read, never contended on the hot path).
class ExecContext {
 public:
  ExecContext(Catalog* catalog, BeeHooks* bees, SessionOptions opts)
      : catalog_(catalog), bees_(bees), opts_(opts) {}
  MICROSPEC_DISALLOW_COPY_AND_MOVE(ExecContext);

  Catalog* catalog() { return catalog_; }
  Arena* arena() { return &arena_; }
  const SessionOptions& options() const { return opts_; }
  BeeHooks* bees() { return bees_; }

  /// EXPLAIN ANALYZE collector. When set, Plan wraps each freshly built
  /// operator in an OpProfiler (exec/analyze.h); when null — the default —
  /// plans are built exactly as before, so the uninstrumented path carries
  /// zero overhead (not even a branch per Next).
  void set_analyze(QueryStats* stats) { analyze_ = stats; }
  QueryStats* analyze() { return analyze_; }

  /// --- Parallel execution (morsel-driven; DESIGN.md "Parallel execution") ---
  /// Wired by Database::MakeContext when DatabaseOptions::dop > 1. With the
  /// default dop of 1 nothing here is set and Plan builds the exact serial
  /// operator tree this engine always built.
  void set_parallel(ThreadPool* executor, int dop, uint32_t morsel_pages) {
    executor_ = executor;
    dop_ = dop < 1 ? 1 : dop;
    morsel_pages_ = morsel_pages;
  }
  /// Degree of parallelism for plans built on this context; 1 == serial.
  int dop() const { return executor_ != nullptr ? dop_ : 1; }
  /// The lazily-started executor pool (null on serial contexts).
  ThreadPool* executor() { return executor_; }
  uint32_t morsel_pages() const { return morsel_pages_; }

  /// --- Batch execution (DESIGN.md "Batch execution") ---
  /// Wired by Database::MakeContext from DatabaseOptions::batch_rows. 0 (the
  /// default) keeps every operator on the scalar Next path — batch-aware
  /// parents only engage NextBatch when batch_rows() > 0 and the child
  /// subtree is BatchCapable(), so the default tree executes exactly as
  /// before this seam existed.
  /// Default bound on Gather's hand-off queue, in batches per worker; keeps
  /// a fast producer from buffering an unbounded deep copy of the input.
  static constexpr int kGatherMaxBatches = 4;
  void set_batch(int batch_rows, int gather_max_batches = kGatherMaxBatches) {
    batch_rows_ = batch_rows < 0 ? 0 : batch_rows;
    gather_max_batches_ = gather_max_batches < 1 ? 1 : gather_max_batches;
  }
  /// RowBatch capacity for batch-driving parents; 0 == batching disabled.
  /// Values above kMaxTuplesPerPage are clamped: a page-granular scan can
  /// never fill more rows than one page holds.
  int batch_rows() const {
    return batch_rows_ > kMaxTuplesPerPage ? kMaxTuplesPerPage : batch_rows_;
  }
  /// Gather's bounded-queue capacity, in batches per worker.
  int gather_max_batches() const { return gather_max_batches_; }

  /// --- Shared bee economy (DESIGN.md "Server front door") ---
  /// When set (Database::MakeContext under `share_query_bees`, i.e. the
  /// server path), MakePredicate/MakeJoinKeys consult the process-wide
  /// QueryBeeCache: the first session to prepare a shape forges and
  /// verifies the bee, every later session — and every parallel fragment —
  /// reuses it with no re-specialization and no re-verification.
  void set_shared_bees(QueryBeeCache* cache) { shared_bees_ = cache; }
  QueryBeeCache* shared_bees() { return shared_bees_; }

  /// --- Tracing (DESIGN.md §10) ---
  /// The sampled query's trace context (null for unsampled queries — the
  /// overwhelmingly common case). Set per statement by the sqlfe driver or
  /// the server session, never by Database::MakeContext; operators test the
  /// pointer once per query (Init/Close), never per row.
  void set_trace(const trace::TraceContext& tc) { trace_ = tc; }
  const trace::TraceContext& trace() const { return trace_; }

  /// A fresh context for one parallel worker: same catalog, bee module,
  /// session switches, batch configuration and shared bee cache, but its
  /// own arena and memoization maps (and no executor — workers never build
  /// nested parallel plans). The worker context must not outlive this
  /// context's catalog/bee module.
  std::unique_ptr<ExecContext> MakeWorkerContext() {
    auto ctx = std::make_unique<ExecContext>(catalog_, bees_, opts_);
    ctx->set_batch(batch_rows_, gather_max_batches_);
    ctx->set_shared_bees(shared_bees_);
    ctx->set_trace(trace_);
    return ctx;
  }

  /// Deformer for scans of `table`: the GCL bee when enabled, else stock.
  /// Resolution is memoized per context — OLTP point reads would otherwise
  /// pay the bee registry lookup on every tuple.
  const TupleDeformer* DeformerFor(TableInfo* table) {
    auto cached = deformer_cache_.find(table->id());
    if (cached != deformer_cache_.end()) return cached->second;
    const TupleDeformer* d = nullptr;
    if (bees_ != nullptr) d = bees_->DeformerFor(table, opts_);
    if (d == nullptr) {
      auto it = stock_deformers_
                    .emplace(table->id(),
                             std::make_unique<StockDeformer>(&table->schema()))
                    .first;
      d = it->second.get();
    }
    deformer_cache_.emplace(table->id(), d);
    return d;
  }

  /// Former for inserts into `table`: the SCL bee when enabled, else stock.
  const TupleFormer* FormerFor(TableInfo* table) {
    auto cached = former_cache_.find(table->id());
    if (cached != former_cache_.end()) return cached->second;
    const TupleFormer* f = nullptr;
    if (bees_ != nullptr) f = bees_->FormerFor(table, opts_);
    if (f == nullptr) {
      auto it = stock_formers_
                    .emplace(table->id(),
                             std::make_unique<StockFormer>(&table->schema()))
                    .first;
      f = it->second.get();
    }
    former_cache_.emplace(table->id(), f);
    return f;
  }

  /// Predicate evaluator: EVP bee when enabled, the shape qualifies, and
  /// the verifier accepts it against `input_meta` (the caller's input row
  /// shape, when known); else the generic interpreted tree. With a shared
  /// bee cache installed the forged bee is a process-wide artifact served
  /// to every session that prepares the same shape (see exec/shared_bees.h).
  std::unique_ptr<PredicateEvaluator> MakePredicate(
      ExprPtr expr, const std::vector<ColMeta>* input_meta = nullptr);

  /// Join-key evaluator: EVJ bee when enabled and verified against the
  /// given side widths (0 = width unknown, range check skipped), else
  /// generic. Shared-bee caching as in MakePredicate.
  std::unique_ptr<JoinKeyEvaluator> MakeJoinKeys(
      std::vector<int> outer_cols, std::vector<int> inner_cols,
      std::vector<ColMeta> key_meta, int outer_width = 0,
      int inner_width = 0);

 private:
  std::unique_ptr<PredicateEvaluator> MakePredicateImpl(
      ExprPtr expr, const std::vector<ColMeta>* input_meta);
  std::unique_ptr<JoinKeyEvaluator> MakeJoinKeysImpl(
      std::vector<int> outer_cols, std::vector<int> inner_cols,
      std::vector<ColMeta> key_meta, int outer_width, int inner_width);

  Catalog* catalog_;
  BeeHooks* bees_;
  SessionOptions opts_;
  QueryStats* analyze_ = nullptr;
  QueryBeeCache* shared_bees_ = nullptr;
  trace::TraceContext trace_;
  ThreadPool* executor_ = nullptr;
  int dop_ = 1;
  uint32_t morsel_pages_ = 0;  // 0 => kDefaultMorselPages
  int batch_rows_ = 0;         // 0 => batch execution disabled
  int gather_max_batches_ = kGatherMaxBatches;
  Arena arena_;
  std::unordered_map<TableId, std::unique_ptr<StockDeformer>> stock_deformers_;
  std::unordered_map<TableId, std::unique_ptr<StockFormer>> stock_formers_;
  std::unordered_map<TableId, const TupleDeformer*> deformer_cache_;
  std::unordered_map<TableId, const TupleFormer*> former_cache_;
};

class Operator;

/// The batch adapter: drains scalar Next() into `batch` (up to capacity),
/// deep-copying by-reference Datums into the batch arena — row i's pointers
/// die at row i+1's Next, so the copies are mandatory. This is both the
/// default NextBatch implementation and the explicit "batching off" path a
/// Gather uses so a batch_rows() == 0 run never dispatches to a real batch
/// implementation.
Status ScalarNextIntoBatch(Operator* op, RowBatch* batch);

/// Volcano-style physical operator: Init once, Next per row, Close once.
/// Output rows are exposed as parallel values()/isnull() arrays described by
/// output_meta().
///
/// Batch seam: NextBatch(RowBatch*) produces up to a batch of rows per call
/// (selected() == 0 signals end of stream). The default adapter wraps the
/// scalar Next, so every operator works under a batch-driving parent;
/// operators with a real column-at-a-time implementation (scans, Filter,
/// Project, Limit) override it and report BatchCapable() so parents only
/// batch-drive subtrees where batching is a win, never a copy tax.
class Operator {
 public:
  virtual ~Operator() = default;

  virtual Status Init() = 0;
  /// Produces the next row; sets *has_row=false at end of stream.
  virtual Status Next(bool* has_row) = 0;
  /// Produces the next batch; batch->selected() == 0 at end of stream.
  /// A caller must not interleave Next and NextBatch on the same operator
  /// between Init and end-of-stream.
  virtual Status NextBatch(RowBatch* batch) {
    return ScalarNextIntoBatch(this, batch);
  }
  virtual void Close() {}

  /// True when this operator — and, for pass-through operators, its whole
  /// child chain — implements NextBatch natively (no scalar adapter).
  virtual bool BatchCapable() const { return false; }

  const std::vector<ColMeta>& output_meta() const { return meta_; }
  const Datum* values() const { return values_; }
  const bool* isnull() const { return isnull_; }

 protected:
  std::vector<ColMeta> meta_;
  const Datum* values_ = nullptr;
  const bool* isnull_ = nullptr;
};

using OperatorPtr = std::unique_ptr<Operator>;

/// Drains `op` and returns the number of rows produced (runs Init/Close).
Result<uint64_t> CountRows(Operator* op);

/// Drains `op`, invoking fn(values, isnull) per row.
template <typename Fn>
Status ForEachRow(Operator* op, Fn&& fn) {
  MICROSPEC_RETURN_NOT_OK(op->Init());
  bool has_row = false;
  for (;;) {
    MICROSPEC_RETURN_NOT_OK(op->Next(&has_row));
    if (!has_row) break;
    fn(op->values(), op->isnull());
  }
  op->Close();
  return Status::OK();
}

}  // namespace microspec

#endif  // MICROSPEC_EXEC_OPERATOR_H_
