#ifndef MICROSPEC_EXEC_PARALLEL_H_
#define MICROSPEC_EXEC_PARALLEL_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "exec/hash_agg.h"
#include "exec/hash_join.h"
#include "exec/morsel.h"
#include "exec/operator.h"

namespace microspec {

/// --- Morsel-driven parallel execution ---------------------------------------
/// A parallel pipeline exists as `dop` per-worker operator fragments, each
/// owning a worker ExecContext, all fed by shared MorselCursors at the scan
/// leaves. The operators here are the points where fragments meet:
///
///   Gather                — fans worker rows into the serial Volcano tree.
///   SharedJoinBuild       — one build table, built cooperatively by the
///                           probe workers, shared by dop HashJoin instances.
///   ParallelHashAggregate — per-worker local aggregation, merged on finish.
///
/// Deadlock discipline: executor-pool tasks never *wait for a pool slot*.
/// Gather workers block only on the exchange's bounded queue, which the
/// consumer is guaranteed to either drain (Next) or cancel (Close /
/// StopWorkers wake every waiter); SharedJoinBuild waits only on co-workers
/// that are actively draining; and Gather/ParallelHashAggregate detect that
/// they are running *on* a pool thread (a fragment nested below another
/// parallel operator) and fall back to inline sequential execution instead
/// of submitting.

/// Exchange operator: runs its worker fragments on the executor pool and
/// re-exposes their rows, one at a time, on the consuming thread. Workers
/// hand whole RowBatches across: with batching enabled each batch is the
/// fragment's real NextBatch output — for a scan leaf a page-granular batch
/// whose pointer Datums stay valid because the batch carries the page pin
/// across the thread boundary, no per-row deep copy. With batching off the
/// scalar adapter fills the batch (deep-copying by-reference Datums into
/// the batch arena), which is exactly the pre-batch exchange behavior.
///
/// The queue is bounded at gather_max_batches() batches per worker; a full
/// queue blocks the producing worker until the consumer pops or cancels, so
/// a slow consumer bounds the exchange's memory (and pinned pages) instead
/// of letting it grow without limit.
///
/// Close() (or a re-Init rescan) cancels: workers observe cancelled_ per
/// batch (including while blocked on the full queue), close their fragments
/// — releasing any pinned pages — and Close returns only once every worker
/// has quiesced, so a LIMIT above a Gather never leaks pins.
class Gather final : public Operator {
 public:
  Gather(ExecContext* ctx, std::vector<OperatorPtr> workers,
         std::vector<std::unique_ptr<ExecContext>> worker_ctxs,
         std::vector<std::shared_ptr<MorselCursor>> cursors);
  ~Gather() override;

  Status Init() override;
  Status Next(bool* has_row) override;
  void Close() override;

 private:
  /// Adapter batch capacity when batching is disabled (legacy exchange
  /// granularity).
  static constexpr int kScalarBatchRows = 1024;

  void WorkerMain(size_t i);
  /// Cancels and joins in-flight workers; idempotent.
  void StopWorkers();

  ExecContext* ctx_;
  std::vector<OperatorPtr> workers_;
  std::vector<std::unique_ptr<ExecContext>> worker_ctxs_;
  std::vector<std::shared_ptr<MorselCursor>> cursors_;
  size_t width_;

  // Inline fallback (no executor, or already on a pool thread): drain the
  // fragments sequentially on the calling thread, no copies, no queue.
  bool inline_mode_ = false;
  size_t inline_cur_ = 0;
  bool inline_open_ = false;

  std::mutex mu_;
  std::condition_variable ready_;  // consumer: queue non-empty or all done
  std::condition_variable space_;  // producers: queue below bound or cancel
  std::condition_variable idle_;   // StopWorkers: active_ == 0
  std::deque<std::unique_ptr<RowBatch>> queue_;
  size_t max_queue_ = 0;
  size_t active_ = 0;
  bool started_ = false;
  Status worker_status_;
  std::atomic<bool> cancelled_{false};

  std::unique_ptr<RowBatch> cur_;
  int cur_sel_ = 0;  // position within cur_'s selection vector
  std::vector<Datum> row_values_;        // consumer-side row-major view
  std::unique_ptr<bool[]> row_isnull_;
};

/// The build side of a parallel hash join: dop probe-side HashJoin instances
/// share one bucket table. The first Init calls arrive on the probe worker
/// threads; each arriving worker claims undrained build partitions (the
/// inner plan's fragments) from an atomic index and drains them into
/// per-partition row lists (DrainJoinBuild, hashing with that worker's own
/// join-key evaluator and batching as the partition's context says), and
/// the last to finish merges the lists into the shared chained table
/// (ChainJoinBuild) — the same two routines as the serial HashJoin build,
/// so every dop takes one build path. Workers that arrive after all partitions are
/// claimed wait for the merge. The table is built once and reused across
/// probe re-Inits (the data under a query does not change mid-plan).
class SharedJoinBuild {
 public:
  SharedJoinBuild(std::vector<OperatorPtr> partitions,
                  std::vector<std::unique_ptr<ExecContext>> partition_ctxs,
                  std::vector<std::shared_ptr<MorselCursor>> cursors);
  MICROSPEC_DISALLOW_COPY_AND_MOVE(SharedJoinBuild);

  /// Cooperative build; returns once the shared table is published (or the
  /// first drain error). Safe to call from any number of threads. Each
  /// caller hashes the partitions it drains with `keys`, the calling probe's
  /// own evaluator, so the build forges no join-key bee of its own.
  Status EnsureBuilt(const JoinKeyEvaluator& keys);

  const std::vector<ColMeta>& inner_meta() const { return inner_meta_; }
  JoinBuildRow* const* buckets() const { return buckets_.data(); }
  uint64_t bucket_mask() const { return bucket_mask_; }

 private:
  struct Partition {
    std::vector<JoinBuildRow*> rows;
    Arena arena;
  };

  /// Chains every partition's rows into buckets_ (mutex_ held).
  void MergeLocked();

  std::vector<OperatorPtr> partition_ops_;
  std::vector<std::unique_ptr<ExecContext>> partition_ctxs_;
  std::vector<std::shared_ptr<MorselCursor>> cursors_;
  std::vector<ColMeta> inner_meta_;

  std::atomic<size_t> next_partition_{0};
  std::vector<Partition> partials_;

  std::mutex mutex_;
  std::condition_variable built_cv_;
  size_t drained_ = 0;
  bool built_ = false;
  Status status_;

  std::vector<JoinBuildRow*> buckets_;
  uint64_t bucket_mask_ = 0;
};

/// Parallel aggregation: each worker fragment feeds its own HashAggregate
/// (local groups, no sharing, so the per-row update path is untouched); on
/// the first Next the partials run on the executor pool, then merge into
/// locals[0] — sums and counts add, MIN/MAX compare, group keys deep-copy
/// into the surviving aggregate's arena — and emission proceeds serially.
class ParallelHashAggregate final : public Operator {
 public:
  ParallelHashAggregate(ExecContext* ctx,
                        std::vector<std::unique_ptr<HashAggregate>> locals,
                        std::vector<std::unique_ptr<ExecContext>> worker_ctxs,
                        std::vector<std::shared_ptr<MorselCursor>> cursors);

  Status Init() override;
  Status Next(bool* has_row) override;
  void Close() override;

 private:
  Status RunPartials();

  ExecContext* ctx_;
  std::vector<std::unique_ptr<HashAggregate>> locals_;
  std::vector<std::unique_ptr<ExecContext>> worker_ctxs_;
  std::vector<std::shared_ptr<MorselCursor>> cursors_;
  bool merged_ = false;
};

}  // namespace microspec

#endif  // MICROSPEC_EXEC_PARALLEL_H_
