#ifndef MICROSPEC_ENGINE_DATABASE_H_
#define MICROSPEC_ENGINE_DATABASE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "bee/bee_module.h"
#include "catalog/catalog.h"
#include "common/io_stats.h"
#include "common/thread_pool.h"
#include "common/tracing.h"
#include "exec/operator.h"
#include "exec/shared_bees.h"
#include "storage/recovery.h"
#include "storage/wal.h"

namespace microspec {

/// Database-level configuration. `enable_bees` selects between the stock
/// engine and the bee-enabled engine — the two configurations every
/// experiment in the paper compares.
struct DatabaseOptions {
  std::string dir;
  size_t buffer_pool_frames = 8192;  // 64 MiB at 8 KiB pages
  bool enable_bees = false;
  /// When true, columns annotated low-cardinality get tuple bees at
  /// CREATE TABLE (requires enable_bees).
  bool enable_tuple_bees = false;
  bee::BeeBackend backend = bee::BeeBackend::kProgram;
  bool placement_isolation = true;
  /// Static verification of generated bee routines at creation time
  /// (off | warn | enforce); tests run under enforce.
  bee::VerifyMode verify_mode = bee::VerifyMode::kOff;
  /// Bee forge configuration (kNative only): async background compilation
  /// with hotness-driven promotion by default; `forge.async = false`
  /// restores the paper's compile-inline-at-CREATE-TABLE behaviour.
  bee::ForgeOptions forge;
  /// Degree of parallelism for query execution (morsel-driven; DESIGN.md
  /// "Parallel execution"). The default of 1 builds the exact serial
  /// operator trees this engine always built — no executor pool is even
  /// created.
  int dop = 1;
  /// Rows per execution batch (DESIGN.md "Batch execution"). 0 (the
  /// default) keeps the row-at-a-time Next() pipeline; > 0 drives the
  /// NextBatch() path and enables the GCL-B/EVP-B batch bees. Clamped to
  /// kMaxTuplesPerPage — one 8 KiB page's worth of tuples.
  int batch_rows = 0;
  /// Shared bee economy (DESIGN.md "Server front door"): when true, every
  /// context made by this database routes EVP/EVJ creation through one
  /// process-wide QueryBeeCache, so N sessions preparing the same statement
  /// forge exactly one verified bee. Off by default — the library path keeps
  /// the paper's per-query specialization accounting.
  bool share_query_bees = false;
  /// Span tracing (DESIGN.md §10): sample every Nth statement into a full
  /// span tree. 0 (the default) disables tracing entirely — the off path is
  /// one null test per statement, same discipline as telemetry::Enabled().
  uint32_t trace_sample_n = 0;
  /// Completed sampled traces retained for export (ring buffer).
  size_t trace_ring = 16;
  /// Statements slower than this land in the slow-query log, which
  /// references their traces (sampled statements only).
  uint64_t slow_query_ns = 250'000'000;  // 250 ms
  /// Write-ahead logging (DESIGN.md §11): physiological WAL + ARIES-lite
  /// restart recovery. Off by default — the benchmarks that predate the WAL
  /// keep their exact I/O profile.
  bool wal_enabled = false;
  /// Group commit: a dedicated flusher batches concurrent commits into one
  /// fdatasync. When false every Commit syncs inline (the 1-commit baseline
  /// bench_wal compares against).
  bool wal_group_commit = true;
};

/// Handle for one WAL transaction: the id plus the start-LSN of its most
/// recent log record (the head of its prev_lsn chain, walked by rollback
/// and restart undo). Obtained from Database::BeginTxn and threaded through
/// the DML helpers; a null txn autocommits each statement.
struct WalTxn {
  uint64_t id = 0;
  uint64_t last_lsn = 0;
};

/// The engine facade: owns the buffer pool, catalog, and (optionally) the
/// generic bee module; provides DDL, DML with index maintenance, bulk
/// loading, session/query-context creation, and cache control.
class Database {
 public:
  static Result<std::unique_ptr<Database>> Open(DatabaseOptions options);
  ~Database();
  MICROSPEC_DISALLOW_COPY_AND_MOVE(Database);

  Catalog* catalog() { return catalog_.get(); }
  BufferPool* buffer_pool() { return pool_.get(); }
  IoStats* io_stats() { return &stats_; }
  /// nullptr for a stock database.
  bee::BeeModule* bees() { return bees_.get(); }
  const DatabaseOptions& options() const { return options_; }

  /// DDL: creates the relation and, on a bee-enabled database, its relation
  /// bee (GCL/SCL) and tuple-bee manager — the paper's DDL-compiler hook.
  Result<TableInfo*> CreateTable(const std::string& name, Schema schema);
  Status DropTable(const std::string& name);  // also runs the Bee Collector

  /// Index DDL through the engine so it reaches the WAL: logs a
  /// kCreateIndex record (durable before return) and creates the B+tree.
  /// The index starts empty, exactly like TableInfo::CreateIndex.
  Result<IndexInfo*> CreateIndex(TableInfo* table, const std::string& name,
                                 std::vector<int> key_columns);

  /// nullptr unless options().wal_enabled.
  Wal* wal() { return wal_.get(); }

  /// What restart recovery did when this database was opened (ran == false
  /// when the WAL is disabled or the log was empty).
  const RecoveryStats& last_recovery() const { return last_recovery_; }

  /// --- WAL transactions -----------------------------------------------------
  /// Statement-level autocommit is the default (DML with txn == nullptr);
  /// these give multi-statement atomicity. Requires wal_enabled.

  Result<WalTxn> BeginTxn();
  /// Appends kCommit and blocks until the transaction is durable (one
  /// fdatasync per group-commit batch, not per committer).
  Status CommitTxn(WalTxn* txn);
  /// Runtime rollback: walks the prev_lsn chain backwards applying page
  /// inverses through the relation log bees, writing one CLR per undone
  /// record, fixing indexes, then appends kAbort.
  Status AbortTxn(WalTxn* txn);

  /// kill -9 stand-in for in-suite recovery tests: drops the WAL's pending
  /// buffer and every buffered dirty page, and suppresses the destructor's
  /// flush — on-disk state is exactly what a SIGKILL would have left.
  void SimulateCrashForTests();

  /// Default session for this database: all bee routines on (bee-enabled)
  /// or none (stock).
  SessionOptions DefaultSession() const {
    return options_.enable_bees ? SessionOptions::AllBees()
                                : SessionOptions::Stock();
  }

  std::unique_ptr<ExecContext> MakeContext(const SessionOptions& opts) {
    return MakeContext(opts, options_.dop);
  }
  std::unique_ptr<ExecContext> MakeContext() {
    return MakeContext(DefaultSession());
  }
  /// Context with an explicit degree of parallelism (the per-query override
  /// used by bench_tpch_warm --dop and the parallel tests). dop <= 1 yields
  /// a plain serial context.
  std::unique_ptr<ExecContext> MakeContext(const SessionOptions& opts,
                                           int dop) {
    auto ctx =
        std::make_unique<ExecContext>(catalog_.get(), bees_.get(), opts);
    if (dop > 1) ctx->set_parallel(Executor(dop), dop, /*morsel_pages=*/0);
    ctx->set_batch(options_.batch_rows);
    if (options_.share_query_bees) ctx->set_shared_bees(&shared_bees_);
    // Traces are per-statement (installed by sqlfe/server when sampled).
    return ctx;
  }

  /// The database's span tracer (sampling, trace ring, slow-query log).
  /// Always present; inert when trace_sample_n == 0.
  trace::Tracer* tracer() { return &tracer_; }

  /// The process-wide query-bee cache (populated only when
  /// `share_query_bees`); exposed for the server's telemetry and tests.
  QueryBeeCache* shared_bees() { return &shared_bees_; }

  /// Monotonic DDL counter: bumped by CreateTable/DropTable. Statement
  /// caches key their entries to it, so any DDL invalidates every cached
  /// plan (and this database's shared query bees) at the next lookup.
  uint64_t ddl_epoch() const {
    return ddl_epoch_.load(std::memory_order_acquire);
  }

  /// --- DML helpers (used by the TPC-C transactions and the loaders) ---------
  /// All maintain the table's B+tree indexes.

  Result<TupleId> Insert(ExecContext* ctx, TableInfo* table,
                         const Datum* values, const bool* isnull,
                         WalTxn* txn = nullptr);

  /// Replaces the tuple at `tid` with new values; index entries follow a
  /// moved tuple. Assumes index key columns are unchanged unless
  /// `keys_changed`. An in-place update logs one kUpdate record; a moved
  /// update logs a kDelete + kInsert pair (see storage/wal.h).
  Result<TupleId> Update(ExecContext* ctx, TableInfo* table, TupleId tid,
                         const Datum* values, const bool* isnull,
                         bool keys_changed = false, WalTxn* txn = nullptr);

  Status Delete(ExecContext* ctx, TableInfo* table, TupleId tid,
                WalTxn* txn = nullptr);

  /// Fetches and deforms one tuple (point read).
  Status ReadTuple(ExecContext* ctx, TableInfo* table, TupleId tid,
                   Datum* values, bool* isnull);

  /// High-throughput loading path (Figure 8). Keeps the tail page pinned and
  /// routes every tuple through the session's TupleFormer (SCL bee or stock).
  class BulkLoader {
   public:
    /// With the WAL enabled the loader logs every appended tuple; pass a
    /// transaction to make the whole load atomic, or leave `txn` null and
    /// the loader runs its own (begun here, committed in Finish).
    BulkLoader(Database* db, ExecContext* ctx, TableInfo* table,
               WalTxn* txn = nullptr);
    Status Append(const Datum* values, const bool* isnull);
    Status Finish();

   private:
    Database* db_;
    TableInfo* table_;
    const TupleFormer* former_;
    HeapFile::BulkAppender appender_;
    std::string buf_;
    uint64_t count_ = 0;
    WalTxn* txn_ = nullptr;
    WalTxn own_txn_;  // used when no caller transaction was supplied
    bool own_active_ = false;
  };

  /// Drains the bee forge: every pending native compile has been promoted,
  /// pinned, or cancelled when this returns. No-op on stock/program
  /// databases. Deterministic-measurement and shutdown hook.
  void QuiesceBees() {
    if (bees_ != nullptr) bees_->Quiesce();
  }

  /// Flushes and evicts the entire buffer pool (cold-cache experiments).
  Status DropCaches() { return pool_->DropAll(); }

  /// Flushes dirty pages and persists the bee cache.
  Status Checkpoint();

  /// One merged point-in-time view of everything measurable: this database's
  /// io/buffer counters, the process-wide work-op total (all threads,
  /// including forge workers), per-relation bee tier stats and deform
  /// latency histograms, forge counters, and the global registry.
  /// Serializes to Prometheus text or JSON — see
  /// telemetry::TelemetrySnapshot.
  telemetry::TelemetrySnapshot SnapshotTelemetry();

 private:
  explicit Database(DatabaseOptions options)
      : options_(std::move(options)),
        tracer_(trace::TracerOptions{
            .sample_n = options_.trace_sample_n,
            .ring_capacity = options_.trace_ring,
            .slow_query_ns = options_.slow_query_ns}) {}

  static IndexKey KeyFor(const IndexInfo& idx, const Datum* values);

  /// Persists tuple-bee data sections this relation grew since the last
  /// call: one non-transactional kBeeSection record per new section,
  /// appended BEFORE the DML record whose tuple references them — a redo
  /// of that tuple always finds its section. No-op without tuple bees.
  Status LogNewSections(TableInfo* table);

  /// Appends one DML record for `txn`, advances the chain head, and stamps
  /// `page` (if non-null) with the record's end-LSN while it is still
  /// pinned — the WAL rule's ordering point.
  uint64_t LogDml(WalTxn* txn, WalRecordType type, const std::string& payload,
                  char* page);

  /// Lazily creates (or grows) the shared query-executor pool so it has at
  /// least `dop` threads. Growing replaces the pool, so it is only safe
  /// between queries — contexts hold the pool pointer for their lifetime.
  ThreadPool* Executor(int dop);

  friend Result<RecoveryStats> RunRecovery(Database* db);
  friend Status UndoTransactionChain(Database* db, uint64_t txn_id,
                                     uint64_t last_lsn, bool fix_indexes,
                                     uint64_t* out_last_lsn,
                                     uint64_t* clrs_appended);

  DatabaseOptions options_;  // before tracer_: its ctor reads the options
  trace::Tracer tracer_;
  IoStats stats_;
  /// Before pool_ (destroyed after it): catalog/pool teardown may write back
  /// dirty pages, and the pool's flush hook targets this WAL.
  std::unique_ptr<Wal> wal_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<bee::BeeModule> bees_;
  QueryBeeCache shared_bees_;
  std::atomic<uint64_t> ddl_epoch_{0};
  std::atomic<uint64_t> next_txn_id_{1};
  std::atomic<bool> crashed_{false};  // SimulateCrashForTests ran
  RecoveryStats last_recovery_;
  /// Sections already persisted per relation (kBeeSection records appended),
  /// so each new section is logged exactly once.
  std::mutex wal_sections_mu_;
  std::unordered_map<TableId, int> wal_logged_sections_;
  std::mutex executor_mu_;
  int executor_threads_ = 0;
  /// Declared last: destroyed first, so in-flight worker tasks finish (the
  /// pool dtor joins) before the catalog/pool/bee module they use go away.
  std::unique_ptr<ThreadPool> executor_;
};

}  // namespace microspec

#endif  // MICROSPEC_ENGINE_DATABASE_H_
