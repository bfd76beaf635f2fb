#include "engine/database.h"

#include <sys/stat.h>

#include "storage/tuple.h"

namespace microspec {

namespace {
/// Per-thread scratch for tuple forming, so concurrent TPC-C terminals do
/// not contend on a shared buffer.
thread_local std::string t_form_buf;

/// Per-thread scratch for a WAL before-image. It is sized to one page on
/// first use and reused, so Update and Delete zero-fill no page per call.
thread_local std::vector<char> t_old_img;

/// Copies tuple `tid`'s bytes into t_old_img and their length into *len.
Status FetchBeforeImage(TableInfo* table, TupleId tid, uint32_t* len) {
  t_old_img.resize(kPageSize);
  return table->heap()->Fetch(tid, t_old_img.data(), kPageSize, len);
}
}  // namespace

namespace {
/// mkdir -p: creates every missing component of `dir`.
void MakeDirs(const std::string& dir) {
  for (size_t i = 1; i <= dir.size(); ++i) {
    if (i == dir.size() || dir[i] == '/') {
      ::mkdir(dir.substr(0, i).c_str(), 0755);
    }
  }
}
}  // namespace

Result<std::unique_ptr<Database>> Database::Open(DatabaseOptions options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("database dir required");
  }
  MakeDirs(options.dir);
  std::unique_ptr<Database> db(new Database(std::move(options)));
  db->pool_ =
      std::make_unique<BufferPool>(db->options_.buffer_pool_frames, &db->stats_);
  db->catalog_ = std::make_unique<Catalog>(db->options_.dir, db->pool_.get());
  if (db->options_.enable_bees) {
    bee::BeeModuleOptions bo;
    bo.backend = db->options_.backend;
    bo.placement_isolation = db->options_.placement_isolation;
    bo.cache_dir = db->options_.dir + "/bees";
    bo.verify = db->options_.verify_mode;
    bo.forge = db->options_.forge;
    db->bees_ = std::make_unique<bee::BeeModule>(bo);
  }
  if (db->options_.wal_enabled) {
    Wal::Options wo;
    wo.group_commit = db->options_.wal_group_commit;
    wo.stats = &db->stats_;
    MICROSPEC_ASSIGN_OR_RETURN(
        db->wal_, Wal::Open(db->options_.dir + "/wal.log", wo));
    // The WAL rule: no dirty page reaches disk before the log records it
    // reflects are durable. The pool consults this hook at every writeback.
    Wal* wal = db->wal_.get();
    db->pool_->SetWalFlushHook(
        [wal](uint64_t lsn) { return wal->FlushUpTo(lsn); });
    MICROSPEC_ASSIGN_OR_RETURN(db->last_recovery_, RunRecovery(db.get()));
  }
  return db;
}

Database::~Database() {
  // After a simulated crash the pool holds only discarded frames and the
  // WAL suppresses its final flush — flushing here would un-crash the test.
  if (pool_ != nullptr && !crashed_.load(std::memory_order_acquire)) {
    (void)pool_->FlushAll();
  }
}

void Database::SimulateCrashForTests() {
  crashed_.store(true, std::memory_order_release);
  if (wal_ != nullptr) wal_->SimulateCrashForTests();
  pool_->DiscardAllForTests();
}

Result<TableInfo*> Database::CreateTable(const std::string& name,
                                         Schema schema) {
  MICROSPEC_ASSIGN_OR_RETURN(TableInfo * table,
                             catalog_->CreateTable(name, std::move(schema)));
  if (bees_ != nullptr) {
    MICROSPEC_RETURN_NOT_OK(
        bees_->CreateRelationBees(table, options_.enable_tuple_bees));
  }
  if (wal_ != nullptr) {
    // The catalog is in-memory: this record (with the full annotated
    // schema) is what recovery rebuilds the relation — and its bees — from.
    std::string schema_bytes;
    table->schema().Serialize(&schema_bytes);
    std::string payload;
    walenc::EncodeCreateTable(&payload, table->id(), name, schema_bytes);
    wal_->Append(WalRecordType::kCreateTable, 0, 0, payload);
    MICROSPEC_RETURN_NOT_OK(wal_->Flush());
  }
  // DDL invalidates every cached plan/bee keyed to the previous epoch.
  shared_bees_.Invalidate();
  ddl_epoch_.fetch_add(1, std::memory_order_acq_rel);
  return table;
}

Status Database::DropTable(const std::string& name) {
  TableInfo* table = catalog_->GetTable(name);
  if (table == nullptr) return Status::NotFound("table " + name);
  TableId id = table->id();
  MICROSPEC_RETURN_NOT_OK(catalog_->DropTable(name));
  if (bees_ != nullptr) bees_->CollectTable(id);  // the Bee Collector
  if (wal_ != nullptr) {
    std::string payload;
    walenc::EncodeDropTable(&payload, id);
    wal_->Append(WalRecordType::kDropTable, 0, 0, payload);
    MICROSPEC_RETURN_NOT_OK(wal_->Flush());
    std::lock_guard<std::mutex> guard(wal_sections_mu_);
    wal_logged_sections_.erase(id);
  }
  shared_bees_.Invalidate();
  ddl_epoch_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

Result<IndexInfo*> Database::CreateIndex(TableInfo* table,
                                         const std::string& name,
                                         std::vector<int> key_columns) {
  MICROSPEC_ASSIGN_OR_RETURN(IndexInfo * idx,
                             table->CreateIndex(name, key_columns));
  if (wal_ != nullptr) {
    std::string payload;
    walenc::EncodeCreateIndex(&payload, table->id(), name, key_columns);
    wal_->Append(WalRecordType::kCreateIndex, 0, 0, payload);
    MICROSPEC_RETURN_NOT_OK(wal_->Flush());
  }
  shared_bees_.Invalidate();
  ddl_epoch_.fetch_add(1, std::memory_order_acq_rel);
  return idx;
}

/// --- WAL transactions -------------------------------------------------------

Result<WalTxn> Database::BeginTxn() {
  if (wal_ == nullptr) return Status::NotSupported("wal disabled");
  WalTxn txn;
  txn.id = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  txn.last_lsn = wal_->Append(WalRecordType::kBegin, txn.id, 0, "").start_lsn;
  return txn;
}

Status Database::CommitTxn(WalTxn* txn) {
  if (wal_ == nullptr) return Status::NotSupported("wal disabled");
  Wal::AppendResult ar =
      wal_->Append(WalRecordType::kCommit, txn->id, txn->last_lsn, "");
  txn->last_lsn = ar.start_lsn;
  return wal_->Commit(ar.end_lsn);
}

Status Database::AbortTxn(WalTxn* txn) {
  if (wal_ == nullptr) return Status::NotSupported("wal disabled");
  uint64_t last = txn->last_lsn;
  uint64_t clrs = 0;
  MICROSPEC_RETURN_NOT_OK(UndoTransactionChain(this, txn->id, txn->last_lsn,
                                               /*fix_indexes=*/true, &last,
                                               &clrs));
  wal_->Append(WalRecordType::kAbort, txn->id, last, "");
  return Status::OK();
}

Status Database::LogNewSections(TableInfo* table) {
  if (bees_ == nullptr) return Status::OK();
  bee::RelationBeeState* state = bees_->StateFor(table->id());
  if (state == nullptr || !state->has_tuple_bees()) return Status::OK();
  bee::TupleBeeManager* tb = state->tuple_bees();
  std::lock_guard<std::mutex> guard(wal_sections_mu_);
  int& logged = wal_logged_sections_[table->id()];
  for (int i = logged; i < tb->num_sections(); ++i) {
    std::string payload;
    walenc::EncodeBeeSection(&payload, table->id(), static_cast<uint8_t>(i),
                             tb->section(static_cast<uint8_t>(i))->blob);
    wal_->Append(WalRecordType::kBeeSection, 0, 0, payload);
  }
  logged = tb->num_sections();
  return Status::OK();
}

uint64_t Database::LogDml(WalTxn* txn, WalRecordType type,
                          const std::string& payload, char* page) {
  Wal::AppendResult ar = wal_->Append(type, txn->id, txn->last_lsn, payload);
  txn->last_lsn = ar.start_lsn;
  // Stamped while the caller still pins the page: eviction after this point
  // flushes the log through end_lsn first (the buffer pool's hook).
  if (page != nullptr) PageSetLsn(page, ar.end_lsn);
  return ar.end_lsn;
}

IndexKey Database::KeyFor(const IndexInfo& idx, const Datum* values) {
  IndexKey key;
  for (int c : idx.key_columns) {
    key.part[key.nparts++] = DatumToInt64(values[c]);
  }
  return key;
}

Result<TupleId> Database::Insert(ExecContext* ctx, TableInfo* table,
                                 const Datum* values, const bool* isnull,
                                 WalTxn* txn) {
  if (wal_ != nullptr && txn == nullptr) {
    // Statement-level autocommit: wrap the insert in its own transaction.
    MICROSPEC_ASSIGN_OR_RETURN(WalTxn auto_txn, BeginTxn());
    auto res = Insert(ctx, table, values, isnull, &auto_txn);
    if (!res.ok()) {
      (void)AbortTxn(&auto_txn);
      return res;
    }
    MICROSPEC_RETURN_NOT_OK(CommitTxn(&auto_txn));
    return res;
  }
  const TupleFormer* former = ctx->FormerFor(table);
  MICROSPEC_RETURN_NOT_OK(former->FormTuple(values, isnull, &t_form_buf));
  PageGuard pin;
  MICROSPEC_ASSIGN_OR_RETURN(
      TupleId tid,
      table->heap()->Insert(t_form_buf.data(),
                            static_cast<uint32_t>(t_form_buf.size()),
                            wal_ != nullptr ? &pin : nullptr));
  if (wal_ != nullptr) {
    // Any data section this tuple's beeID references must precede the DML
    // record in the log (forming may have interned a new combination).
    MICROSPEC_RETURN_NOT_OK(LogNewSections(table));
    std::string payload;
    walenc::EncodeTupleOp(&payload, table->id(), tid, t_form_buf.data(),
                          static_cast<uint32_t>(t_form_buf.size()));
    LogDml(txn, WalRecordType::kInsert, payload, pin.data());
    pin.Release();
  }
  for (const auto& idx : table->indexes()) {
    MICROSPEC_RETURN_NOT_OK(idx->btree->Insert(KeyFor(*idx, values), tid));
  }
  table->AddTuples(1);
  return tid;
}

Result<TupleId> Database::Update(ExecContext* ctx, TableInfo* table,
                                 TupleId tid, const Datum* values,
                                 const bool* isnull, bool keys_changed,
                                 WalTxn* txn) {
  if (wal_ != nullptr && txn == nullptr) {
    MICROSPEC_ASSIGN_OR_RETURN(WalTxn auto_txn, BeginTxn());
    auto res = Update(ctx, table, tid, values, isnull, keys_changed, &auto_txn);
    if (!res.ok()) {
      (void)AbortTxn(&auto_txn);
      return res;
    }
    MICROSPEC_RETURN_NOT_OK(CommitTxn(&auto_txn));
    return res;
  }
  // Capture the old index keys if they may change.
  std::vector<IndexKey> old_keys;
  if (keys_changed && !table->indexes().empty()) {
    std::vector<Datum> old_values(
        static_cast<size_t>(table->schema().natts()));
    std::vector<char> old_nulls(static_cast<size_t>(table->schema().natts()));
    MICROSPEC_RETURN_NOT_OK(
        ReadTuple(ctx, table, tid, old_values.data(),
                  reinterpret_cast<bool*>(old_nulls.data())));
    for (const auto& idx : table->indexes()) {
      old_keys.push_back(KeyFor(*idx, old_values.data()));
    }
  }
  // The before-image, captured ahead of the mutation: undo restores exactly
  // these bytes.
  uint32_t old_len = 0;
  if (wal_ != nullptr) {
    MICROSPEC_RETURN_NOT_OK(FetchBeforeImage(table, tid, &old_len));
  }

  const TupleFormer* former = ctx->FormerFor(table);
  MICROSPEC_RETURN_NOT_OK(former->FormTuple(values, isnull, &t_form_buf));
  PageGuard pin_old;
  PageGuard pin_new;
  MICROSPEC_ASSIGN_OR_RETURN(
      TupleId new_tid,
      table->heap()->Update(tid, t_form_buf.data(),
                            static_cast<uint32_t>(t_form_buf.size()),
                            wal_ != nullptr ? &pin_old : nullptr,
                            wal_ != nullptr ? &pin_new : nullptr));
  if (wal_ != nullptr) {
    MICROSPEC_RETURN_NOT_OK(LogNewSections(table));
    const uint32_t new_len = static_cast<uint32_t>(t_form_buf.size());
    if (new_tid == tid) {
      // In place: one kUpdate record, one page mutation.
      std::string payload;
      walenc::EncodeUpdate(&payload, table->id(), tid, new_tid,
                           t_old_img.data(), old_len, t_form_buf.data(),
                           new_len);
      LogDml(txn, WalRecordType::kUpdate, payload, pin_new.data());
    } else {
      // Moved: an explicit kDelete + kInsert pair so each record demands
      // exactly one page mutation (storage/wal.h, EncodeUpdate contract).
      std::string del;
      walenc::EncodeTupleOp(&del, table->id(), tid, t_old_img.data(),
                            old_len);
      LogDml(txn, WalRecordType::kDelete, del, pin_old.data());
      std::string ins;
      walenc::EncodeTupleOp(&ins, table->id(), new_tid, t_form_buf.data(),
                            new_len);
      LogDml(txn, WalRecordType::kInsert, ins, pin_new.data());
    }
    pin_old.Release();
    pin_new.Release();
  }

  size_t i = 0;
  for (const auto& idx : table->indexes()) {
    if (keys_changed) {
      MICROSPEC_RETURN_NOT_OK(idx->btree->Remove(old_keys[i++]));
      MICROSPEC_RETURN_NOT_OK(idx->btree->Insert(KeyFor(*idx, values), new_tid));
    } else if (new_tid != tid) {
      MICROSPEC_RETURN_NOT_OK(
          idx->btree->UpdateTid(KeyFor(*idx, values), new_tid));
    }
  }
  return new_tid;
}

Status Database::Delete(ExecContext* ctx, TableInfo* table, TupleId tid,
                        WalTxn* txn) {
  if (wal_ != nullptr && txn == nullptr) {
    MICROSPEC_ASSIGN_OR_RETURN(WalTxn auto_txn, BeginTxn());
    Status s = Delete(ctx, table, tid, &auto_txn);
    if (!s.ok()) {
      (void)AbortTxn(&auto_txn);
      return s;
    }
    return CommitTxn(&auto_txn);
  }
  if (!table->indexes().empty()) {
    std::vector<Datum> old_values(
        static_cast<size_t>(table->schema().natts()));
    std::vector<char> old_nulls(static_cast<size_t>(table->schema().natts()));
    MICROSPEC_RETURN_NOT_OK(
        ReadTuple(ctx, table, tid, old_values.data(),
                  reinterpret_cast<bool*>(old_nulls.data())));
    for (const auto& idx : table->indexes()) {
      MICROSPEC_RETURN_NOT_OK(idx->btree->Remove(KeyFor(*idx, old_values.data())));
    }
  }
  // Before-image for the kDelete record: undo re-installs these bytes at
  // the preserved slot offset (LogApplyOp::kRestore).
  uint32_t old_len = 0;
  if (wal_ != nullptr) {
    MICROSPEC_RETURN_NOT_OK(FetchBeforeImage(table, tid, &old_len));
  }
  PageGuard pin;
  MICROSPEC_RETURN_NOT_OK(
      table->heap()->Delete(tid, wal_ != nullptr ? &pin : nullptr));
  if (wal_ != nullptr) {
    std::string payload;
    walenc::EncodeTupleOp(&payload, table->id(), tid, t_old_img.data(),
                          old_len);
    LogDml(txn, WalRecordType::kDelete, payload, pin.data());
    pin.Release();
  }
  table->AddTuples(-1);
  return Status::OK();
}

Status Database::ReadTuple(ExecContext* ctx, TableInfo* table, TupleId tid,
                           Datum* values, bool* isnull) {
  thread_local std::vector<char> buf;
  buf.resize(kPageSize);
  uint32_t len = 0;
  MICROSPEC_RETURN_NOT_OK(
      table->heap()->Fetch(tid, buf.data(), kPageSize, &len));
  ctx->DeformerFor(table)->Deform(buf.data(), table->schema().natts(), values,
                                  isnull);
  // Pointer datums reference the thread-local buffer; they remain valid
  // until this thread's next ReadTuple call.
  return Status::OK();
}

Database::BulkLoader::BulkLoader(Database* db, ExecContext* ctx,
                                 TableInfo* table, WalTxn* txn)
    : db_(db),
      table_(table),
      former_(ctx->FormerFor(table)),
      appender_(table->heap()),
      txn_(txn) {
  if (db_->wal_ != nullptr && txn_ == nullptr) {
    auto res = db_->BeginTxn();
    if (res.ok()) {
      own_txn_ = res.value();
      txn_ = &own_txn_;
      own_active_ = true;
    }
  }
}

Status Database::BulkLoader::Append(const Datum* values, const bool* isnull) {
  MICROSPEC_RETURN_NOT_OK(former_->FormTuple(values, isnull, &buf_));
  MICROSPEC_ASSIGN_OR_RETURN(
      TupleId tid,
      appender_.Append(buf_.data(), static_cast<uint32_t>(buf_.size())));
  if (db_->wal_ != nullptr && txn_ != nullptr) {
    MICROSPEC_RETURN_NOT_OK(db_->LogNewSections(table_));
    std::string payload;
    walenc::EncodeTupleOp(&payload, table_->id(), tid, buf_.data(),
                          static_cast<uint32_t>(buf_.size()));
    uint64_t end_lsn = db_->LogDml(txn_, WalRecordType::kInsert, payload,
                                   /*page=*/nullptr);
    // The appender keeps the tail page pinned; stamp it while it is.
    appender_.StampLsn(end_lsn);
  }
  for (const auto& idx : table_->indexes()) {
    MICROSPEC_RETURN_NOT_OK(idx->btree->Insert(KeyFor(*idx, values), tid));
  }
  ++count_;
  return Status::OK();
}

Status Database::BulkLoader::Finish() {
  appender_.Finish();
  table_->AddTuples(static_cast<int64_t>(count_));
  count_ = 0;
  if (own_active_) {
    own_active_ = false;
    return db_->CommitTxn(&own_txn_);
  }
  return Status::OK();
}

Status Database::Checkpoint() {
  // FlushAll honours the WAL rule through the pool's hook; the explicit
  // Flush first just batches it into one sync instead of one per victim.
  if (wal_ != nullptr) MICROSPEC_RETURN_NOT_OK(wal_->Flush());
  MICROSPEC_RETURN_NOT_OK(pool_->FlushAll());
  for (TableInfo* t : catalog_->AllTables()) {
    MICROSPEC_RETURN_NOT_OK(t->heap()->disk_manager()->Sync());
  }
  if (bees_ != nullptr) MICROSPEC_RETURN_NOT_OK(bees_->SaveCache());
  if (wal_ != nullptr) {
    wal_->Append(WalRecordType::kCheckpoint, 0, 0, "");
    MICROSPEC_RETURN_NOT_OK(wal_->Flush());
  }
  return Status::OK();
}

ThreadPool* Database::Executor(int dop) {
  std::lock_guard<std::mutex> guard(executor_mu_);
  if (executor_ == nullptr || executor_threads_ < dop) {
    // Growing replaces the pool (ThreadPool is fixed-size); the old pool's
    // dtor joins its workers, so this is only safe between queries.
    executor_ = std::make_unique<ThreadPool>(dop);
    executor_threads_ = dop;
  }
  return executor_.get();
}

telemetry::TelemetrySnapshot Database::SnapshotTelemetry() {
  telemetry::TelemetrySnapshot snap;
  snap.AddCounter("microspec_pages_read_total",
                  static_cast<double>(stats_.pages_read.Value()));
  snap.AddCounter("microspec_pages_written_total",
                  static_cast<double>(stats_.pages_written.Value()));
  snap.AddCounter("microspec_buffer_hits_total",
                  static_cast<double>(stats_.buffer_hits.Value()));
  snap.AddCounter("microspec_buffer_misses_total",
                  static_cast<double>(stats_.buffer_misses.Value()));
  // All threads, not just this one: forge/ThreadPool workers' deform work
  // counts too (the old thread_local read silently dropped it).
  snap.AddCounter("microspec_work_ops_total",
                  static_cast<double>(workops::TotalAcrossThreads()));
  snap.AddCounter("microspec_wal_records_total",
                  static_cast<double>(stats_.wal_records.Value()));
  snap.AddCounter("microspec_wal_bytes_total",
                  static_cast<double>(stats_.wal_bytes.Value()));
  snap.AddCounter("microspec_wal_fsyncs_total",
                  static_cast<double>(stats_.wal_fsyncs.Value()));
  if (bees_ != nullptr) bees_->FillTelemetry(&snap);
  tracer_.FillSnapshot(&snap);
  telemetry::Registry::Global().FillSnapshot(&snap);
  return snap;
}

}  // namespace microspec
