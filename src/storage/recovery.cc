#include "storage/recovery.h"

#include <algorithm>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "bee/log_bee.h"
#include "engine/database.h"
#include "storage/page.h"

namespace microspec {

namespace {

/// Tier-selected page apply: native log bee when the forge has promoted it,
/// the program-tier applier otherwise, and the generic (schema-blind)
/// applier on a bees-off database. All three enforce page-structural
/// invariants; the bee tiers additionally validate the tuple image against
/// the relation's catalog-derived layout before it touches the page.
Status ApplyThroughLogBee(Database* db, TableInfo* table, char* page,
                          bee::LogApplyOp op, uint16_t slot, const char* img,
                          uint32_t len) {
  if (db->bees() != nullptr) {
    bee::RelationBeeState* state = db->bees()->StateFor(table->id());
    if (state != nullptr) {
      bee::NativeLogApplyFn la = state->native_log_apply();
      if (la != nullptr) {
        int rc = la(page, static_cast<int>(op), slot, img, len);
        if (rc == 0) return Status::OK();
        return Status::Corruption("native log applier rejected " +
                                  std::string(bee::LogApplyOpName(op)) +
                                  " (code " + std::to_string(rc) + ")");
      }
      if (!state->log_applier().empty()) {
        return state->log_applier().Apply(page, op, slot, img, len);
      }
    }
  }
  return bee::GenericLogApply(page, op, slot, img, len);
}

/// Pins a heap page for redo, reconstructing what the crash destroyed:
/// extends the file when the tail allocation was lost, re-images a page
/// whose checksum no longer verifies (torn heap write), and initializes
/// never-written (all-zero) pages. Redo then repeats history from LSN 0,
/// so a re-imaged page converges to its pre-crash committed state.
Result<PageGuard> PinForRedo(Database* db, TableInfo* table, PageNo page_no,
                             uint64_t* pages_rebuilt) {
  DiskManager* dm = table->heap()->disk_manager();
  while (page_no >= dm->num_pages()) {
    PageNo got = 0;
    MICROSPEC_ASSIGN_OR_RETURN(PageGuard guard,
                               db->buffer_pool()->NewPage(dm, &got));
    SlottedPage::Init(guard.data());
    guard.MarkDirty();
    if (got == page_no) return guard;
  }
  auto res = db->buffer_pool()->Pin(dm->file_id(), page_no);
  if (!res.ok()) {
    // Checksum mismatch (torn write). Zero the page on disk and rebuild it
    // from the log.
    std::vector<char> zero(kPageSize, 0);
    MICROSPEC_RETURN_NOT_OK(dm->WritePage(page_no, zero.data()));
    MICROSPEC_ASSIGN_OR_RETURN(PageGuard guard,
                               db->buffer_pool()->Pin(dm->file_id(), page_no));
    SlottedPage::Init(guard.data());
    guard.MarkDirty();
    ++*pages_rebuilt;
    return guard;
  }
  PageGuard guard = res.MoveValue();
  if (PageIsZero(guard.data())) {
    SlottedPage::Init(guard.data());
    guard.MarkDirty();
  }
  return guard;
}

/// One DML/CLR record reduced to its page mutation.
struct RedoOp {
  bee::LogApplyOp op;
  uint32_t table_id = 0;
  TupleId tid = 0;
  std::string img;
  bool ok = false;
};

RedoOp DecodeRedo(const WalRecord& rec) {
  RedoOp out;
  switch (rec.type) {
    case WalRecordType::kInsert: {
      out.op = bee::LogApplyOp::kInsert;
      out.ok = walenc::DecodeTupleOp(rec.payload, &out.table_id, &out.tid,
                                     &out.img);
      break;
    }
    case WalRecordType::kDelete: {
      out.op = bee::LogApplyOp::kDelete;
      out.ok = walenc::DecodeTupleOp(rec.payload, &out.table_id, &out.tid,
                                     &out.img);
      break;
    }
    case WalRecordType::kUpdate: {
      TupleId old_tid = 0;
      std::string old_img;
      out.op = bee::LogApplyOp::kUpdateInPlace;
      out.ok = walenc::DecodeUpdate(rec.payload, &out.table_id, &old_tid,
                                    &out.tid, &old_img, &out.img);
      // The engine logs moved updates as kDelete + kInsert pairs; a kUpdate
      // record is in-place by contract.
      if (out.ok && old_tid != out.tid) out.ok = false;
      break;
    }
    case WalRecordType::kClr: {
      uint64_t undo_next = 0;
      uint8_t op = 0;
      out.ok = walenc::DecodeClr(rec.payload, &undo_next, &op, &out.table_id,
                                 &out.tid, &out.img);
      if (op > static_cast<uint8_t>(bee::LogApplyOp::kUpdateInPlace)) {
        out.ok = false;
      }
      out.op = static_cast<bee::LogApplyOp>(op);
      break;
    }
    default:
      break;
  }
  return out;
}

}  // namespace

Status UndoTransactionChain(Database* db, uint64_t txn_id, uint64_t last_lsn,
                            bool fix_indexes, uint64_t* out_last_lsn,
                            uint64_t* clrs_appended) {
  Wal* wal = db->wal();
  uint64_t chain = last_lsn;  // prev_lsn for the CLRs (and the kAbort)
  uint64_t next = last_lsn;
  std::unique_ptr<ExecContext> ctx;
  std::vector<Datum> values;
  std::vector<char> nulls;
  while (next != 0) {
    MICROSPEC_ASSIGN_OR_RETURN(WalRecord rec, wal->ReadRecord(next));
    if (rec.type == WalRecordType::kClr) {
      // Already-compensated suffix: jump straight past everything this CLR's
      // original record preceded (repeating history made its effect real).
      uint64_t undo_next = 0;
      uint8_t op = 0;
      uint32_t table_id = 0;
      TupleId tid = 0;
      std::string img;
      if (!walenc::DecodeClr(rec.payload, &undo_next, &op, &table_id, &tid,
                             &img)) {
        return Status::Corruption("undo: malformed CLR");
      }
      next = undo_next;
      continue;
    }
    if (rec.type == WalRecordType::kBegin) break;
    RedoOp fwd = DecodeRedo(rec);
    if (!fwd.ok) return Status::Corruption("undo: malformed DML record");
    // The page-level inverse of the forward op.
    bee::LogApplyOp inv;
    std::string inv_img;
    switch (rec.type) {
      case WalRecordType::kInsert:
        inv = bee::LogApplyOp::kDelete;
        break;
      case WalRecordType::kDelete:
        inv = bee::LogApplyOp::kRestore;
        inv_img = fwd.img;  // the before-image the record carried
        break;
      default: {  // kUpdate, in-place by contract
        TupleId old_tid = 0;
        TupleId new_tid = 0;
        std::string old_img;
        std::string new_img;
        uint32_t table_id = 0;
        walenc::DecodeUpdate(rec.payload, &table_id, &old_tid, &new_tid,
                             &old_img, &new_img);
        inv = bee::LogApplyOp::kUpdateInPlace;
        inv_img = old_img;
        break;
      }
    }
    TableInfo* table = db->catalog()->GetTable(fwd.table_id);
    if (table == nullptr) {  // relation dropped after this record
      next = rec.prev_lsn;
      continue;
    }
    if (fix_indexes && !table->indexes().empty()) {
      // Runtime rollback keeps the B+trees consistent statement by
      // statement; restart undo skips this and rebuilds indexes wholesale.
      if (ctx == nullptr) ctx = db->MakeContext();
      int natts = table->schema().natts();
      values.resize(static_cast<size_t>(natts));
      nulls.resize(static_cast<size_t>(natts));
      const TupleDeformer* deformer = ctx->DeformerFor(table);
      if (rec.type != WalRecordType::kDelete) {
        // Remove the entries keyed by the image this record installed
        // (the inserted tuple, or an update's new image).
        const std::string& installed = fwd.img;
        deformer->Deform(installed.data(), natts, values.data(),
                         reinterpret_cast<bool*>(nulls.data()));
        for (const auto& idx : table->indexes()) {
          (void)idx->btree->Remove(Database::KeyFor(*idx, values.data()));
        }
      }
      if (rec.type != WalRecordType::kInsert) {
        // Re-insert the entries for the image undo restores.
        const std::string& restored =
            rec.type == WalRecordType::kDelete ? fwd.img : inv_img;
        deformer->Deform(restored.data(), natts, values.data(),
                         reinterpret_cast<bool*>(nulls.data()));
        for (const auto& idx : table->indexes()) {
          (void)idx->btree->Insert(Database::KeyFor(*idx, values.data()),
                                   fwd.tid);
        }
      }
    }
    MICROSPEC_ASSIGN_OR_RETURN(
        PageGuard guard,
        db->buffer_pool()->Pin(table->heap()->disk_manager()->file_id(),
                               TupleIdPage(fwd.tid)));
    MICROSPEC_RETURN_NOT_OK(ApplyThroughLogBee(
        db, table, guard.data(), inv, TupleIdSlot(fwd.tid), inv_img.data(),
        static_cast<uint32_t>(inv_img.size())));
    std::string clr;
    walenc::EncodeClr(&clr, rec.prev_lsn, static_cast<uint8_t>(inv),
                      fwd.table_id, fwd.tid, inv_img.data(),
                      static_cast<uint32_t>(inv_img.size()));
    Wal::AppendResult ar =
        wal->Append(WalRecordType::kClr, txn_id, chain, clr);
    chain = ar.start_lsn;
    PageSetLsn(guard.data(), ar.end_lsn);
    guard.MarkDirty();
    ++*clrs_appended;
    if (fix_indexes) {
      if (rec.type == WalRecordType::kInsert) table->AddTuples(-1);
      if (rec.type == WalRecordType::kDelete) table->AddTuples(1);
    }
    next = rec.prev_lsn;
  }
  *out_last_lsn = chain;
  return Status::OK();
}

Result<RecoveryStats> RunRecovery(Database* db) {
  RecoveryStats stats;
  Wal* wal = db->wal();
  if (wal == nullptr) return stats;

  // Each transaction's chain head, for open transactions only: an entry
  // leaves at the transaction's kCommit or kAbort, so what is left after
  // the pass is the loser set, and memory follows the open transactions
  // rather than the log's length.
  std::unordered_map<uint64_t, uint64_t> last_lsn;
  uint64_t max_txn = 0;
  // (file id << 32 | page) -> the page's LSN when redo first pinned it. Page
  // LSNs only grow, and after that pin only to the end-LSN of a record redo
  // applies, so a later record ending at or below it needs no pin to be
  // skipped.
  std::unordered_map<uint64_t, uint64_t> first_pin_lsn;

  // --- One forward pass: analysis folded into redo --------------------------
  // Redo repeats history, losers included, so it needs no outcome from
  // analysis. DDL rebuilds the in-memory catalog (and the relation bees, so
  // redo runs through freshly compiled log appliers); kBeeSection records
  // re-grow the tuple-bee slabs in beeID order; DML/CLR records replay page
  // mutations gated on the page LSN.
  MICROSPEC_RETURN_NOT_OK(wal->Replay([&](const WalRecord& rec) -> Status {
    ++stats.records_scanned;
    if (rec.txn_id != 0) {
      max_txn = std::max(max_txn, rec.txn_id);
      if (rec.type == WalRecordType::kCommit) {
        last_lsn.erase(rec.txn_id);
        ++stats.txns_committed;
      } else if (rec.type == WalRecordType::kAbort) {
        last_lsn.erase(rec.txn_id);
      } else {
        last_lsn[rec.txn_id] = rec.start_lsn;
      }
    }
    switch (rec.type) {
      case WalRecordType::kCreateTable: {
        uint32_t id = 0;
        std::string name;
        std::string schema_bytes;
        if (!walenc::DecodeCreateTable(rec.payload, &id, &name,
                                       &schema_bytes)) {
          return Status::Corruption("recovery: malformed kCreateTable");
        }
        size_t pos = 0;
        MICROSPEC_ASSIGN_OR_RETURN(Schema schema,
                                   Schema::Deserialize(schema_bytes, &pos));
        MICROSPEC_ASSIGN_OR_RETURN(
            TableInfo * table,
            db->catalog()->CreateTableWithId(id, name, std::move(schema)));
        if (db->bees() != nullptr) {
          MICROSPEC_RETURN_NOT_OK(db->bees()->CreateRelationBees(
              table, db->options().enable_tuple_bees));
        }
        break;
      }
      case WalRecordType::kCreateIndex: {
        uint32_t table_id = 0;
        std::string name;
        std::vector<int> key_columns;
        if (!walenc::DecodeCreateIndex(rec.payload, &table_id, &name,
                                       &key_columns)) {
          return Status::Corruption("recovery: malformed kCreateIndex");
        }
        TableInfo* table = db->catalog()->GetTable(table_id);
        if (table == nullptr) break;  // dropped later in the log
        MICROSPEC_RETURN_NOT_OK(
            table->CreateIndex(name, std::move(key_columns)).status());
        break;
      }
      case WalRecordType::kDropTable: {
        uint32_t table_id = 0;
        if (!walenc::DecodeDropTable(rec.payload, &table_id)) {
          return Status::Corruption("recovery: malformed kDropTable");
        }
        TableInfo* table = db->catalog()->GetTable(table_id);
        if (table == nullptr) break;
        std::string name = table->name();
        MICROSPEC_RETURN_NOT_OK(db->catalog()->DropTable(name));
        if (db->bees() != nullptr) db->bees()->CollectTable(table_id);
        db->wal_logged_sections_.erase(table_id);
        break;
      }
      case WalRecordType::kBeeSection: {
        uint32_t table_id = 0;
        uint8_t bee_id = 0;
        std::string blob;
        if (!walenc::DecodeBeeSection(rec.payload, &table_id, &bee_id,
                                      &blob)) {
          return Status::Corruption("recovery: malformed kBeeSection");
        }
        if (db->bees() == nullptr) break;  // bees-off replay of a bee log
        bee::RelationBeeState* state = db->bees()->StateFor(table_id);
        if (state == nullptr || !state->has_tuple_bees()) break;
        bee::TupleBeeManager* tb = state->tuple_bees();
        if (bee_id != tb->num_sections()) {
          return Status::Corruption("recovery: kBeeSection out of order");
        }
        MICROSPEC_RETURN_NOT_OK(tb->RestoreSection(blob));
        // Mark it persisted so runtime DML does not re-log it.
        db->wal_logged_sections_[table_id] = tb->num_sections();
        break;
      }
      case WalRecordType::kInsert:
      case WalRecordType::kDelete:
      case WalRecordType::kUpdate:
      case WalRecordType::kClr: {
        RedoOp op = DecodeRedo(rec);
        if (!op.ok) return Status::Corruption("recovery: malformed record");
        TableInfo* table = db->catalog()->GetTable(op.table_id);
        if (table == nullptr) break;  // relation dropped later in the log
        const uint64_t page_key =
            (uint64_t{table->heap()->disk_manager()->file_id()} << 32) |
            TupleIdPage(op.tid);
        auto known = first_pin_lsn.find(page_key);
        if (known != first_pin_lsn.end() && rec.end_lsn <= known->second) {
          ++stats.redo_skipped;
          break;
        }
        MICROSPEC_ASSIGN_OR_RETURN(
            PageGuard guard,
            PinForRedo(db, table, TupleIdPage(op.tid), &stats.pages_rebuilt));
        first_pin_lsn.try_emplace(page_key, PageGetLsn(guard.data()));
        if (PageGetLsn(guard.data()) >= rec.end_lsn) {
          ++stats.redo_skipped;  // the page already reflects this record
          break;
        }
        MICROSPEC_RETURN_NOT_OK(ApplyThroughLogBee(
            db, table, guard.data(), op.op, TupleIdSlot(op.tid),
            op.img.data(), static_cast<uint32_t>(op.img.size())));
        PageSetLsn(guard.data(), rec.end_lsn);
        guard.MarkDirty();
        ++stats.redo_applied;
        break;
      }
      default:
        break;  // kBegin/kCommit/kAbort/kCheckpoint carry no page mutation
    }
    return Status::OK();
  }));
  if (stats.records_scanned == 0) return stats;
  stats.ran = true;

  // --- Undo: roll back the losers -------------------------------------------
  // Highest txn first (reverse begin order approximates reverse LSN order;
  // exact order is immaterial here because every record mutates exactly one
  // page slot and chains never interleave on a slot without a commit).
  std::map<uint64_t, uint64_t> losers(last_lsn.begin(), last_lsn.end());
  for (auto it = losers.rbegin(); it != losers.rend(); ++it) {
    uint64_t out_last = it->second;
    MICROSPEC_RETURN_NOT_OK(UndoTransactionChain(db, it->first, it->second,
                                                 /*fix_indexes=*/false,
                                                 &out_last,
                                                 &stats.clrs_appended));
    wal->Append(WalRecordType::kAbort, it->first, out_last, "");
    ++stats.txns_undone;
  }
  MICROSPEC_RETURN_NOT_OK(wal->Flush());

  // --- Rebuild derived state ------------------------------------------------
  // Indexes and tuple counts are in-memory only; one heap scan per relation
  // reconstructs both from the now-consistent pages.
  auto ctx = db->MakeContext();
  for (TableInfo* table : db->catalog()->AllTables()) {
    int natts = table->schema().natts();
    std::vector<Datum> values(static_cast<size_t>(natts));
    std::vector<char> nulls(static_cast<size_t>(natts));
    const TupleDeformer* deformer = ctx->DeformerFor(table);
    HeapFile::Iterator scan = table->heap()->Scan();
    const char* tuple = nullptr;
    uint32_t len = 0;
    TupleId tid = 0;
    int64_t count = 0;
    while (scan.Next(&tuple, &len, &tid)) {
      ++count;
      if (table->indexes().empty()) continue;
      deformer->Deform(tuple, natts, values.data(),
                       reinterpret_cast<bool*>(nulls.data()));
      for (const auto& idx : table->indexes()) {
        MICROSPEC_RETURN_NOT_OK(
            idx->btree->Insert(Database::KeyFor(*idx, values.data()), tid));
      }
    }
    MICROSPEC_RETURN_NOT_OK(scan.status());
    table->AddTuples(count);
  }
  db->next_txn_id_.store(max_txn + 1, std::memory_order_relaxed);
  return stats;
}

}  // namespace microspec
