#include "storage/recovery.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "engine/database.h"
#include "storage/buffer_pool.h"
#include "storage/wal.h"
#include "test_util.h"

namespace microspec {
namespace {

using testing::RowToString;
using testing::ScratchDir;

DatabaseOptions WalOptions(const std::string& dir, bool enable_bees = false,
                           bool tuple_bees = false,
                           bee::BeeBackend backend = bee::BeeBackend::kProgram) {
  DatabaseOptions opts;
  opts.dir = dir;
  opts.enable_bees = enable_bees;
  opts.enable_tuple_bees = tuple_bees;
  opts.backend = backend;
  opts.verify_mode = enable_bees ? bee::VerifyMode::kEnforce
                                 : bee::VerifyMode::kOff;
  opts.forge.async = false;  // recovery must find log appliers synchronously
  opts.wal_enabled = true;
  return opts;
}

Schema KvSchema() {
  return Schema({Column("k", TypeId::kInt32, true),
                 Column("v", TypeId::kVarchar, false),
                 Column("n", TypeId::kInt32, false)});
}

/// Every row of `table`, rendered and sorted — heap order independent.
std::vector<std::string> SortedRows(Database* db, TableInfo* table) {
  auto ctx = db->MakeContext();
  int natts = table->schema().natts();
  std::vector<Datum> values(static_cast<size_t>(natts));
  std::vector<char> nulls(static_cast<size_t>(natts));
  const TupleDeformer* deformer = ctx->DeformerFor(table);
  std::vector<std::string> rows;
  HeapFile::Iterator scan = table->heap()->Scan();
  const char* tuple = nullptr;
  uint32_t len = 0;
  TupleId tid = 0;
  while (scan.Next(&tuple, &len, &tid)) {
    deformer->Deform(tuple, natts, values.data(),
                     reinterpret_cast<bool*>(nulls.data()));
    rows.push_back(RowToString(table->schema(), values.data(),
                               reinterpret_cast<bool*>(nulls.data())));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

Result<TupleId> Put(Database* db, ExecContext* ctx, TableInfo* table,
                    int32_t k, const std::string& v, WalTxn* txn = nullptr) {
  Arena arena;
  Datum values[3] = {DatumFromInt32(k), tupleops::MakeVarlena(&arena, v),
                     DatumFromInt32(k * 2)};
  bool isnull[3] = {false, false, false};
  return db->Insert(ctx, table, values, isnull, txn);
}

class RecoveryTest : public ::testing::Test {
 protected:
  ScratchDir dir_;
};

TEST_F(RecoveryTest, RedoReplaysCommittedWorkAfterCrash) {
  ASSERT_OK_AND_ASSIGN(auto db, Database::Open(WalOptions(dir_.path())));
  ASSERT_OK_AND_ASSIGN(TableInfo * table, db->CreateTable("kv", KvSchema()));
  ASSERT_OK(db->CreateIndex(table, "kv_pk", {0}).status());
  auto ctx = db->MakeContext();
  for (int i = 0; i < 25; ++i) {
    ASSERT_OK(Put(db.get(), ctx.get(), table, i, "v" + std::to_string(i))
                  .status());
  }
  // Autocommit made each insert durable; the crash loses only cached pages.
  db->SimulateCrashForTests();
  ctx.reset();
  db.reset();

  ASSERT_OK_AND_ASSIGN(db, Database::Open(WalOptions(dir_.path())));
  EXPECT_TRUE(db->last_recovery().ran);
  EXPECT_GT(db->last_recovery().redo_applied, 0u);
  EXPECT_EQ(db->last_recovery().txns_undone, 0u);
  table = db->catalog()->GetTable("kv");
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(SortedRows(db.get(), table).size(), 25u);
  EXPECT_EQ(table->tuple_count(), 25u);
  // Indexes are rebuilt from the recovered heap.
  ctx = db->MakeContext();
  IndexInfo* idx = table->GetIndex("kv_pk");
  ASSERT_NE(idx, nullptr);
  TupleId tid = 0;
  ASSERT_TRUE(idx->btree->Lookup(IndexKey::Of({17}), &tid));
  Datum v[3];
  bool n[3];
  ASSERT_OK(db->ReadTuple(ctx.get(), table, tid, v, n));
  EXPECT_EQ(VarlenaView(v[1]), "v17");
}

TEST_F(RecoveryTest, RestartUndoRollsBackLoserTransaction) {
  ASSERT_OK_AND_ASSIGN(auto db, Database::Open(WalOptions(dir_.path())));
  ASSERT_OK_AND_ASSIGN(TableInfo * table, db->CreateTable("kv", KvSchema()));
  auto ctx = db->MakeContext();
  for (int i = 0; i < 5; ++i) {
    ASSERT_OK(Put(db.get(), ctx.get(), table, i, "keep").status());
  }
  std::vector<std::string> committed = SortedRows(db.get(), table);

  ASSERT_OK_AND_ASSIGN(WalTxn txn, db->BeginTxn());
  for (int i = 100; i < 105; ++i) {
    ASSERT_OK(Put(db.get(), ctx.get(), table, i, "lose", &txn).status());
  }
  // Make the loser's records durable WITHOUT committing, then crash: redo
  // repeats its history and undo must roll it back with CLRs.
  ASSERT_OK(db->wal()->Flush());
  db->SimulateCrashForTests();
  ctx.reset();
  db.reset();

  ASSERT_OK_AND_ASSIGN(db, Database::Open(WalOptions(dir_.path())));
  EXPECT_EQ(db->last_recovery().txns_undone, 1u);
  EXPECT_GT(db->last_recovery().clrs_appended, 0u);
  table = db->catalog()->GetTable("kv");
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(SortedRows(db.get(), table), committed);
  EXPECT_EQ(table->tuple_count(), 5u);
}

TEST_F(RecoveryTest, RuntimeRollbackRestoresStateAndIndexes) {
  ASSERT_OK_AND_ASSIGN(auto db, Database::Open(WalOptions(dir_.path())));
  ASSERT_OK_AND_ASSIGN(TableInfo * table, db->CreateTable("kv", KvSchema()));
  ASSERT_OK(db->CreateIndex(table, "kv_pk", {0}).status());
  auto ctx = db->MakeContext();
  std::vector<TupleId> tids;
  for (int i = 0; i < 8; ++i) {
    ASSERT_OK_AND_ASSIGN(TupleId tid,
                         Put(db.get(), ctx.get(), table, i, "base"));
    tids.push_back(tid);
  }
  std::vector<std::string> before = SortedRows(db.get(), table);

  ASSERT_OK_AND_ASSIGN(WalTxn txn, db->BeginTxn());
  ASSERT_OK(Put(db.get(), ctx.get(), table, 200, "new", &txn).status());
  ASSERT_OK(db->Delete(ctx.get(), table, tids[3], &txn));
  {
    Arena arena;
    Datum values[3] = {DatumFromInt32(5),
                       tupleops::MakeVarlena(&arena, "changed"),
                       DatumFromInt32(99)};
    bool isnull[3] = {false, false, false};
    ASSERT_OK(
        db->Update(ctx.get(), table, tids[5], values, isnull, false, &txn)
            .status());
  }
  ASSERT_OK(db->AbortTxn(&txn));

  EXPECT_EQ(SortedRows(db.get(), table), before);
  EXPECT_EQ(table->tuple_count(), 8u);
  IndexInfo* idx = table->GetIndex("kv_pk");
  TupleId found = 0;
  EXPECT_FALSE(idx->btree->Lookup(IndexKey::Of({200}), &found));
  ASSERT_TRUE(idx->btree->Lookup(IndexKey::Of({3}), &found));
  Datum v[3];
  bool n[3];
  ASSERT_OK(db->ReadTuple(ctx.get(), table, found, v, n));
  EXPECT_EQ(VarlenaView(v[1]), "base");
}

TEST_F(RecoveryTest, DdlAndCheckpointSurviveCrash) {
  ASSERT_OK_AND_ASSIGN(auto db, Database::Open(WalOptions(dir_.path())));
  ASSERT_OK_AND_ASSIGN(TableInfo * t1, db->CreateTable("alpha", KvSchema()));
  ASSERT_OK(db->CreateIndex(t1, "alpha_pk", {0}).status());
  auto ctx = db->MakeContext();
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(Put(db.get(), ctx.get(), t1, i, "pre").status());
  }
  // Checkpoint flushes these pages; later redo must skip them by page LSN.
  ASSERT_OK(db->Checkpoint());
  ASSERT_OK_AND_ASSIGN(TableInfo * t2,
                       db->CreateTable(
                           "beta", Schema({Column("id", TypeId::kInt64, true),
                                           Column("x", TypeId::kFloat64,
                                                  false)})));
  {
    Datum values[2] = {DatumFromInt64(42), DatumFromFloat64(1.5)};
    bool isnull[2] = {false, false};
    ASSERT_OK(db->Insert(ctx.get(), t2, values, isnull).status());
  }
  for (int i = 10; i < 15; ++i) {
    ASSERT_OK(Put(db.get(), ctx.get(), t1, i, "post").status());
  }
  db->SimulateCrashForTests();
  ctx.reset();
  db.reset();

  ASSERT_OK_AND_ASSIGN(db, Database::Open(WalOptions(dir_.path())));
  EXPECT_GT(db->last_recovery().redo_skipped, 0u)
      << "checkpointed pages must win the page-LSN comparison";
  t1 = db->catalog()->GetTable("alpha");
  t2 = db->catalog()->GetTable("beta");
  ASSERT_NE(t1, nullptr);
  ASSERT_NE(t2, nullptr);
  EXPECT_EQ(t1->schema().natts(), 3);
  EXPECT_EQ(t2->schema().natts(), 2);
  EXPECT_EQ(t2->schema().column(0).type(), TypeId::kInt64);
  EXPECT_EQ(SortedRows(db.get(), t1).size(), 15u);
  EXPECT_EQ(SortedRows(db.get(), t2).size(), 1u);
  ASSERT_NE(t1->GetIndex("alpha_pk"), nullptr);
  TupleId tid = 0;
  EXPECT_TRUE(t1->GetIndex("alpha_pk")->btree->Lookup(IndexKey::Of({12}),
                                                      &tid));
}

TEST_F(RecoveryTest, DroppedTableStaysDropped) {
  ASSERT_OK_AND_ASSIGN(auto db, Database::Open(WalOptions(dir_.path())));
  ASSERT_OK_AND_ASSIGN(TableInfo * table, db->CreateTable("gone", KvSchema()));
  auto ctx = db->MakeContext();
  ASSERT_OK(Put(db.get(), ctx.get(), table, 1, "x").status());
  ASSERT_OK(db->DropTable("gone"));
  ASSERT_OK(db->CreateTable("kept", KvSchema()).status());
  db->SimulateCrashForTests();
  ctx.reset();
  db.reset();

  ASSERT_OK_AND_ASSIGN(db, Database::Open(WalOptions(dir_.path())));
  EXPECT_EQ(db->catalog()->GetTable("gone"), nullptr);
  EXPECT_NE(db->catalog()->GetTable("kept"), nullptr);
}

TEST_F(RecoveryTest, StreamedRestartCountsMatchTheLog) {
  constexpr int kCommitted = 12;
  constexpr int kRowsPerTxn = 3;
  ASSERT_OK_AND_ASSIGN(auto db, Database::Open(WalOptions(dir_.path())));
  ASSERT_OK_AND_ASSIGN(TableInfo * table, db->CreateTable("kv", KvSchema()));
  auto ctx = db->MakeContext();
  for (int t = 0; t < kCommitted; ++t) {
    ASSERT_OK_AND_ASSIGN(WalTxn txn, db->BeginTxn());
    for (int j = 0; j < kRowsPerTxn; ++j) {
      ASSERT_OK(Put(db.get(), ctx.get(), table, t * kRowsPerTxn + j, "c",
                    &txn)
                    .status());
    }
    ASSERT_OK(db->CommitTxn(&txn));
  }
  std::vector<std::string> committed = SortedRows(db.get(), table);
  ASSERT_OK_AND_ASSIGN(WalTxn loser, db->BeginTxn());
  for (int i = 1000; i < 1004; ++i) {
    ASSERT_OK(Put(db.get(), ctx.get(), table, i, "open", &loser).status());
  }
  ASSERT_OK(db->wal()->Flush());
  db->SimulateCrashForTests();
  ctx.reset();
  db.reset();

  ASSERT_OK_AND_ASSIGN(std::vector<WalRecord> records,
                       Wal::ReadAll(dir_.path() + "/wal.log"));
  uint64_t page_records = 0;
  for (const WalRecord& rec : records) {
    switch (rec.type) {
      case WalRecordType::kInsert:
      case WalRecordType::kDelete:
      case WalRecordType::kUpdate:
      case WalRecordType::kClr:
        ++page_records;
        break;
      default:
        break;
    }
  }
  ASSERT_EQ(page_records,
            uint64_t{kCommitted * kRowsPerTxn} + 4);  // no CLR yet

  ASSERT_OK_AND_ASSIGN(db, Database::Open(WalOptions(dir_.path())));
  const RecoveryStats& rec = db->last_recovery();
  EXPECT_TRUE(rec.ran);
  EXPECT_EQ(rec.records_scanned, records.size());
  EXPECT_EQ(rec.txns_committed, uint64_t{kCommitted});
  EXPECT_EQ(rec.txns_undone, 1u);
  EXPECT_EQ(rec.redo_applied + rec.redo_skipped, page_records);
  table = db->catalog()->GetTable("kv");
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(SortedRows(db.get(), table), committed);
}

TEST_F(RecoveryTest, MalformedRecordFailsOpenCleanly) {
  {
    ASSERT_OK_AND_ASSIGN(auto db, Database::Open(WalOptions(dir_.path())));
    ASSERT_OK_AND_ASSIGN(TableInfo * table,
                         db->CreateTable("kv", KvSchema()));
    auto ctx = db->MakeContext();
    ASSERT_OK(Put(db.get(), ctx.get(), table, 1, "before").status());
    // CRC-valid framing around a payload DecodeTupleOp rejects.
    db->wal()->Append(WalRecordType::kInsert, 1u << 20, 0, "xyz");
    ASSERT_OK(Put(db.get(), ctx.get(), table, 2, "after").status());
    db->SimulateCrashForTests();
  }
  ASSERT_OK_AND_ASSIGN(std::vector<WalRecord> records,
                       Wal::ReadAll(dir_.path() + "/wal.log"));
  ASSERT_TRUE(std::any_of(records.begin(), records.end(),
                          [](const WalRecord& r) { return r.payload == "xyz"; }))
      << "the malformed record must be durable for this test to mean much";

  auto reopened = Database::Open(WalOptions(dir_.path()));
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption)
      << reopened.status().ToString();
}

/// Redo skips a record without pinning when the page it names already read
/// a later LSN at its first pin. The page is named by its file as well as
/// its number: page 0 of `a` written back late must not hide records for
/// page 0 of `b`.
TEST_F(RecoveryTest, RedoSkipIsPerFilePage) {
  ASSERT_OK_AND_ASSIGN(auto db, Database::Open(WalOptions(dir_.path())));
  ASSERT_OK_AND_ASSIGN(TableInfo * a, db->CreateTable("a", KvSchema()));
  ASSERT_OK_AND_ASSIGN(TableInfo * b, db->CreateTable("b", KvSchema()));
  auto ctx = db->MakeContext();
  ASSERT_OK_AND_ASSIGN(TupleId a1, Put(db.get(), ctx.get(), a, 1, "a1"));
  ASSERT_OK_AND_ASSIGN(TupleId b1, Put(db.get(), ctx.get(), b, 1, "b1"));
  ASSERT_OK_AND_ASSIGN(TupleId a2, Put(db.get(), ctx.get(), a, 2, "a2"));
  ASSERT_EQ(TupleIdPage(a1), 0u);
  ASSERT_EQ(TupleIdPage(b1), 0u);
  ASSERT_EQ(TupleIdPage(a2), 0u);
  // An eviction of a's page alone: the WAL rule first, then the page image
  // stamped with a2's LSN. b's page never reaches disk.
  ASSERT_OK(db->wal()->Flush());
  {
    DiskManager* dm = a->heap()->disk_manager();
    ASSERT_OK_AND_ASSIGN(PageGuard page, db->buffer_pool()->Pin(dm->file_id(),
                                                                0));
    std::vector<char> image(page.data(), page.data() + kPageSize);
    ASSERT_OK(dm->WritePage(0, image.data()));
  }
  db->SimulateCrashForTests();
  ctx.reset();
  db.reset();

  ASSERT_OK_AND_ASSIGN(db, Database::Open(WalOptions(dir_.path())));
  EXPECT_EQ(db->last_recovery().redo_applied, 1u);  // b1
  EXPECT_EQ(db->last_recovery().redo_skipped, 2u);  // a1, a2
  a = db->catalog()->GetTable("a");
  b = db->catalog()->GetTable("b");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(SortedRows(db.get(), a).size(), 2u);
  EXPECT_EQ(SortedRows(db.get(), b).size(), 1u);
}

/// Satellite: the post-recovery bee state must be indistinguishable from a
/// twin database that executed the same committed workload and never
/// crashed — same tuple-bee section count, same slab bytes, same spec
/// columns, same rows.
TEST_F(RecoveryTest, TupleBeeSlabsMatchNeverCrashedTwin) {
  Column cat("cat", TypeId::kInt32, true);
  cat.set_low_cardinality(true);
  Schema schema({Column("k", TypeId::kInt32, true), cat,
                 Column("v", TypeId::kVarchar, false)});

  auto workload = [](Database* db, TableInfo* table) {
    auto ctx = db->MakeContext();
    Arena arena;
    for (int i = 0; i < 30; ++i) {
      Datum values[3] = {DatumFromInt32(i), DatumFromInt32(i % 4),
                         tupleops::MakeVarlena(&arena, "r" + std::to_string(i))};
      bool isnull[3] = {false, false, false};
      ASSERT_OK(db->Insert(ctx.get(), table, values, isnull).status());
    }
  };

  // Crashed copy.
  ASSERT_OK_AND_ASSIGN(
      auto db, Database::Open(WalOptions(dir_.path() + "/crash", true, true)));
  ASSERT_OK_AND_ASSIGN(TableInfo * table, db->CreateTable("fact", schema));
  workload(db.get(), table);
  db->SimulateCrashForTests();
  db.reset();
  ASSERT_OK_AND_ASSIGN(
      db, Database::Open(WalOptions(dir_.path() + "/crash", true, true)));
  db->QuiesceBees();

  // Twin: same workload, clean shutdown, no crash, no recovery.
  ASSERT_OK_AND_ASSIGN(
      auto twin, Database::Open(WalOptions(dir_.path() + "/twin", true, true)));
  ASSERT_OK_AND_ASSIGN(TableInfo * twin_table,
                       twin->CreateTable("fact", schema));
  workload(twin.get(), twin_table);
  twin->QuiesceBees();

  table = db->catalog()->GetTable("fact");
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(SortedRows(db.get(), table), SortedRows(twin.get(), twin_table));

  bee::RelationBeeState* st = db->bees()->StateFor(table->id());
  bee::RelationBeeState* twin_st = twin->bees()->StateFor(twin_table->id());
  ASSERT_NE(st, nullptr);
  ASSERT_NE(twin_st, nullptr);
  ASSERT_TRUE(st->has_tuple_bees());
  ASSERT_TRUE(twin_st->has_tuple_bees());
  const bee::TupleBeeManager* tb = st->tuple_bees();
  const bee::TupleBeeManager* twin_tb = twin_st->tuple_bees();
  EXPECT_EQ(tb->spec_cols(), twin_tb->spec_cols());
  ASSERT_EQ(tb->num_sections(), twin_tb->num_sections());
  EXPECT_EQ(tb->num_sections(), 4);
  for (int i = 0; i < tb->num_sections(); ++i) {
    uint8_t id = static_cast<uint8_t>(i);
    EXPECT_EQ(tb->section(id)->blob, twin_tb->section(id)->blob)
        << "data-section slab " << i << " diverged across recovery";
  }
}

/// Satellite: a moved-from PageGuard must be fully inert — never marks the
/// frame dirty, never writes back, and Release is a no-op.
TEST_F(RecoveryTest, MovedFromPageGuardIsInert) {
  DatabaseOptions opts;
  opts.dir = dir_.path();
  ASSERT_OK_AND_ASSIGN(auto db, Database::Open(std::move(opts)));
  ASSERT_OK_AND_ASSIGN(TableInfo * table, db->CreateTable("g", KvSchema()));
  BufferPool* pool = db->buffer_pool();
  const uint32_t file_id = table->heap()->disk_manager()->file_id();
  PageNo pn = 0;
  {
    ASSERT_OK_AND_ASSIGN(PageGuard fresh,
                         pool->NewPage(table->heap()->disk_manager(), &pn));
    SlottedPage::Init(fresh.data());
    fresh.MarkDirty();
  }
  {
    ASSERT_OK_AND_ASSIGN(PageGuard a, pool->Pin(file_id, pn));
    a.MarkDirty();
    ASSERT_TRUE(a.valid());
    ASSERT_TRUE(a.dirty());
    PageGuard b = std::move(a);
    // The moved-from guard forgets everything, including dirty_.
    EXPECT_FALSE(a.valid());
    EXPECT_FALSE(a.dirty());
    a.Release();  // must be a no-op, not a double-unpin
    EXPECT_TRUE(b.valid());
    EXPECT_TRUE(b.dirty());
    PageGuard c;
    c = std::move(b);
    EXPECT_FALSE(b.valid());
    EXPECT_FALSE(b.dirty());
    EXPECT_TRUE(c.valid());
  }
  // A clean pin after the moves: nothing marked the frame dirty again, and
  // unpinning a clean guard must not write back.
  ASSERT_OK_AND_ASSIGN(PageGuard check, pool->Pin(file_id, pn));
  EXPECT_FALSE(check.dirty());
}

}  // namespace
}  // namespace microspec
