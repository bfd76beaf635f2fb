/// Kill-and-replay differential proof of the WAL (DESIGN.md §11).
///
/// The parent test iterates (config, crash site, nth hit): for each point it
/// forks a child that re-executes a deterministic scripted workload with
/// MICROSPEC_FAILPOINT="<site>=kill@n" armed — the nth arrival at that WAL
/// crash point raises SIGKILL from inside the engine, a real kill -9 with
/// whatever the OS page cache happens to hold. The parent then opens the
/// survivor (running restart recovery) and checks it is bit-identical — rows,
/// catalog, indexes, tuple-bee data sections — to a twin database that
/// serially executed exactly the committed prefix and never crashed. When a
/// child survives the whole workload the site has run out of crash points
/// and the sweep moves on, so every flush-path crash point is covered.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <string>
#include <vector>

#include "engine/database.h"
#include "storage/recovery.h"
#include "test_util.h"

namespace microspec {
namespace {

using testing::RowToString;
using testing::ScratchDir;

struct DiffConfig {
  const char* name;
  bool bees;
  bool tuple_bees;
  bee::BeeBackend backend;
  int batch_rows;   // > 0 also routes part of each txn through BulkLoader
  int total_txns;
};

constexpr DiffConfig kConfigs[] = {
    {"off", false, false, bee::BeeBackend::kProgram, 0, 8},
    {"off_batch", false, false, bee::BeeBackend::kProgram, 64, 8},
    {"program", true, true, bee::BeeBackend::kProgram, 0, 8},
    {"program_batch", true, true, bee::BeeBackend::kProgram, 64, 8},
    {"native", true, true, bee::BeeBackend::kNative, 0, 4},
    {"native_batch", true, true, bee::BeeBackend::kNative, 64, 4},
};

constexpr const char* kSites[] = {"wal.prewrite", "wal.presync",
                                  "wal.postsync"};

/// Safety valve: a site must drain (child survives) within this many hits.
constexpr int kMaxCrashPoints = 400;

const DiffConfig* FindConfig(const std::string& name) {
  for (const DiffConfig& c : kConfigs) {
    if (name == c.name) return &c;
  }
  return nullptr;
}

DatabaseOptions OptionsFor(const DiffConfig& cfg, const std::string& dir) {
  DatabaseOptions opts;
  opts.dir = dir;
  opts.enable_bees = cfg.bees;
  opts.enable_tuple_bees = cfg.tuple_bees;
  opts.backend = cfg.backend;
  opts.verify_mode =
      cfg.bees ? bee::VerifyMode::kEnforce : bee::VerifyMode::kOff;
  // Inline forging: restart recovery must be able to install native log
  // appliers synchronously, and the child must not race a forge thread.
  opts.forge.async = false;
  opts.batch_rows = cfg.batch_rows;
  opts.wal_enabled = true;
  opts.wal_group_commit = true;
  return opts;
}

Schema T1Schema() {
  Column cat("cat", TypeId::kInt32, true);
  cat.set_low_cardinality(true);
  return Schema({Column("k", TypeId::kInt32, true), cat,
                 Column("v", TypeId::kVarchar, false),
                 Column("n", TypeId::kInt32, false)});
}

Schema T2Schema() {
  return Schema({Column("id", TypeId::kInt64, true),
                 Column("x", TypeId::kFloat64, false)});
}

Schema HistorySchema() {
  return Schema({Column("txn", TypeId::kInt32, true)});
}

std::string PadVal(char tag, int i, int j) {
  // Fixed 120-byte payload so the scripted in-place update (same tag width)
  // really is in place, while the 900-byte growth below cannot be.
  std::string v;
  v.push_back(tag);
  v += std::to_string(i * 10 + j);
  v.resize(120, '.');
  return v;
}

Status InsertT1(Database* db, ExecContext* ctx, TableInfo* t1, int32_t k,
                int32_t cat, const std::string& v, int32_t n, WalTxn* txn) {
  Arena arena;
  Datum values[4] = {DatumFromInt32(k), DatumFromInt32(cat),
                     tupleops::MakeVarlena(&arena, v), DatumFromInt32(n)};
  bool isnull[4] = {false, false, false, false};
  return db->Insert(ctx, t1, values, isnull, txn).status();
}

/// One scripted transaction. Every value is arithmetic in `i` — no RNG, so
/// a crashed run, its recovery twin, and every retry agree byte for byte.
/// All cat values stay inside {0,1,2,3}, fully interned by txn 1.
Status RunTxn(Database* db, ExecContext* ctx, const DiffConfig& cfg,
              TableInfo* t1, TableInfo* t2, TableInfo* h, int i) {
  MICROSPEC_ASSIGN_OR_RETURN(WalTxn txn, db->BeginTxn());
  IndexInfo* pk = t1->GetIndex("t1_pk");

  if (i == 1) {
    // Intern every low-cardinality value the workload will ever use, so
    // tuple-bee data sections cannot depend on where a later crash landed.
    for (int c = 0; c < 4; ++c) {
      MICROSPEC_RETURN_NOT_OK(
          InsertT1(db, ctx, t1, 1000 + c, c, PadVal('s', 100, c), 0, &txn));
    }
  }

  if (cfg.batch_rows > 0) {
    // Exercise the bulk-append WAL path inside the same transaction.
    Database::BulkLoader loader(db, ctx, t1, &txn);
    Arena arena;
    for (int j = 0; j < 5; ++j) {
      Datum values[4] = {DatumFromInt32(100000 + i * 10 + j),
                         DatumFromInt32(j % 4),
                         tupleops::MakeVarlena(&arena, PadVal('b', i, j)),
                         DatumFromInt32(i)};
      bool isnull[4] = {false, false, false, false};
      MICROSPEC_RETURN_NOT_OK(loader.Append(values, isnull));
    }
    MICROSPEC_RETURN_NOT_OK(loader.Finish());
  }

  for (int j = 0; j < 3; ++j) {
    MICROSPEC_RETURN_NOT_OK(InsertT1(db, ctx, t1, i * 10 + j, (i + j) % 4,
                                       PadVal('v', i, j), i, &txn));
  }

  if (i >= 2) {
    // Same-length rewrite of the previous txn's first row: in-place kUpdate.
    TupleId tid = 0;
    if (pk->btree->Lookup(IndexKey::Of({(i - 1) * 10}), &tid)) {
      Arena arena;
      Datum values[4] = {DatumFromInt32((i - 1) * 10),
                         DatumFromInt32((i - 1) % 4),
                         tupleops::MakeVarlena(&arena, PadVal('u', i - 1, 0)),
                         DatumFromInt32(i * 100)};
      bool isnull[4] = {false, false, false, false};
      MICROSPEC_RETURN_NOT_OK(
          db->Update(ctx, t1, tid, values, isnull, false, &txn).status());
    }
  }

  if (i >= 3 && i % 3 == 0) {
    // 900-byte growth: once the row's page has filled this must relocate,
    // logging the explicit kDelete + kInsert pair.
    TupleId tid = 0;
    if (pk->btree->Lookup(IndexKey::Of({(i - 2) * 10 + 1}), &tid)) {
      Arena arena;
      std::string big(900, 'm');
      Datum values[4] = {DatumFromInt32((i - 2) * 10 + 1),
                         DatumFromInt32((i - 1) % 4),
                         tupleops::MakeVarlena(&arena, big),
                         DatumFromInt32(i)};
      bool isnull[4] = {false, false, false, false};
      MICROSPEC_RETURN_NOT_OK(
          db->Update(ctx, t1, tid, values, isnull, false, &txn).status());
    }
  }

  if (i >= 4 && i % 4 == 0) {
    TupleId tid = 0;
    if (pk->btree->Lookup(IndexKey::Of({(i - 3) * 10 + 2}), &tid)) {
      MICROSPEC_RETURN_NOT_OK(db->Delete(ctx, t1, tid, &txn));
    }
  }

  if (i >= 4 && t2 != nullptr) {
    Datum values[2] = {DatumFromInt64(i), DatumFromFloat64(i * 0.5)};
    bool isnull[2] = {false, false};
    MICROSPEC_RETURN_NOT_OK(db->Insert(ctx, t2, values, isnull, &txn)
                                  .status());
  }

  // The history marker commits atomically with the txn's work: after
  // recovery, the set of markers IS the set of committed transactions.
  {
    Datum values[1] = {DatumFromInt32(i)};
    bool isnull[1] = {false};
    MICROSPEC_RETURN_NOT_OK(db->Insert(ctx, h, values, isnull, &txn)
                                  .status());
  }
  return db->CommitTxn(&txn);
}

/// Executes txns 1..max_txn with the interleaved DDL script: t2 is created
/// after txn 3 (when `with_t2`), a checkpoint runs after txn 5. The child
/// runs this with every `with_*` flag true; the twin passes the flags that
/// match the survivor's recovered catalog, because a crash can land between
/// any two serial DDL steps (t1 → t1_pk → h → ... → t2) and leave only a
/// prefix of them durable.
Status RunWorkload(Database* db, const DiffConfig& cfg, int max_txn,
                   bool with_t2, bool with_index = true, bool with_h = true) {
  MICROSPEC_ASSIGN_OR_RETURN(TableInfo * t1,
                             db->CreateTable("t1", T1Schema()));
  if (with_index) {
    MICROSPEC_RETURN_NOT_OK(db->CreateIndex(t1, "t1_pk", {0}).status());
  }
  TableInfo* h = nullptr;
  if (with_h) {
    MICROSPEC_ASSIGN_OR_RETURN(h, db->CreateTable("h", HistorySchema()));
  }
  auto ctx = db->MakeContext();
  TableInfo* t2 = nullptr;
  for (int i = 1; i <= max_txn; ++i) {
    MICROSPEC_RETURN_NOT_OK(RunTxn(db, ctx.get(), cfg, t1, t2, h, i));
    // t2 is born right after txn 3 commits — so a twin replaying K == 3
    // can still create it when the survivor's crash landed mid-CREATE.
    if (i == 3 && with_t2) {
      MICROSPEC_ASSIGN_OR_RETURN(t2, db->CreateTable("t2", T2Schema()));
    }
    if (i == 5) MICROSPEC_RETURN_NOT_OK(db->Checkpoint());
  }
  return Status::OK();
}

/// Raw heap contents as a sorted multiset of rendered rows — independent of
/// tid assignment, page layout, and executor mode.
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

/// The child half of the harness: runs the full scripted workload in the
/// directory the parent chose, with the parent's MICROSPEC_FAILPOINT armed
/// by the failpoint static initializer. Either SIGKILL fires mid-flush or
/// the workload survives and the process exits 0.
TEST(RecoveryDifferentialChild, Run) {
  const char* config_name = std::getenv("MICROSPEC_CRASH_CHILD_CONFIG");
  const char* dir = std::getenv("MICROSPEC_CRASH_CHILD_DIR");
  if (config_name == nullptr || dir == nullptr) {
    GTEST_SKIP() << "parent-driven child mode only";
  }
  const DiffConfig* cfg = FindConfig(config_name);
  ASSERT_NE(cfg, nullptr) << config_name;
  ASSERT_OK_AND_ASSIGN(auto db, Database::Open(OptionsFor(*cfg, dir)));
  ASSERT_OK(RunWorkload(db.get(), *cfg, cfg->total_txns, /*with_t2=*/true));
}

class RecoveryDifferentialTest : public ::testing::Test {
 protected:
  /// Forks and execs this binary filtered to the child test. Returns the
  /// child's wait status.
  int SpawnChild(const DiffConfig& cfg, const std::string& dir,
                 const std::string& failpoint_spec) {
    pid_t pid = fork();
    if (pid == 0) {
      setenv("MICROSPEC_CRASH_CHILD_CONFIG", cfg.name, 1);
      setenv("MICROSPEC_CRASH_CHILD_DIR", dir.c_str(), 1);
      setenv("MICROSPEC_FAILPOINT", failpoint_spec.c_str(), 1);
      const char* exe = "/proc/self/exe";
      char filter[] = "--gtest_filter=RecoveryDifferentialChild.Run";
      char brief[] = "--gtest_brief=1";
      char* argv[] = {const_cast<char*>(exe), filter, brief, nullptr};
      execv(exe, argv);
      _exit(127);  // exec failed
    }
    int status = 0;
    EXPECT_EQ(waitpid(pid, &status, 0), pid);
    return status;
  }

  /// Opens the crashed directory (running restart recovery), derives the
  /// committed prefix K from the history markers, replays exactly K txns
  /// into a pristine twin, and demands equality of everything durable.
  void VerifyAgainstTwin(const DiffConfig& cfg, const std::string& dir,
                         const std::string& twin_dir) {
    ASSERT_OK_AND_ASSIGN(auto db, Database::Open(OptionsFor(cfg, dir)));
    db->QuiesceBees();

    TableInfo* t1 = db->catalog()->GetTable("t1");
    TableInfo* h = db->catalog()->GetTable("h");
    TableInfo* t2 = db->catalog()->GetTable("t2");

    int committed = 0;
    if (h != nullptr) {
      std::vector<int> txns;
      auto ctx = db->MakeContext();
      const TupleDeformer* deformer = ctx->DeformerFor(h);
      HeapFile::Iterator scan = h->heap()->Scan();
      const char* tuple = nullptr;
      uint32_t len = 0;
      TupleId tid = 0;
      Datum value;
      char isnull = 0;
      while (scan.Next(&tuple, &len, &tid)) {
        deformer->Deform(tuple, 1, &value,
                         reinterpret_cast<bool*>(&isnull));
        txns.push_back(DatumToInt32(value));
      }
      std::sort(txns.begin(), txns.end());
      // Commit order is serial, so the surviving markers must be exactly
      // the prefix 1..K — a gap would mean a lost committed transaction.
      for (size_t i = 0; i < txns.size(); ++i) {
        ASSERT_EQ(txns[i], static_cast<int>(i + 1))
            << "non-contiguous committed prefix in " << dir;
      }
      committed = static_cast<int>(txns.size());
    }

    // DDL consistency. The script's DDL is serial (t1 → t1_pk → h, then t2
    // after txn 3), so the survivor may hold any prefix of it — but never a
    // gap, and never less than what the committed txns prove existed.
    const bool has_pk = t1 != nullptr && t1->GetIndex("t1_pk") != nullptr;
    if (t1 == nullptr) {
      ASSERT_EQ(committed, 0);
    }
    if (h != nullptr) {
      ASSERT_TRUE(has_pk) << "h without t1_pk in " << dir;
    }
    if (committed > 0) {
      ASSERT_NE(h, nullptr);
    }
    if (t2 != nullptr) {
      ASSERT_GE(committed, 3);
    }
    if (committed >= 4) {
      ASSERT_NE(t2, nullptr);
    }

    // The twin re-executes the committed prefix, never crashing, creating
    // exactly the DDL prefix the survivor recovered.
    ASSERT_OK_AND_ASSIGN(auto twin, Database::Open(OptionsFor(cfg, twin_dir)));
    if (t1 != nullptr) {
      ASSERT_OK(RunWorkload(twin.get(), cfg, committed, t2 != nullptr,
                            has_pk, h != nullptr));
    }
    twin->QuiesceBees();

    for (const char* name : {"t1", "t2", "h"}) {
      TableInfo* mine = db->catalog()->GetTable(name);
      TableInfo* theirs = twin->catalog()->GetTable(name);
      ASSERT_EQ(mine == nullptr, theirs == nullptr) << name << " in " << dir;
      if (mine == nullptr) continue;
      EXPECT_EQ(mine->schema().natts(), theirs->schema().natts());
      EXPECT_EQ(SortedRows(db.get(), mine), SortedRows(twin.get(), theirs))
          << "table " << name << " diverged in " << dir;
      EXPECT_EQ(mine->tuple_count(), theirs->tuple_count()) << name;
      for (const auto& idx : theirs->indexes()) {
        IndexInfo* midx = mine->GetIndex(idx->name);
        ASSERT_NE(midx, nullptr) << idx->name;
        EXPECT_EQ(midx->btree->size(), idx->btree->size()) << idx->name;
      }
      if (cfg.tuple_bees && committed >= 1) {
        // Txn 1 interned every spec value, so the slabs of the survivor and
        // the twin must agree section by section, byte for byte.
        bee::RelationBeeState* st = db->bees()->StateFor(mine->id());
        bee::RelationBeeState* tst = twin->bees()->StateFor(theirs->id());
        ASSERT_EQ(st == nullptr, tst == nullptr) << name;
        if (st == nullptr || !tst->has_tuple_bees()) continue;
        ASSERT_TRUE(st->has_tuple_bees()) << name;
        const bee::TupleBeeManager* tb = st->tuple_bees();
        const bee::TupleBeeManager* ttb = tst->tuple_bees();
        EXPECT_EQ(tb->spec_cols(), ttb->spec_cols());
        ASSERT_EQ(tb->num_sections(), ttb->num_sections()) << name;
        for (int s = 0; s < tb->num_sections(); ++s) {
          uint8_t id = static_cast<uint8_t>(s);
          EXPECT_EQ(tb->section(id)->blob, ttb->section(id)->blob)
              << name << " section " << s << " in " << dir;
        }
      }
    }
  }

  /// True when MICROSPEC_DIFF_CONFIGS (comma list) is unset or names `cfg`.
  static bool ConfigSelected(const DiffConfig& cfg) {
    const char* filter = std::getenv("MICROSPEC_DIFF_CONFIGS");
    if (filter == nullptr || *filter == '\0') return true;
    std::string list(filter);
    size_t pos = 0;
    while (pos <= list.size()) {
      size_t comma = list.find(',', pos);
      if (comma == std::string::npos) comma = list.size();
      if (list.substr(pos, comma - pos) == cfg.name) return true;
      pos = comma + 1;
    }
    return false;
  }

  ScratchDir scratch_;
};

TEST_F(RecoveryDifferentialTest, KillAtEveryWalCrashPoint) {
  // Avoid recursing if a stray filter runs the parent inside a child.
  if (std::getenv("MICROSPEC_CRASH_CHILD_CONFIG") != nullptr) {
    GTEST_SKIP() << "not run in child mode";
  }
  int iterations = 0;
  for (const DiffConfig& cfg : kConfigs) {
    if (!ConfigSelected(cfg)) continue;
    for (const char* site : kSites) {
      bool drained = false;
      for (int n = 1; n <= kMaxCrashPoints; ++n) {
        std::string tag = std::string(cfg.name) + "_" +
                          std::string(site).substr(4) + "_" +
                          std::to_string(n);
        SCOPED_TRACE(tag);
        std::string dir = scratch_.path() + "/" + tag;
        std::string twin_dir = scratch_.path() + "/" + tag + "_twin";
        ASSERT_EQ(mkdir(dir.c_str(), 0755), 0) << dir;
        ASSERT_EQ(mkdir(twin_dir.c_str(), 0755), 0) << twin_dir;
        std::string spec =
            std::string(site) + "=kill@" + std::to_string(n);
        int status = SpawnChild(cfg, dir, spec);
        ++iterations;
        if (WIFSIGNALED(status)) {
          ASSERT_EQ(WTERMSIG(status), SIGKILL)
              << tag << ": child died of an unexpected signal";
          ASSERT_NO_FATAL_FAILURE(VerifyAgainstTwin(cfg, dir, twin_dir));
        } else {
          ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
              << tag << ": child failed (exit "
              << (WIFEXITED(status) ? WEXITSTATUS(status) : -1) << ")";
          // The nth hit never arrived: the site is drained. The clean run
          // must still match its twin end to end.
          ASSERT_NO_FATAL_FAILURE(VerifyAgainstTwin(cfg, dir, twin_dir));
          drained = true;
          break;
        }
      }
      ASSERT_TRUE(drained)
          << cfg.name << "/" << site << " never ran out of crash points";
    }
  }
  RecordProperty("crash_iterations", iterations);
  ASSERT_GT(iterations, 0);
}

}  // namespace
}  // namespace microspec
