#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "exec/plan_builder.h"
#include "test_util.h"
#include "workloads/tpcc/tpcc_check.h"
#include "workloads/tpcc/tpcc_workload.h"

namespace microspec {
namespace {

using testing::CollectRows;
using testing::OpenDb;
using testing::ScratchDir;

tpcc::TpccConfig SmallConfig() {
  tpcc::TpccConfig c;
  c.warehouses = 1;
  c.districts_per_warehouse = 3;
  c.customers_per_district = 40;
  c.items = 200;
  c.initial_orders_per_district = 40;
  return c;
}

class TpccTest : public ::testing::TestWithParam<bool /*bees*/> {};

TEST_P(TpccTest, LoadAndRunAllTransactionTypes) {
  ScratchDir dir;
  auto db = OpenDb(dir.path() + "/db", GetParam(), /*tuple_bees=*/GetParam());
  ASSERT_OK(tpcc::CreateTpccTables(db.get()));
  tpcc::TpccWorkload wl(db.get(), SmallConfig());
  ASSERT_OK(wl.Load());

  EXPECT_EQ(db->catalog()->GetTable("item")->tuple_count(), 200u);
  EXPECT_EQ(db->catalog()->GetTable("stock")->tuple_count(), 200u);
  EXPECT_EQ(db->catalog()->GetTable("customer")->tuple_count(), 120u);
  EXPECT_EQ(db->catalog()->GetTable("torders")->tuple_count(), 120u);

  auto ctx = db->MakeContext();
  Rng rng(7);
  // Run each transaction type several times directly.
  for (int i = 0; i < 20; ++i) {
    ASSERT_OK(wl.NewOrder(ctx.get(), rng));
    ASSERT_OK(wl.Payment(ctx.get(), rng));
    ASSERT_OK(wl.OrderStatus(ctx.get(), rng));
    ASSERT_OK(wl.Delivery(ctx.get(), rng));
    ASSERT_OK(wl.StockLevel(ctx.get(), rng));
  }
  // NewOrder must have grown orders and orderline.
  EXPECT_EQ(db->catalog()->GetTable("torders")->tuple_count(), 140u);
  EXPECT_GT(db->catalog()->GetTable("orderline")->tuple_count(), 120u * 5);

  // Index invariants survive the churn.
  for (TableInfo* t : db->catalog()->AllTables()) {
    for (const auto& idx : t->indexes()) {
      EXPECT_OK(idx->btree->CheckInvariants());
    }
  }
}

TEST_P(TpccTest, DriverRunsMixedLoad) {
  ScratchDir dir;
  auto db = OpenDb(dir.path() + "/db", GetParam(), GetParam());
  ASSERT_OK(tpcc::CreateTpccTables(db.get()));
  tpcc::TpccWorkload wl(db.get(), SmallConfig());
  ASSERT_OK(wl.Load());

  ASSERT_OK_AND_ASSIGN(tpcc::TxnCounts counts,
                       wl.Run(tpcc::TpccMix::Default(), /*terminals=*/2,
                              /*seconds=*/0.5));
  EXPECT_GT(counts.total(), 0u);
  EXPECT_EQ(counts.failed, 0u);
  EXPECT_GT(counts.new_order, 0u);
}

TEST_P(TpccTest, QueryOnlyMixHasNoModifications) {
  ScratchDir dir;
  auto db = OpenDb(dir.path() + "/db", GetParam(), GetParam());
  ASSERT_OK(tpcc::CreateTpccTables(db.get()));
  tpcc::TpccWorkload wl(db.get(), SmallConfig());
  ASSERT_OK(wl.Load());
  uint64_t orders_before = db->catalog()->GetTable("torders")->tuple_count();

  tpcc::TpccMix mix = tpcc::TpccMix::QueryOnly();
  mix.new_order = 0;  // literally queries only for this check
  ASSERT_OK_AND_ASSIGN(tpcc::TxnCounts counts, wl.Run(mix, 2, 0.3));
  EXPECT_EQ(counts.payment, 0u);
  EXPECT_EQ(counts.delivery, 0u);
  EXPECT_GT(counts.order_status + counts.stock_level, 0u);
  EXPECT_EQ(db->catalog()->GetTable("torders")->tuple_count(), orders_before);
}

INSTANTIATE_TEST_SUITE_P(StockAndBees, TpccTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Bees" : "Stock";
                         });

/// A bee-enabled TPC-C database with the WAL on and inline commits, so undo
/// runs through the relation log bees and every commit syncs the log itself.
DatabaseOptions WalOptions(const std::string& dir, size_t pool_frames) {
  DatabaseOptions opts;
  opts.dir = dir;
  opts.enable_bees = true;
  opts.enable_tuple_bees = true;
  opts.buffer_pool_frames = pool_frames;
  opts.verify_mode = bee::VerifyMode::kEnforce;
  opts.wal_enabled = true;
  opts.wal_group_commit = false;
  return opts;
}

/// Every row of `table` as a string, sorted.
std::vector<std::string> SortedRows(Database* db, const char* table) {
  auto ctx = db->MakeContext();
  OperatorPtr op = Plan::Scan(ctx.get(), db->catalog()->GetTable(table))
                       .Build();
  std::vector<std::string> rows = CollectRows(op.get());
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// The catalog's tuple count of every table must equal a heap scan.
void ExpectCountsMatchScans(Database* db) {
  for (TableInfo* t : db->catalog()->AllTables()) {
    uint64_t scanned = 0;
    HeapFile::Iterator it = t->heap()->Scan();
    const char* tuple = nullptr;
    uint32_t len = 0;
    TupleId tid = 0;
    while (it.Next(&tuple, &len, &tid)) ++scanned;
    ASSERT_OK(it.status());
    EXPECT_EQ(t->tuple_count(), scanned) << t->name();
  }
}

/// d_next_o_id of every district, keyed by (w, d).
std::map<std::pair<int32_t, int32_t>, int32_t> NextOrderIds(Database* db) {
  std::map<std::pair<int32_t, int32_t>, int32_t> out;
  auto ctx = db->MakeContext();
  OperatorPtr op =
      Plan::Scan(ctx.get(), db->catalog()->GetTable("district")).Build();
  EXPECT_OK(ForEachRow(op.get(), [&](const Datum* v, const bool*) {
    out[{DatumToInt32(v[tpcc::kDWId]), DatumToInt32(v[tpcc::kDId])}] =
        DatumToInt32(v[tpcc::kDNextOId]);
  }));
  return out;
}

TEST(TpccRollbackTest, UnusedItemRollsBackThroughTheLog) {
  ScratchDir dir;
  const std::string db_dir = dir.path() + "/db";
  ASSERT_OK_AND_ASSIGN(auto db, Database::Open(WalOptions(db_dir, 2048)));
  ASSERT_OK(tpcc::CreateTpccTables(db.get()));
  tpcc::TpccWorkload wl(db.get(), SmallConfig());
  ASSERT_OK(wl.Load());
  const char* kTables[] = {"warehouse", "district", "customer",
                           "history",   "neworder", "torders",
                           "orderline", "item",     "stock"};
  TableInfo* orders = db->catalog()->GetTable("torders");

  auto ctx = db->MakeContext();
  Rng rng(11);
  // 1% of NewOrders name an unused item on their last line. Run them until
  // one rolls back: its NewOrder returns OK but adds no order.
  bool rolled_back = false;
  for (int i = 0; i < 2000 && !rolled_back; ++i) {
    const auto next_before = NextOrderIds(db.get());
    const std::vector<std::string> stock_before = SortedRows(db.get(), "stock");
    std::map<std::string, uint64_t> counts_before;
    for (const char* t : kTables) {
      counts_before[t] = db->catalog()->GetTable(t)->tuple_count();
    }
    ASSERT_OK(wl.NewOrder(ctx.get(), rng));
    if (orders->tuple_count() != counts_before["torders"]) continue;
    rolled_back = true;
    SCOPED_TRACE("rolled-back NewOrder #" + std::to_string(i + 1));

    // d_next_o_id is unchanged, and the order id it would have handed out
    // has no row and no index entry anywhere.
    const auto next_after = NextOrderIds(db.get());
    EXPECT_EQ(next_after, next_before);
    for (const auto& [wd, next] : next_after) {
      const auto [w, d] = wd;
      TupleId tid = 0;
      EXPECT_FALSE(orders->GetIndex("orders_pk")->btree->Lookup(
          IndexKey::Of({w, d, next}), &tid));
      EXPECT_FALSE(db->catalog()->GetTable("neworder")
                       ->GetIndex("neworder_pk")
                       ->btree->Lookup(IndexKey::Of({w, d, next}), &tid));
      int lines = 0;
      db->catalog()->GetTable("orderline")->GetIndex("orderline_pk")
          ->btree->ScanPrefix(IndexKey::Of({w, d, next}),
                              [&](const IndexKey&, TupleId) {
                                ++lines;
                                return true;
                              });
      EXPECT_EQ(lines, 0);
      orders->GetIndex("orders_by_cust")->btree->ScanPrefix(
          IndexKey::Of({w, d}), [&](const IndexKey& k, TupleId) {
            EXPECT_LT(k.part[3], next) << "orders_by_cust entry";
            return true;
          });
    }
    // o_id, d_id and w_id are columns 0, 1 and 2 of all three tables.
    static_assert(tpcc::kOId == 0 && tpcc::kODId == 1 && tpcc::kOWId == 2);
    static_assert(tpcc::kNoOId == 0 && tpcc::kNoDId == 1 &&
                  tpcc::kNoWId == 2);
    static_assert(tpcc::kOlOId == 0 && tpcc::kOlDId == 1 &&
                  tpcc::kOlWId == 2);
    auto scan_ctx = db->MakeContext();
    for (const char* table : {"torders", "neworder", "orderline"}) {
      OperatorPtr op =
          Plan::Scan(scan_ctx.get(), db->catalog()->GetTable(table)).Build();
      ASSERT_OK(ForEachRow(op.get(), [&](const Datum* v, const bool*) {
        const int32_t next =
            next_after.at({DatumToInt32(v[2]), DatumToInt32(v[1])});
        EXPECT_LT(DatumToInt32(v[0]), next) << table;
      }));
    }
    // Every stock row the failed NewOrder updated is restored.
    EXPECT_EQ(SortedRows(db.get(), "stock"), stock_before);
    for (const char* t : kTables) {
      EXPECT_EQ(db->catalog()->GetTable(t)->tuple_count(), counts_before[t])
          << t;
    }
  }
  ASSERT_TRUE(rolled_back) << "no NewOrder rolled back in 2000";
  ExpectCountsMatchScans(db.get());
  ASSERT_OK_AND_ASSIGN(std::vector<std::string> violations,
                       tpcc::CheckConsistency(db.get()));
  EXPECT_TRUE(violations.empty()) << violations.front();
  for (TableInfo* t : db->catalog()->AllTables()) {
    for (const auto& idx : t->indexes()) {
      EXPECT_OK(idx->btree->CheckInvariants());
    }
  }

  // The undo ran through the log: compensation records and a kAbort.
  ASSERT_OK(db->wal()->Flush());
  ASSERT_OK_AND_ASSIGN(std::vector<WalRecord> records,
                       Wal::ReadAll(db_dir + "/wal.log"));
  int clrs = 0;
  int aborts = 0;
  for (const WalRecord& rec : records) {
    clrs += rec.type == WalRecordType::kClr;
    aborts += rec.type == WalRecordType::kAbort;
  }
  EXPECT_GE(clrs, 3);  // at least district, order and new-order
  EXPECT_EQ(aborts, 1);
}

/// --- A crash inside TPC-C transactions ---------------------------------------
///
/// The parent forks children that each build the same TPC-C database (WAL
/// on, a 16-frame pool so evictions flush the log mid-transaction) and run
/// the same kCrashTxns transactions, with MICROSPEC_FAILPOINT=
/// "wal.prewrite=kill@n" armed for a seeded sample of n among the log
/// flushes of the transaction phase. The parent reopens each survivor
/// (restart recovery) and checks TPC-C consistency and the tuple counts.

constexpr uint64_t kCrashTxns = 300;
constexpr int kCrashSamples = 4;
constexpr size_t kCrashPoolFrames = 16;

/// Builds and loads the crash database in `dir`, then runs the transaction
/// phase. `load_flushes` and `run_flushes` (optional) receive the log
/// flushes of the set-up and of the transactions.
Status RunCrashWorkload(const std::string& dir, uint64_t* load_flushes,
                        uint64_t* run_flushes) {
  MICROSPEC_ASSIGN_OR_RETURN(auto db,
                             Database::Open(WalOptions(dir, kCrashPoolFrames)));
  MICROSPEC_RETURN_NOT_OK(tpcc::CreateTpccTables(db.get()));
  tpcc::TpccConfig config = SmallConfig();
  config.items = 2000;
  tpcc::TpccWorkload wl(db.get(), config);
  MICROSPEC_RETURN_NOT_OK(wl.Load());
  const uint64_t loaded = db->io_stats()->wal_fsyncs.Value();
  double elapsed = 0;
  MICROSPEC_ASSIGN_OR_RETURN(
      tpcc::TxnCounts counts,
      wl.RunFixed(tpcc::TpccMix::Default(), /*terminals=*/1, kCrashTxns,
                  /*round=*/0, &elapsed));
  if (counts.failed != 0) return Status::Internal("TPC-C transactions failed");
  if (load_flushes != nullptr) *load_flushes = loaded;
  if (run_flushes != nullptr) {
    *run_flushes = db->io_stats()->wal_fsyncs.Value() - loaded;
  }
  return Status::OK();
}

/// The child half: runs the workload with the parent's failpoint armed by
/// the failpoint static initializer. SIGKILL fires at the armed flush.
TEST(TpccCrashChild, Run) {
  const char* dir = std::getenv("MICROSPEC_TPCC_CRASH_DIR");
  if (dir == nullptr) GTEST_SKIP() << "parent-driven child mode only";
  ASSERT_OK(RunCrashWorkload(dir, nullptr, nullptr));
}

uint64_t PickSeed() {
  const char* env = std::getenv("MICROSPEC_SEED");
  if (env != nullptr && std::atoll(env) > 0) {
    return static_cast<uint64_t>(std::atoll(env));
  }
  return std::random_device{}();
}

/// Forks and execs this binary filtered to the child test; returns the
/// child's wait status.
int SpawnCrashChild(const std::string& dir, const std::string& failpoint) {
  pid_t pid = fork();
  if (pid == 0) {
    setenv("MICROSPEC_TPCC_CRASH_DIR", dir.c_str(), 1);
    setenv("MICROSPEC_FAILPOINT", failpoint.c_str(), 1);
    const char* exe = "/proc/self/exe";
    char filter[] = "--gtest_filter=TpccCrashChild.Run";
    char brief[] = "--gtest_brief=1";
    char* argv[] = {const_cast<char*>(exe), filter, brief, nullptr};
    execv(exe, argv);
    _exit(127);  // exec failed
  }
  int status = 0;
  EXPECT_EQ(waitpid(pid, &status, 0), pid);
  return status;
}

TEST(TpccCrashTest, KillInsideTransactionsLeavesConsistentDatabase) {
  if (std::getenv("MICROSPEC_TPCC_CRASH_DIR") != nullptr) {
    GTEST_SKIP() << "not run in child mode";
  }
  ScratchDir scratch;
  // A crash-free run counts the log flushes; each passes wal.prewrite once.
  uint64_t load_flushes = 0;
  uint64_t run_flushes = 0;
  ASSERT_OK(
      RunCrashWorkload(scratch.path() + "/dry", &load_flushes, &run_flushes));
  ASSERT_GT(run_flushes, 0u);

  const uint64_t seed = PickSeed();
  std::printf("[ tpcc crash seed: %llu — rerun with MICROSPEC_SEED=%llu ]\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(seed));
  Rng pick(seed);
  for (int sample = 0; sample < kCrashSamples; ++sample) {
    // A flush of the transaction phase, not of the load.
    const uint64_t n = load_flushes + 1 + pick.Uniform(run_flushes);
    const std::string dir = scratch.path() + "/kill" + std::to_string(n);
    SCOPED_TRACE("wal.prewrite=kill@" + std::to_string(n) + " (load " +
                 std::to_string(load_flushes) + " + run " +
                 std::to_string(run_flushes) + " flushes)");
    std::filesystem::remove_all(dir);
    const int status =
        SpawnCrashChild(dir, "wal.prewrite=kill@" + std::to_string(n));
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        << "child was not killed at the armed flush (status " << status
        << ")";

    ASSERT_OK_AND_ASSIGN(
        auto db, Database::Open(WalOptions(dir, kCrashPoolFrames)));
    ASSERT_TRUE(db->last_recovery().ran);
    ASSERT_OK_AND_ASSIGN(std::vector<std::string> violations,
                         tpcc::CheckConsistency(db.get()));
    for (const std::string& v : violations) ADD_FAILURE() << v;
    ExpectCountsMatchScans(db.get());

    // The survivor keeps serving TPC-C: recovery rebuilt the nine indexes
    // from their kCreateIndex records, so a short fixed mix runs clean and
    // leaves the database consistent.
    tpcc::TpccConfig config = SmallConfig();
    config.items = 2000;
    tpcc::TpccWorkload survivor(db.get(), config);
    double elapsed = 0;
    ASSERT_OK_AND_ASSIGN(
        tpcc::TxnCounts counts,
        survivor.RunFixed(tpcc::TpccMix::Default(), /*terminals=*/1,
                          /*txns_per_terminal=*/40, /*round=*/1, &elapsed));
    EXPECT_EQ(counts.failed, 0u);
    ASSERT_OK_AND_ASSIGN(violations, tpcc::CheckConsistency(db.get()));
    for (const std::string& v : violations) ADD_FAILURE() << "after mix: " << v;
  }
}

}  // namespace
}  // namespace microspec
