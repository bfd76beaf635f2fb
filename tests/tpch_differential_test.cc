// Differential harness for the TPC-H execution variants: every query, under
// batch-at-a-time execution at several RowBatch capacities (including the
// degenerate one-row batch and the full page-granular batch that engages
// the GCL-B / EVP-B bees) and under morsel-driven parallelism at several
// dops, must produce the same result multiset as the scalar serial plan —
// with bees off, with bees on (program backend) and, when a C compiler is
// available, with the native backend after quiescing the forge, so the
// compiled GCL-B page-batch routine is the deform tier under test.
//
// Every dop > 1 run draws a random morsel size. The draw is seeded
// (MICROSPEC_SEED overrides), the seed is printed once per suite and
// attached to every assertion, so a failure reproduces exactly.
//
// The sweep is split into two suites that share one fixture: the batch
// sweep (batch 0/1/64/page × dop 1/4, batched and scalar Gather hand-off)
// and the dop sweep (dop 2/7/16). This is a standalone binary (not part of
// microspec_tests): check.sh runs it under ASan/UBSan (batch lifetime: page
// pins, arena copies) and TSan (workers sharing a MorselCursor /
// SharedJoinBuild / QueryStats node, whole batches crossing the bounded
// Gather queue).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "bee/native_jit.h"
#include "common/rng.h"
#include "exec/batch.h"
#include "test_util.h"
#include "workloads/tpch/dbgen.h"
#include "workloads/tpch/tpch_queries.h"
#include "workloads/tpch/tpch_schema.h"

namespace microspec {
namespace {

using testing::CollectRows;
using testing::OpenDb;
using testing::ScratchDir;

constexpr double kTestSf = 0.002;  // tiny but non-degenerate

uint64_t PickSeed() {
  const char* env = std::getenv("MICROSPEC_SEED");
  if (env != nullptr && std::atoll(env) > 0) {
    return static_cast<uint64_t>(std::atoll(env));
  }
  return std::random_device{}();
}

/// One stock and one bee-enabled database (plus a native-backend one when a
/// compiler exists) with identical TPC-H data, shared by every query test of
/// a suite, plus the suite's morsel randomization seed.
class TpchDifferentialTest : public ::testing::TestWithParam<int> {
 protected:
  /// One execution configuration: RowBatch capacity (0 = scalar) and dop.
  struct Point {
    int batch;
    int dop;
  };

  static void SetUpTestSuite() {
    seed_ = PickSeed();
    std::printf("[ tpch differential seed: %llu — rerun with "
                "MICROSPEC_SEED=%llu ]\n",
                static_cast<unsigned long long>(seed_),
                static_cast<unsigned long long>(seed_));
    dir_ = new ScratchDir();
    stock_ = OpenDb(dir_->path() + "/stock", /*enable_bees=*/false).release();
    bee_ = OpenDb(dir_->path() + "/bee", /*enable_bees=*/true,
                  /*tuple_bees=*/true)
               .release();
    ASSERT_OK(tpch::CreateTpchTables(stock_));
    ASSERT_OK(tpch::CreateTpchTables(bee_));
    ASSERT_OK(tpch::LoadTpch(stock_, kTestSf));
    ASSERT_OK(tpch::LoadTpch(bee_, kTestSf));
    if (bee::NativeJit::CompilerAvailable()) {
      native_ = OpenDb(dir_->path() + "/native", /*enable_bees=*/true,
                       /*tuple_bees=*/true, bee::BeeBackend::kNative)
                    .release();
      ASSERT_OK(tpch::CreateTpchTables(native_));
      ASSERT_OK(tpch::LoadTpch(native_, kTestSf));
      // Every GCL-B native compile has promoted (or pinned) before the
      // first query, so the runs exercise the compiled tier.
      native_->QuiesceBees();
    }
  }
  static void TearDownTestSuite() {
    delete native_;
    delete bee_;
    delete stock_;
    delete dir_;
    native_ = nullptr;
    bee_ = nullptr;
    stock_ = nullptr;
    dir_ = nullptr;
  }

  static std::vector<std::string> RunAt(Database* db, int q, Point p,
                                        uint32_t morsel_pages) {
    auto ctx = db->MakeContext(db->DefaultSession(), p.dop);
    ctx->set_batch(p.batch, /*gather_max_batches=*/2);
    if (p.dop > 1) {
      // Re-wire the context with the randomized morsel size (MakeContext
      // installed the database default).
      ctx->set_parallel(ctx->executor(), p.dop, morsel_pages);
    }
    auto plan = tpch::BuildTpchQuery(q, ctx.get());
    MICROSPEC_CHECK(plan.ok());
    return CollectRows(plan->get());
  }

  /// Runs this test's query on every database at each point and compares
  /// the result multiset with the scalar serial reference.
  void Sweep(const std::vector<Point>& points) {
    const int q = GetParam();
    // Decorrelate per-query streams so retrying one query alone (via
    // --gtest_filter) still draws its own morsel sizes from the suite seed.
    Rng rng(seed_ ^ (static_cast<uint64_t>(q) * 0x9E3779B97F4A7C15ULL));
    std::vector<Database*> dbs = {stock_, bee_};
    if (native_ != nullptr) dbs.push_back(native_);
    for (Database* db : dbs) {
      const char* which =
          db == stock_ ? "stock" : (db == bee_ ? "bee" : "native");
      // The reference is the scalar serial plan — the exact pipeline the
      // engine ran before the NextBatch seam and parallelism existed.
      const Point serial_point{0, 1};
      std::vector<std::string> serial = RunAt(db, q, serial_point, 0);

      // Scalar dop 1 must be the identity: same rows in the same order.
      EXPECT_EQ(RunAt(db, q, serial_point, 0), serial)
          << "q" << q << " " << which << " batch=0 dop=1 not identical";

      std::sort(serial.begin(), serial.end());
      for (const Point& p : points) {
        const uint32_t morsel =
            p.dop > 1 ? static_cast<uint32_t>(rng.UniformRange(1, 64)) : 0;
        std::vector<std::string> rows = RunAt(db, q, p, morsel);
        std::sort(rows.begin(), rows.end());
        EXPECT_EQ(rows, serial)
            << "q" << q << " " << which << " batch=" << p.batch
            << " dop=" << p.dop << " morsel=" << morsel << " seed=" << seed_;
      }
    }
  }

  static uint64_t seed_;
  static ScratchDir* dir_;
  static Database* stock_;
  static Database* bee_;
  static Database* native_;
};

uint64_t TpchDifferentialTest::seed_ = 0;
ScratchDir* TpchDifferentialTest::dir_ = nullptr;
Database* TpchDifferentialTest::stock_ = nullptr;
Database* TpchDifferentialTest::bee_ = nullptr;
Database* TpchDifferentialTest::native_ = nullptr;

class BatchDifferentialTest : public TpchDifferentialTest {};
class ParallelDifferentialTest : public TpchDifferentialTest {};

TEST_P(BatchDifferentialTest, AllBatchSizesMatchScalarSerial) {
  // batch 0 at dop 4 is the scalar-adapter Gather hand-off; batch 0 at dop
  // 1 is the reference itself.
  std::vector<Point> points;
  for (int batch : {0, 1, 64, kMaxTuplesPerPage}) {
    for (int dop : {1, 4}) {
      if (batch != 0 || dop != 1) points.push_back({batch, dop});
    }
  }
  Sweep(points);
}

TEST_P(ParallelDifferentialTest, AllDopsMatchSerial) {
  Sweep({{0, 2}, {0, 7}, {0, 16}});
}

std::string QueryName(const ::testing::TestParamInfo<int>& info) {
  return "q" + std::to_string(info.param);
}

INSTANTIATE_TEST_SUITE_P(AllQueries, BatchDifferentialTest,
                         ::testing::Range(1, 23), QueryName);
INSTANTIATE_TEST_SUITE_P(AllQueries, ParallelDifferentialTest,
                         ::testing::Range(1, 23), QueryName);

}  // namespace
}  // namespace microspec
