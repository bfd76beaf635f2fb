// Morsel-driven parallel execution: the MorselCursor claim protocol, the
// Gather/SharedJoinBuild/ParallelHashAggregate pipeline breakers, edge cases
// (empty relation, one partially-filled page, dop > page count, LIMIT
// cancelling workers mid-scan without leaking buffer-pool pins), rescans of
// a parallel subtree, the dop=1 identity guarantee, and EXPLAIN ANALYZE
// aggregation across worker fragments.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bee/bee_module.h"
#include "exec/analyze.h"
#include "exec/morsel.h"
#include "exec/parallel.h"
#include "exec/plan_builder.h"
#include "exec/seq_scan.h"
#include "expr/expr.h"
#include "test_util.h"

namespace microspec::testing {
namespace {

// ---------------------------------------------------------------------------
// MorselCursor
// ---------------------------------------------------------------------------

TEST(MorselCursorTest, ClaimsCoverEveryPageExactlyOnce) {
  MorselCursor cursor(100, 16);
  PageNo begin = 0;
  PageNo end = 0;
  std::vector<std::pair<PageNo, PageNo>> claims;
  while (cursor.Claim(&begin, &end)) claims.emplace_back(begin, end);
  ASSERT_EQ(claims.size(), 7u);  // ceil(100/16)
  PageNo expect_begin = 0;
  for (const auto& [b, e] : claims) {
    EXPECT_EQ(b, expect_begin);
    EXPECT_EQ(e - b, std::min<PageNo>(16, 100 - b));
    expect_begin = e;
  }
  EXPECT_EQ(expect_begin, 100u);
  // Exhausted cursors stay exhausted…
  EXPECT_FALSE(cursor.Claim(&begin, &end));
  // …until Reset rewinds for a rescan.
  cursor.Reset();
  EXPECT_TRUE(cursor.Claim(&begin, &end));
  EXPECT_EQ(begin, 0u);
}

TEST(MorselCursorTest, ZeroMorselPagesUsesDefaultAndEmptyFileYieldsNothing) {
  MorselCursor cursor(64, 0);
  EXPECT_EQ(cursor.morsel_pages(), kDefaultMorselPages);
  MorselCursor empty(0, 4);
  PageNo b = 0;
  PageNo e = 0;
  EXPECT_FALSE(empty.Claim(&b, &e));
}

// ---------------------------------------------------------------------------
// Engine fixture
// ---------------------------------------------------------------------------

/// Two tables: `fact` (several pages; key has duplicates and a value column)
/// and `dim` (small single-page relation keyed 0..kDimRows-1).
class ParallelExecTest : public ::testing::Test {
 protected:
  static constexpr int kFactRows = 5000;
  static constexpr int kDimRows = 40;

  void SetUp() override {
    db_ = OpenDb(dir_.path() + "/db", /*enable_bees=*/true,
                 /*tuple_bees=*/false);
    fact_ = MakeTable("fact", kFactRows);
    dim_ = MakeTable("dim", kDimRows);
    ASSERT_GT(fact_->heap()->num_pages(), 4u) << "fact must span pages";
  }

  TableInfo* MakeTable(const std::string& name, int nrows) {
    Schema schema({Column("k", TypeId::kInt32, /*not_null=*/true),
                   Column("v", TypeId::kInt64, /*not_null=*/true),
                   Column("w", TypeId::kFloat64, /*not_null=*/true)});
    auto res = db_->CreateTable(name, std::move(schema));
    MICROSPEC_CHECK(res.ok());
    TableInfo* table = res.value();
    auto ctx = db_->MakeContext();
    Database::BulkLoader loader(db_.get(), ctx.get(), table);
    for (int r = 0; r < nrows; ++r) {
      // Keys cycle through kDimRows values so joins/groups have duplicates.
      Datum values[3] = {DatumFromInt32(r % kDimRows),
                         DatumFromInt64(r * 7 - 3),
                         DatumFromFloat64(r * 0.5)};
      bool isnull[3] = {false, false, false};
      MICROSPEC_CHECK(loader.Append(values, isnull).ok());
    }
    MICROSPEC_CHECK(loader.Finish().ok());
    return table;
  }

  /// A context at the given dop (and optional morsel-size override).
  std::unique_ptr<ExecContext> Ctx(int dop, uint32_t morsel_pages = 0) {
    auto ctx = db_->MakeContext(db_->DefaultSession(), dop);
    if (dop > 1 && morsel_pages != 0) {
      ctx->set_parallel(ctx->executor(), dop, morsel_pages);
    }
    return ctx;
  }

  static std::vector<std::string> Sorted(std::vector<std::string> rows) {
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  ScratchDir dir_;
  std::unique_ptr<Database> db_;
  TableInfo* fact_ = nullptr;
  TableInfo* dim_ = nullptr;
};

// ---------------------------------------------------------------------------
// Scan edge cases
// ---------------------------------------------------------------------------

TEST_F(ParallelExecTest, ScanMatchesSerialAcrossDops) {
  auto serial_ctx = Ctx(1);
  Plan serial = Plan::Scan(serial_ctx.get(), fact_);
  OperatorPtr sop = std::move(serial).Build();
  std::vector<std::string> expected = Sorted(CollectRows(sop.get()));
  ASSERT_EQ(expected.size(), static_cast<size_t>(kFactRows));
  for (int dop : {2, 7, 16}) {
    for (uint32_t morsel : {1u, 3u, 0u}) {
      auto ctx = Ctx(dop, morsel);
      Plan plan = Plan::Scan(ctx.get(), fact_);
      OperatorPtr op = std::move(plan).Build();
      EXPECT_EQ(Sorted(CollectRows(op.get())), expected)
          << "dop=" << dop << " morsel_pages=" << morsel;
    }
  }
}

TEST_F(ParallelExecTest, EmptyRelation) {
  auto res = db_->CreateTable(
      "empty", Schema({Column("x", TypeId::kInt32, /*not_null=*/true)}));
  ASSERT_TRUE(res.ok());
  auto ctx = Ctx(4);
  Plan plan = Plan::Scan(ctx.get(), res.value());
  OperatorPtr op = std::move(plan).Build();
  EXPECT_TRUE(CollectRows(op.get()).empty());
  // A parallel global aggregate over the empty relation still yields one row.
  auto ctx2 = Ctx(4);
  Plan agg = Plan::Scan(ctx2.get(), res.value());
  agg.GroupBy({}, AggList(Ag(AggSpec::CountStar(), "n"),
                          Ag(AggSpec::Min(agg.var("x")), "lo")));
  OperatorPtr aop = std::move(agg).Build();
  std::vector<std::string> rows = CollectRows(aop.get());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_NE(rows[0].find("0"), std::string::npos);
  EXPECT_NE(rows[0].find("NULL"), std::string::npos);  // MIN of nothing
  // A grouped aggregate over the empty relation yields zero rows.
  auto ctx3 = Ctx(4);
  Plan gagg = Plan::Scan(ctx3.get(), res.value());
  gagg.GroupBy({"x"}, AggList(Ag(AggSpec::CountStar(), "n")));
  OperatorPtr gop = std::move(gagg).Build();
  EXPECT_TRUE(CollectRows(gop.get()).empty());
}

TEST_F(ParallelExecTest, DopExceedsPageCount) {
  // dim fits in one page: most workers claim nothing and exit immediately.
  ASSERT_EQ(dim_->heap()->num_pages(), 1u);
  auto serial_ctx = Ctx(1);
  Plan serial = Plan::Scan(serial_ctx.get(), dim_);
  OperatorPtr sop = std::move(serial).Build();
  std::vector<std::string> expected = Sorted(CollectRows(sop.get()));
  ASSERT_EQ(expected.size(), static_cast<size_t>(kDimRows));
  auto ctx = Ctx(16);
  Plan plan = Plan::Scan(ctx.get(), dim_);
  OperatorPtr op = std::move(plan).Build();
  EXPECT_EQ(Sorted(CollectRows(op.get())), expected);
}

TEST_F(ParallelExecTest, LimitCancelsWorkersWithoutLeakingPins) {
  for (int rep = 0; rep < 5; ++rep) {
    auto ctx = Ctx(8, /*morsel_pages=*/1);
    Plan plan = Plan::Scan(ctx.get(), fact_);
    plan.Take(3);
    OperatorPtr op = std::move(plan).Build();
    std::vector<std::string> rows = CollectRows(op.get());
    EXPECT_EQ(rows.size(), 3u);
    op.reset();
    // DropAll CHECK-fails on any pinned frame: a worker that was cancelled
    // mid-morsel must have closed its scan (and released its pin) before
    // Gather::Close returned.
    ASSERT_OK(db_->DropCaches());
  }
}

// ---------------------------------------------------------------------------
// Parallel joins and aggregation vs serial
// ---------------------------------------------------------------------------

TEST_F(ParallelExecTest, JoinTypesMatchSerial) {
  for (JoinType type :
       {JoinType::kInner, JoinType::kLeft, JoinType::kSemi, JoinType::kAnti}) {
    auto sctx = Ctx(1);
    Plan souter = Plan::Scan(sctx.get(), fact_);
    Plan sinner = Plan::Scan(sctx.get(), dim_);
    ExprPtr sres =
        Cmp(CmpOp::kGt, sinner.inner_var("v"), ConstInt64(5));
    Plan sjoin = Plan::Join(std::move(souter), std::move(sinner), {{"k", "k"}},
                            type, std::move(sres));
    OperatorPtr sop = std::move(sjoin).Build();
    std::vector<std::string> expected = Sorted(CollectRows(sop.get()));

    // With batching on, the shared build drains its partitions and each
    // probe fragment pulls its outer morsels as page batches: the same
    // DrainJoinBuild as the serial build, at every dop.
    for (int batch : {0, kMaxTuplesPerPage}) {
      auto pctx = Ctx(4, /*morsel_pages=*/2);
      pctx->set_batch(batch);
      Plan pouter = Plan::Scan(pctx.get(), fact_);
      Plan pinner = Plan::Scan(pctx.get(), dim_);
      ExprPtr pres =
          Cmp(CmpOp::kGt, pinner.inner_var("v"), ConstInt64(5));
      Plan pjoin = Plan::Join(std::move(pouter), std::move(pinner),
                              {{"k", "k"}}, type, std::move(pres));
      OperatorPtr pop = std::move(pjoin).Build();
      EXPECT_EQ(Sorted(CollectRows(pop.get())), expected)
          << "join type " << static_cast<int>(type) << " batch " << batch;
    }
  }
  ASSERT_OK(db_->DropCaches());  // no probe or build batch kept a page pin
}

TEST_F(ParallelExecTest, JoinForgesOneEvjBeePerProbeFragment) {
  // The shared build drains its partitions with the probing worker's own
  // key evaluator, so a join forges one EVJ bee per probe fragment and none
  // per build partition (the shared query-bee cache is off here).
  for (auto [dop, forged] : {std::pair<int, uint64_t>{1, 1},
                             std::pair<int, uint64_t>{4, 4}}) {
    const uint64_t before = db_->bees()->stats().evj_bees_created;
    auto ctx = Ctx(dop);
    Plan join = Plan::Join(Plan::Scan(ctx.get(), fact_),
                           Plan::Scan(ctx.get(), dim_), {{"k", "k"}});
    OperatorPtr op = std::move(join).Build();
    ASSERT_OK_AND_ASSIGN(uint64_t rows, CountRows(op.get()));
    EXPECT_EQ(rows, static_cast<uint64_t>(kFactRows)) << "dop=" << dop;
    EXPECT_EQ(db_->bees()->stats().evj_bees_created - before, forged)
        << "dop=" << dop;
  }
}

TEST_F(ParallelExecTest, GroupByMergesAllAggregateKinds) {
  auto build = [&](ExecContext* ctx) {
    Plan plan = Plan::Scan(ctx, fact_);
    plan.Where(Cmp(CmpOp::kGt, plan.var("v"), ConstInt64(100)));
    plan.GroupBy({"k"},
                 AggList(Ag(AggSpec::CountStar(), "n"),
                         Ag(AggSpec::Sum(plan.var("v")), "sv"),
                         Ag(AggSpec::Avg(plan.var("w")), "aw"),
                         Ag(AggSpec::Min(plan.var("v")), "lo"),
                         Ag(AggSpec::Max(plan.var("w")), "hi")));
    return std::move(plan).Build();
  };
  auto sctx = Ctx(1);
  OperatorPtr sop = build(sctx.get());
  std::vector<std::string> expected = Sorted(CollectRows(sop.get()));
  ASSERT_EQ(expected.size(), static_cast<size_t>(kDimRows));
  for (int dop : {2, 7}) {
    auto ctx = Ctx(dop, /*morsel_pages=*/1);
    OperatorPtr op = build(ctx.get());
    EXPECT_EQ(Sorted(CollectRows(op.get())), expected) << "dop=" << dop;
  }
}

TEST_F(ParallelExecTest, RescanOfParallelSubtree) {
  // A nested-loop join re-Inits its inner side per outer row; with a
  // parallel inner plan the Gather below it must quiesce and restart its
  // workers (and reset the shared cursor) on every rescan.
  auto build = [&](ExecContext* ctx) {
    Plan outer = Plan::Scan(ctx, dim_);
    Plan inner = Plan::Scan(ctx, dim_);
    ExprPtr pred =
        Cmp(CmpOp::kGt, Var(RowSide::kOuter, 0, ColMeta::Of(TypeId::kInt32)),
            Var(RowSide::kInner, 0, ColMeta::Of(TypeId::kInt32)));
    Plan join =
        Plan::LoopJoin(std::move(outer), std::move(inner), JoinType::kInner,
                       std::move(pred));
    return std::move(join).Build();
  };
  auto sctx = Ctx(1);
  OperatorPtr sop = build(sctx.get());
  std::vector<std::string> expected = Sorted(CollectRows(sop.get()));
  ASSERT_EQ(expected.size(),
            static_cast<size_t>(kDimRows * (kDimRows - 1) / 2));
  auto pctx = Ctx(3, /*morsel_pages=*/1);
  OperatorPtr pop = build(pctx.get());
  EXPECT_EQ(Sorted(CollectRows(pop.get())), expected);
}

TEST_F(ParallelExecTest, InlineFallbackWithoutExecutor) {
  // A context that claims dop > 1 but has no executor pool: Gather and
  // ParallelHashAggregate run their fragments inline on the calling thread
  // (the nested-fan-out fallback), with identical results.
  auto ctx = db_->MakeContext();
  ctx->set_parallel(nullptr, 4, 1);
  ASSERT_EQ(ctx->dop(), 1);  // no executor -> plans build serial
  auto pooled = Ctx(4);
  std::vector<std::unique_ptr<ExecContext>> wctxs;
  std::vector<OperatorPtr> frags;
  std::vector<std::shared_ptr<MorselCursor>> cursors;
  auto cursor =
      std::make_shared<MorselCursor>(fact_->heap()->num_pages(), 1);
  for (int i = 0; i < 4; ++i) {
    auto wctx = pooled->MakeWorkerContext();
    frags.push_back(std::make_unique<SeqScan>(wctx.get(), fact_,
                                              /*natts_to_fetch=*/-1, cursor));
    wctxs.push_back(std::move(wctx));
  }
  cursors.push_back(cursor);
  Gather gather(ctx.get(), std::move(frags), std::move(wctxs),
                std::move(cursors));
  ASSERT_OK_AND_ASSIGN(uint64_t rows, CountRows(&gather));
  EXPECT_EQ(rows, static_cast<uint64_t>(kFactRows));
}

// ---------------------------------------------------------------------------
// dop=1 identity and EXPLAIN ANALYZE under parallelism
// ---------------------------------------------------------------------------

TEST_F(ParallelExecTest, DopOneBuildsTheSerialTree) {
  // dop=1 goes down the exact serial construction path: same operator
  // labels, no Gather/ParallelScan anywhere, and identical row order.
  auto labels = [&](ExecContext* ctx) {
    QueryStats qs;
    ctx->set_analyze(&qs);
    Plan outer = Plan::Scan(ctx, fact_);
    Plan inner = Plan::Scan(ctx, dim_);
    Plan join =
        Plan::Join(std::move(outer), std::move(inner), {{"k", "k"}});
    join.GroupBy({"k"}, AggList(Ag(AggSpec::CountStar(), "n")));
    OperatorPtr op = std::move(join).Build();
    auto rows = CountRows(op.get());
    MICROSPEC_CHECK(rows.ok());
    ctx->set_analyze(nullptr);
    std::vector<std::string> out;
    for (const QueryStats::Node& n : qs.nodes()) out.push_back(n.label);
    return out;
  };
  auto plain = db_->MakeContext();
  auto dop1 = db_->MakeContext(db_->DefaultSession(), 1);
  std::vector<std::string> expected = {"SeqScan(fact)", "SeqScan(dim)",
                                       "HashJoin", "HashAggregate"};
  EXPECT_EQ(labels(plain.get()), expected);
  EXPECT_EQ(labels(dop1.get()), expected);

  // And identical results in identical order (not just as multisets).
  auto a = db_->MakeContext();
  auto b = db_->MakeContext(db_->DefaultSession(), 1);
  Plan pa = Plan::Scan(a.get(), fact_);
  Plan pb = Plan::Scan(b.get(), fact_);
  OperatorPtr oa = std::move(pa).Build();
  OperatorPtr ob = std::move(pb).Build();
  EXPECT_EQ(CollectRows(oa.get()), CollectRows(ob.get()));
}

TEST_F(ParallelExecTest, ExplainAnalyzeAggregatesWorkerFragments) {
  const int kDop = 4;
  auto ctx = Ctx(kDop);
  QueryStats qs;
  ctx->set_analyze(&qs);
  Plan outer = Plan::Scan(ctx.get(), fact_);
  Plan inner = Plan::Scan(ctx.get(), dim_);
  Plan join = Plan::Join(std::move(outer), std::move(inner), {{"k", "k"}});
  OperatorPtr op = std::move(join).Build();
  ASSERT_OK_AND_ASSIGN(uint64_t rows, CountRows(op.get()));
  ctx->set_analyze(nullptr);
  ASSERT_EQ(rows, static_cast<uint64_t>(kFactRows));  // every key matches

  // Golden tree: one node per *logical* operator even though each ran as
  // kDop fragments, with totals summed across workers — not double-counted
  // through the Gather, and not just one worker's share.
  ASSERT_EQ(qs.nodes().size(), 4u);
  const QueryStats::Node& oscan = qs.nodes()[0];
  const QueryStats::Node& iscan = qs.nodes()[1];
  const QueryStats::Node& hjoin = qs.nodes()[2];
  const QueryStats::Node& gather = qs.nodes()[3];
  EXPECT_EQ(oscan.label, "ParallelScan(fact)");
  EXPECT_EQ(iscan.label, "ParallelScan(dim)");
  EXPECT_EQ(hjoin.label, "HashJoin");
  EXPECT_EQ(gather.label, "Gather");
  EXPECT_EQ(oscan.rows, static_cast<uint64_t>(kFactRows));
  EXPECT_EQ(iscan.rows, static_cast<uint64_t>(kDimRows));
  EXPECT_EQ(hjoin.rows, static_cast<uint64_t>(kFactRows));
  EXPECT_EQ(gather.rows, static_cast<uint64_t>(kFactRows));
  // Volcano invariant per fragment: rows + one EOS probe per worker.
  EXPECT_EQ(oscan.next_calls, oscan.rows + kDop);
  EXPECT_EQ(iscan.next_calls, iscan.rows + kDop);
  EXPECT_EQ(hjoin.next_calls, hjoin.rows + kDop);
  EXPECT_EQ(gather.next_calls, gather.rows + 1);
  // Tree shape: Gather at the root, the join under it, both scans under the
  // join.
  EXPECT_EQ(gather.children, std::vector<int>{2});
  EXPECT_EQ(hjoin.children, (std::vector<int>{0, 1}));
  std::string rendered = qs.ToString();
  EXPECT_EQ(rendered.find("Gather"), 0u);
  EXPECT_NE(rendered.find("\n  HashJoin"), std::string::npos);
  EXPECT_NE(rendered.find("\n    ParallelScan(fact)"), std::string::npos);
}

}  // namespace
}  // namespace microspec::testing
