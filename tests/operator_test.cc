#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>

#include "common/counters.h"
#include "exec/filter.h"
#include "exec/hash_agg.h"
#include "exec/hash_join.h"
#include "exec/index_scan.h"
#include "exec/nested_loop_join.h"
#include "exec/plan_builder.h"
#include "exec/project.h"
#include "exec/seq_scan.h"
#include "exec/sort.h"
#include "test_util.h"

namespace microspec {
namespace {

using testing::CollectRows;
using testing::OpenDb;
using testing::ScratchDir;

/// Fixture with two small tables: emp(id, dept, salary, name) and
/// dept(id, dname). Parameterized over stock vs bee-enabled so every
/// operator test doubles as a bee-equivalence test.
class OperatorTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    db_ = OpenDb(dir_.path() + "/db", GetParam(), GetParam());
    Column dept_col("dept", TypeId::kInt32, true);
    Schema emp_schema({Column("id", TypeId::kInt32, true), dept_col,
                       Column("salary", TypeId::kFloat64, true),
                       Column("name", TypeId::kVarchar, false)});
    Schema dept_schema({Column("id", TypeId::kInt32, true),
                        Column("dname", TypeId::kVarchar, true)});
    auto emp_result = db_->CreateTable("emp", std::move(emp_schema));
    ASSERT_TRUE(emp_result.ok());
    emp_ = emp_result.value();
    auto dept_result = db_->CreateTable("dept", std::move(dept_schema));
    ASSERT_TRUE(dept_result.ok());
    dept_ = dept_result.value();

    ctx_ = db_->MakeContext();
    Arena arena;
    // 30 employees in departments 1..3 (dept 4 is empty); one NULL name.
    for (int i = 1; i <= 30; ++i) {
      Datum v[4];
      bool n[4] = {false, false, false, false};
      v[0] = DatumFromInt32(i);
      v[1] = DatumFromInt32(i % 3 + 1);
      v[2] = DatumFromFloat64(1000.0 + 100.0 * (i % 7));
      if (i == 13) {
        n[3] = true;
        v[3] = 0;
      } else {
        v[3] = tupleops::MakeVarlena(&arena, "emp" + std::to_string(i));
      }
      ASSERT_TRUE(db_->Insert(ctx_.get(), emp_, v, n).ok());
    }
    const char* names[] = {"eng", "sales", "ops"};
    for (int d = 1; d <= 3; ++d) {
      Datum v[2] = {DatumFromInt32(d),
                    tupleops::MakeVarlena(&arena, names[d - 1])};
      ASSERT_TRUE(db_->Insert(ctx_.get(), dept_, v, nullptr).ok());
    }
    // Department 5 has no employees (for outer-join coverage).
    Datum v[2] = {DatumFromInt32(5), tupleops::MakeVarlena(&arena, "empty")};
    ASSERT_TRUE(db_->Insert(ctx_.get(), dept_, v, nullptr).ok());
  }

  Plan ScanEmp() { return Plan::Scan(ctx_.get(), emp_); }
  Plan ScanDept() { return Plan::Scan(ctx_.get(), dept_); }

  ScratchDir dir_;
  std::unique_ptr<Database> db_;
  TableInfo* emp_ = nullptr;
  TableInfo* dept_ = nullptr;
  std::unique_ptr<ExecContext> ctx_;
};

TEST_P(OperatorTest, SeqScanProducesAllRows) {
  SeqScan scan(ctx_.get(), emp_);
  auto rows = CountRows(&scan);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, 30u);
}

TEST_P(OperatorTest, SeqScanPartialDeform) {
  SeqScan scan(ctx_.get(), emp_, /*natts_to_fetch=*/2);
  EXPECT_EQ(scan.output_meta().size(), 2u);
  auto rows = CountRows(&scan);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, 30u);
}

TEST_P(OperatorTest, FilterSelectsMatchingRows) {
  Plan p = ScanEmp();
  p.Where(Cmp(CmpOp::kEq, p.var("dept"), ConstInt32(2)));
  auto rows = CountRows(std::move(p).Build().get());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, 10u);
}

TEST_P(OperatorTest, FilterTreatsNullAsFalse) {
  Plan p = ScanEmp();
  p.Where(Cmp(CmpOp::kEq, p.var("name"), ConstVarchar("emp13")));
  auto rows = CountRows(std::move(p).Build().get());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, 0u);  // emp13's name is NULL, never matches
}

TEST_P(OperatorTest, ProjectComputesExpressions) {
  Plan p = ScanEmp();
  p.Where(Cmp(CmpOp::kEq, p.var("id"), ConstInt32(1)));
  p.Select(SelList(
      Ex(Arith(ArithOp::kMul, p.var("salary"), ConstFloat64(2.0)), "dbl")));
  OperatorPtr op = std::move(p).Build();
  std::vector<std::string> rows = CollectRows(op.get());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], "2200");  // (1000 + 100*1) * 2
}

TEST_P(OperatorTest, LimitCapsOutput) {
  Plan p = ScanEmp();
  p.Take(7);
  auto rows = CountRows(std::move(p).Build().get());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, 7u);
}

TEST_P(OperatorTest, SortOrdersAscendingAndDescending) {
  Plan p = ScanEmp();
  p.Select(SelList(Ex(p.var("id"), "id")));
  p.OrderBy({{"id", true}});
  OperatorPtr op = std::move(p).Build();
  std::vector<std::string> rows = CollectRows(op.get());
  ASSERT_EQ(rows.size(), 30u);
  EXPECT_EQ(rows.front(), "30");
  EXPECT_EQ(rows.back(), "1");
}

TEST_P(OperatorTest, SortPutsNullsLast) {
  Plan p = ScanEmp();
  p.Select(SelList(Ex(p.var("name"), "name")));
  p.OrderBy({{"name", false}});
  OperatorPtr op = std::move(p).Build();
  std::vector<std::string> rows = CollectRows(op.get());
  ASSERT_EQ(rows.size(), 30u);
  EXPECT_EQ(rows.back(), "NULL");
}

TEST_P(OperatorTest, InnerHashJoinMatchesAllPairs) {
  Plan j = Plan::Join(ScanEmp(), ScanDept(), {{"dept", "id"}});
  auto rows = CountRows(std::move(j).Build().get());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, 30u);  // every employee's dept exists
}

TEST_P(OperatorTest, LeftJoinKeepsUnmatchedOuterRows) {
  // dept LEFT JOIN emp: department 5 has no employees -> NULL emp columns.
  Plan j = Plan::Join(ScanDept(), ScanEmp(), {{"id", "dept"}},
                      JoinType::kLeft);
  OperatorPtr op = std::move(j).Build();
  uint64_t with_null = 0;
  uint64_t total = 0;
  Status st = ForEachRow(op.get(), [&](const Datum*, const bool* isnull) {
    ++total;
    if (isnull[2]) ++with_null;  // emp id column NULL for unmatched
  });
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(total, 31u);  // 30 matches + 1 padded row for dept 5
  EXPECT_EQ(with_null, 1u);
}

TEST_P(OperatorTest, SemiJoinEmitsOuterOnceRegardlessOfMatches) {
  Plan j = Plan::Join(ScanDept(), ScanEmp(), {{"id", "dept"}},
                      JoinType::kSemi);
  OperatorPtr op = std::move(j).Build();
  EXPECT_EQ(op->output_meta().size(), 2u);  // dept columns only
  auto rows = CountRows(op.get());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, 3u);  // depts 1..3 have employees
}

TEST_P(OperatorTest, AntiJoinEmitsOnlyUnmatchedOuter) {
  Plan j = Plan::Join(ScanDept(), ScanEmp(), {{"id", "dept"}},
                      JoinType::kAnti);
  OperatorPtr op = std::move(j).Build();
  std::vector<std::string> rows = CollectRows(op.get());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], "5|empty");
}

TEST_P(OperatorTest, JoinResidualPredicateFiltersPairs) {
  Plan emp = ScanEmp();
  int salary_col = emp.col("salary");
  Plan j = Plan::Join(
      std::move(emp), ScanDept(), {{"dept", "id"}}, JoinType::kInner,
      Cmp(CmpOp::kGt,
          Var(RowSide::kOuter, salary_col, ColMeta::Of(TypeId::kFloat64)),
          ConstFloat64(1500.0)));
  auto rows = CountRows(std::move(j).Build().get());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, 4u);  // salaries 1600 at i%7==6: i=6,13,20,27
}

TEST_P(OperatorTest, NestedLoopJoinNonEquiPredicate) {
  // Pairs where emp.dept < dept.id.
  Plan emp = ScanEmp();
  int dept_col = emp.col("dept");
  Plan dept = ScanDept();
  int id_col = dept.col("id");
  Plan j = Plan::LoopJoin(
      std::move(emp), std::move(dept), JoinType::kInner,
      Cmp(CmpOp::kLt,
          Var(RowSide::kOuter, dept_col, ColMeta::Of(TypeId::kInt32)),
          Var(RowSide::kInner, id_col, ColMeta::Of(TypeId::kInt32))));
  auto rows = CountRows(std::move(j).Build().get());
  ASSERT_TRUE(rows.ok());
  // dept values: 10x1, 10x2, 10x3 vs dept ids {1,2,3,5}:
  // 1<2,1<3,1<5 (3), 2<3,2<5 (2), 3<5 (1) -> 10*(3+2+1)=60
  EXPECT_EQ(*rows, 60u);
}

TEST_P(OperatorTest, NestedLoopSemiAndAnti) {
  Plan semi = Plan::LoopJoin(
      ScanDept(), ScanEmp(), JoinType::kSemi,
      Cmp(CmpOp::kEq, Var(RowSide::kOuter, 0, ColMeta::Of(TypeId::kInt32)),
          Var(RowSide::kInner, 1, ColMeta::Of(TypeId::kInt32))));
  auto semi_rows = CountRows(std::move(semi).Build().get());
  ASSERT_TRUE(semi_rows.ok());
  EXPECT_EQ(*semi_rows, 3u);

  Plan anti = Plan::LoopJoin(
      ScanDept(), ScanEmp(), JoinType::kAnti,
      Cmp(CmpOp::kEq, Var(RowSide::kOuter, 0, ColMeta::Of(TypeId::kInt32)),
          Var(RowSide::kInner, 1, ColMeta::Of(TypeId::kInt32))));
  auto anti_rows = CountRows(std::move(anti).Build().get());
  ASSERT_TRUE(anti_rows.ok());
  EXPECT_EQ(*anti_rows, 1u);
}

TEST_P(OperatorTest, GroupByAggregates) {
  Plan p = ScanEmp();
  p.GroupBy({"dept"},
            AggList(Ag(AggSpec::CountStar(), "cnt"),
                    Ag(AggSpec::Sum(p.var("salary")), "total"),
                    Ag(AggSpec::Avg(p.var("salary")), "avg"),
                    Ag(AggSpec::Min(p.var("id")), "min_id"),
                    Ag(AggSpec::Max(p.var("id")), "max_id")));
  p.OrderBy({{"dept", false}});
  OperatorPtr op = std::move(p).Build();
  std::vector<std::string> rows = CollectRows(op.get());
  ASSERT_EQ(rows.size(), 3u);
  // dept 1: ids 3,6,...,30 -> count 10, min 3, max 30.
  EXPECT_TRUE(rows[0].rfind("1|10|", 0) == 0) << rows[0];
  EXPECT_NE(rows[0].find("|3|30"), std::string::npos) << rows[0];
}

TEST_P(OperatorTest, CountSkipsNullsCountStarDoesNot) {
  Plan p = ScanEmp();
  p.GroupBy({}, AggList(Ag(AggSpec::CountStar(), "all"),
                        Ag(AggSpec::Count(p.var("name")), "named")));
  OperatorPtr op = std::move(p).Build();
  std::vector<std::string> rows = CollectRows(op.get());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], "30|29");  // one NULL name
}

TEST_P(OperatorTest, GlobalAggregateOnEmptyInputYieldsOneRow) {
  Plan p = ScanEmp();
  p.Where(Cmp(CmpOp::kGt, p.var("id"), ConstInt32(1000)));
  p.GroupBy({}, AggList(Ag(AggSpec::CountStar(), "cnt"),
                        Ag(AggSpec::Sum(p.var("salary")), "s")));
  OperatorPtr op = std::move(p).Build();
  std::vector<std::string> rows = CollectRows(op.get());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], "0|NULL");  // SQL: COUNT 0, SUM NULL
}

TEST_P(OperatorTest, GroupedAggregateOnEmptyInputYieldsNoRows) {
  Plan p = ScanEmp();
  p.Where(Cmp(CmpOp::kGt, p.var("id"), ConstInt32(1000)));
  p.GroupBy({"dept"}, AggList(Ag(AggSpec::CountStar(), "cnt")));
  auto rows = CountRows(std::move(p).Build().get());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, 0u);
}

TEST_P(OperatorTest, MinMaxOverStrings) {
  Plan p = ScanEmp();
  p.Where(Cmp(CmpOp::kLe, p.var("id"), ConstInt32(3)));
  p.GroupBy({}, AggList(Ag(AggSpec::Min(p.var("name")), "mn"),
                        Ag(AggSpec::Max(p.var("name")), "mx")));
  OperatorPtr op = std::move(p).Build();
  std::vector<std::string> rows = CollectRows(op.get());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], "emp1|emp3");
}

TEST_P(OperatorTest, IndexScanPointAndPrefix) {
  ASSERT_TRUE(emp_->CreateIndex("emp_pk", {0}).ok());
  IndexInfo* idx = emp_->GetIndex("emp_pk");
  // Rebuild index entries by scanning.
  SeqScan scan(ctx_.get(), emp_);
  ASSERT_TRUE(scan.Init().ok());
  // Populate via the heap directly.
  auto it = emp_->heap()->Scan();
  const char* tuple = nullptr;
  uint32_t len = 0;
  TupleId tid = 0;
  Datum values[4];
  bool isnull[4];
  while (it.Next(&tuple, &len, &tid)) {
    ctx_->DeformerFor(emp_)->Deform(tuple, 4, values, isnull);
    ASSERT_TRUE(
        idx->btree->Insert(IndexKey::Of({DatumToInt32(values[0])}), tid).ok());
  }

  IndexScan point(ctx_.get(), emp_, idx, IndexKey::Of({17}));
  std::vector<std::string> rows = CollectRows(&point);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0].rfind("17|", 0) == 0);
}

TEST_P(OperatorTest, OperatorsAreReinitializable) {
  Plan p = ScanEmp();
  p.Where(Cmp(CmpOp::kEq, p.var("dept"), ConstInt32(1)));
  OperatorPtr op = std::move(p).Build();
  auto first = CountRows(op.get());
  auto second = CountRows(op.get());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);

  // A re-Init rescans the relation as it stands: rows appended between two
  // runs (enough to start a new heap page) are counted by the second run, on
  // the scalar path and on the page-batch path a batch-driving aggregate
  // engages.
  for (int batch : {0, kMaxTuplesPerPage}) {
    auto ctx = db_->MakeContext(db_->DefaultSession(), 1);
    ctx->set_batch(batch);
    Plan q = Plan::Scan(ctx.get(), emp_);
    q.Where(Cmp(CmpOp::kEq, q.var("dept"), ConstInt32(1)));
    q.GroupBy({}, AggList(Ag(AggSpec::CountStar(), "n")));
    OperatorPtr count = std::move(q).Build();
    std::vector<std::string> before = CollectRows(count.get());
    ASSERT_EQ(before.size(), 1u);
    const PageNo pages = emp_->heap()->num_pages();
    int64_t added = 0;
    while (emp_->heap()->num_pages() == pages) {
      Datum v[4] = {DatumFromInt32(static_cast<int32_t>(1000 + added)),
                    DatumFromInt32(1), DatumFromFloat64(1.0), 0};
      bool n[4] = {false, false, false, true};
      ASSERT_TRUE(db_->Insert(ctx_.get(), emp_, v, n).ok());
      ++added;
    }
    EXPECT_EQ(CollectRows(count.get()),
              std::vector<std::string>{std::to_string(std::stoll(before[0]) +
                                                      added)})
        << "batch=" << batch;
  }
}

INSTANTIATE_TEST_SUITE_P(StockAndBees, OperatorTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Bees" : "Stock";
                         });

}  // namespace
}  // namespace microspec

namespace microspec {
namespace {

/// The aggregation-bee extension (SessionOptions::enable_agg_bee) must be
/// result-equivalent to the generic update loop on every aggregate kind, on
/// the scalar and the batch accumulation paths, over empty inputs, and
/// through the parallel merge. Each serial mode's work-op count is pinned:
/// the modeled per-row and per-aggregate charges are part of the contract.
TEST(AggBee, KernelsMatchGenericUpdate) {
  testing::ScratchDir dir;
  auto db = testing::OpenDb(dir.path() + "/db", true, true);
  Schema schema({Column("g", TypeId::kInt32, true),
                 Column("x", TypeId::kFloat64, true),
                 Column("y", TypeId::kInt32, false),
                 Column("s", TypeId::kVarchar, true)});
  auto table = db->CreateTable("t", std::move(schema));
  ASSERT_TRUE(table.ok());
  auto load_ctx = db->MakeContext();
  Arena arena;
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    Datum v[4];
    bool n[4] = {false, false, rng.Uniform(5) == 0, false};
    v[0] = DatumFromInt32(static_cast<int32_t>(rng.Uniform(7)));
    v[1] = DatumFromFloat64(rng.NextDouble() * 100);
    v[2] = DatumFromInt32(static_cast<int32_t>(rng.UniformRange(-50, 50)));
    v[3] = tupleops::MakeVarlena(&arena, rng.AlnumString(1, 12));
    ASSERT_TRUE(db->Insert(load_ctx.get(), table.value(), v, n).ok());
    if (i % 128 == 0) arena.Reset();
  }

  // kMixed has an expression argument and a varchar MIN, so the batch path
  // gathers rows; kBare has only bare by-value columns, so the batch path
  // runs the column kernels; kMerge drops the float sums (whose rounding
  // depends on merge order) and carries the varchar extremes and the
  // NULL-bearing column through the dop > 1 merge.
  enum class List { kMixed, kBare, kMerge };
  enum class Input { kAll, kEmptyGlobal, kEmptyGrouped };
  struct Result {
    std::vector<std::string> rows;
    uint64_t ops;
  };
  auto run = [&](List list, Input input, int batch_rows, bool agg_bee,
                 int dop) {
    SessionOptions opts = SessionOptions::AllBees();
    opts.enable_agg_bee = agg_bee;
    auto ctx = db->MakeContext(opts, dop);
    if (dop > 1) ctx->set_parallel(ctx->executor(), dop, /*morsel_pages=*/1);
    ctx->set_batch(batch_rows);
    Plan p = Plan::Scan(ctx.get(), table.value());
    if (input != Input::kAll) {
      p.Where(Cmp(CmpOp::kGt, p.var("g"), ConstInt32(1000)));
    }
    std::vector<std::pair<AggSpec, std::string>> aggs;
    switch (list) {
      case List::kMixed:
        aggs = AggList(Ag(AggSpec::CountStar(), "cnt"),
                       Ag(AggSpec::Count(p.var("y")), "cy"),
                       Ag(AggSpec::Sum(p.var("x")), "sx"),
                       Ag(AggSpec::Sum(p.var("y")), "sy"),
                       Ag(AggSpec::Avg(p.var("x")), "ax"),
                       Ag(AggSpec::Min(p.var("y")), "mn"),
                       Ag(AggSpec::Max(p.var("x")), "mx"),
                       // Non-Var argument: kernel falls back per spec.
                       Ag(AggSpec::Sum(Arith(ArithOp::kMul, p.var("x"),
                                             ConstFloat64(2.0))),
                          "sx2"),
                       // String min/max: not kernelizable, must fall back.
                       Ag(AggSpec::Min(p.var("s")), "ms"));
        break;
      case List::kBare:
        aggs = AggList(Ag(AggSpec::CountStar(), "cnt"),
                       Ag(AggSpec::Count(p.var("y")), "cy"),
                       Ag(AggSpec::Sum(p.var("x")), "sx"),
                       Ag(AggSpec::Sum(p.var("y")), "sy"),
                       Ag(AggSpec::Avg(p.var("x")), "ax"),
                       Ag(AggSpec::Avg(p.var("y")), "ay"),
                       Ag(AggSpec::Min(p.var("y")), "mny"),
                       Ag(AggSpec::Max(p.var("y")), "mxy"),
                       Ag(AggSpec::Min(p.var("x")), "mnx"),
                       Ag(AggSpec::Max(p.var("x")), "mxx"));
        break;
      case List::kMerge:
        aggs = AggList(Ag(AggSpec::CountStar(), "cnt"),
                       Ag(AggSpec::Count(p.var("y")), "cy"),
                       Ag(AggSpec::Sum(p.var("y")), "sy"),
                       Ag(AggSpec::Avg(p.var("y")), "ay"),
                       Ag(AggSpec::Min(p.var("y")), "mny"),
                       Ag(AggSpec::Max(p.var("y")), "mxy"),
                       Ag(AggSpec::Max(p.var("x")), "mxx"),
                       Ag(AggSpec::Min(p.var("s")), "mns"),
                       Ag(AggSpec::Max(p.var("s")), "mxs"));
        break;
    }
    if (input == Input::kEmptyGlobal) {
      p.GroupBy({}, std::move(aggs));
    } else {
      p.GroupBy({"g"}, std::move(aggs));
      p.OrderBy({{"g", false}});
    }
    OperatorPtr op = std::move(p).Build();
    const uint64_t before = workops::Read();
    Result r{testing::CollectRows(op.get()), 0};
    r.ops = workops::Read() - before;
    return r;
  };

  struct Mode {
    int batch_rows;
    bool agg_bee;
    uint64_t mixed_ops;  // pinned work-op deltas, List::kMixed over all rows
    uint64_t bare_ops;   // ... and List::kBare
  };
  const Mode modes[] = {
      {0, false, 80454, 80906},
      {0, true, 44530, 34558},
      {1, false, 79454, 63558},
      {1, true, 43530, 33558},
      {kMaxTuplesPerPage, false, 69514, 53618},
      {kMaxTuplesPerPage, true, 33590, 23618},
  };
  const Result mixed = run(List::kMixed, Input::kAll, 0, false, 1);
  const Result bare = run(List::kBare, Input::kAll, 0, false, 1);
  const Result merge = run(List::kMerge, Input::kAll, 0, false, 1);
  ASSERT_EQ(mixed.rows.size(), 7u);
  for (const Mode& m : modes) {
    SCOPED_TRACE(::testing::Message() << "batch_rows=" << m.batch_rows
                                      << " agg_bee=" << m.agg_bee);
    const Result rm =
        run(List::kMixed, Input::kAll, m.batch_rows, m.agg_bee, 1);
    const Result rb =
        run(List::kBare, Input::kAll, m.batch_rows, m.agg_bee, 1);
    EXPECT_EQ(rm.rows, mixed.rows);
    EXPECT_EQ(rb.rows, bare.rows);
    EXPECT_EQ(rm.ops, m.mixed_ops);
    EXPECT_EQ(rb.ops, m.bare_ops);

    // Empty input: a global aggregate still yields its one row (COUNTs 0,
    // everything else NULL); a grouped one yields none.
    for (List list : {List::kMixed, List::kBare}) {
      EXPECT_EQ(run(list, Input::kEmptyGlobal, m.batch_rows, m.agg_bee, 1).rows,
                run(list, Input::kEmptyGlobal, 0, false, 1).rows);
      EXPECT_TRUE(
          run(list, Input::kEmptyGrouped, m.batch_rows, m.agg_bee, 1)
              .rows.empty());
    }

    // dop 4 merges the partials through HashAggregate::MergeFrom; the
    // empty global aggregate's per-worker rows must collapse into one.
    EXPECT_EQ(run(List::kMerge, Input::kAll, m.batch_rows, m.agg_bee, 4).rows,
              merge.rows);
    EXPECT_EQ(
        run(List::kMerge, Input::kEmptyGlobal, m.batch_rows, m.agg_bee, 4).rows,
        run(List::kMerge, Input::kEmptyGlobal, 0, false, 1).rows);
    EXPECT_TRUE(
        run(List::kMerge, Input::kEmptyGrouped, m.batch_rows, m.agg_bee, 4)
            .rows.empty());
  }
  EXPECT_EQ(run(List::kMixed, Input::kEmptyGlobal, 0, false, 1).rows,
            std::vector<std::string>{"0|0|NULL|NULL|NULL|NULL|NULL|NULL|NULL"});
}

/// A table whose columns give group keys of 50,000 and 100,000 distinct
/// values, far past HashAggregate's initial 1,024 buckets: row i has
/// a = 7919 i mod 100000 (a permutation), b = i mod 50000, e = i mod 500,
/// f = (i / 500) mod 100, s = a and t = b as CHAR(8) text, and v = i.
class ManyGroupsTest : public ::testing::Test {
 protected:
  static constexpr int kRows = 100000;

  struct Keys {
    int64_t a;
    int32_t b, e, f;
    std::string s, t;
  };
  static Keys KeysOf(int i) {
    Keys k;
    k.a = static_cast<int64_t>(i) * 7919 % kRows;
    k.b = i % 50000;
    k.e = i % 500;
    k.f = (i / 500) % 100;
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%08lld", static_cast<long long>(k.a));
    k.s = buf;
    std::snprintf(buf, sizeof(buf), "%08d", k.b);
    k.t = buf;
    return k;
  }

  static void SetUpTestSuite() {
    dir_ = new testing::ScratchDir();
    db_ = testing::OpenDb(dir_->path() + "/db", true).release();
    Schema schema({Column("a", TypeId::kInt64, true),
                   Column("b", TypeId::kInt32, true),
                   Column("e", TypeId::kInt32, true),
                   Column("f", TypeId::kInt32, true),
                   Column("s", TypeId::kChar, true, 8),
                   Column("t", TypeId::kChar, true, 8),
                   Column("v", TypeId::kInt64, true)});
    auto created = db_->CreateTable("many", std::move(schema));
    MICROSPEC_CHECK(created.ok());
    table_ = created.value();
    auto ctx = db_->MakeContext();
    Database::BulkLoader loader(db_, ctx.get(), table_);
    for (int i = 0; i < kRows; ++i) {
      const Keys k = KeysOf(i);
      Datum v[7] = {DatumFromInt64(k.a),          DatumFromInt32(k.b),
                    DatumFromInt32(k.e),          DatumFromInt32(k.f),
                    DatumFromPointer(k.s.data()), DatumFromPointer(k.t.data()),
                    DatumFromInt64(i)};
      bool n[7] = {false, false, false, false, false, false, false};
      MICROSPEC_CHECK(loader.Append(v, n).ok());
    }
    MICROSPEC_CHECK(loader.Finish().ok());
  }
  static void TearDownTestSuite() {
    delete db_;
    delete dir_;
  }

  /// COUNT(*), SUM(v), MIN(v), MAX(v) grouped by `cols`, rendered as
  /// CollectRows does and sorted.
  static std::vector<std::string> Run(const std::vector<std::string>& cols,
                                      int batch_rows, int dop) {
    auto ctx = db_->MakeContext(db_->DefaultSession(), dop);
    if (dop > 1) ctx->set_parallel(ctx->executor(), dop, /*morsel_pages=*/8);
    ctx->set_batch(batch_rows);
    Plan p = Plan::Scan(ctx.get(), table_);
    p.GroupBy(cols, AggList(Ag(AggSpec::CountStar(), "n"),
                            Ag(AggSpec::Sum(p.var("v")), "sv"),
                            Ag(AggSpec::Min(p.var("v")), "lo"),
                            Ag(AggSpec::Max(p.var("v")), "hi")));
    OperatorPtr op = std::move(p).Build();
    std::vector<std::string> rows = CollectRows(op.get());
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  /// The same aggregate computed with a std::map over the generator.
  static std::vector<std::string> Reference(
      const std::vector<std::string>& cols) {
    struct Agg {
      int64_t n = 0, sum = 0, lo = 0, hi = 0;
    };
    std::map<std::string, Agg> groups;
    for (int i = 0; i < kRows; ++i) {
      const Keys k = KeysOf(i);
      std::string key;
      for (const std::string& c : cols) {
        if (!key.empty()) key += "|";
        if (c == "a") key += std::to_string(k.a);
        if (c == "b") key += std::to_string(k.b);
        if (c == "e") key += std::to_string(k.e);
        if (c == "f") key += std::to_string(k.f);
        if (c == "s") key += k.s;
        if (c == "t") key += k.t;
      }
      Agg& g = groups[key];
      if (g.n == 0) g.lo = g.hi = i;
      ++g.n;
      g.sum += i;
      g.lo = std::min<int64_t>(g.lo, i);
      g.hi = std::max<int64_t>(g.hi, i);
    }
    std::vector<std::string> rows;
    for (const auto& [key, g] : groups) {
      rows.push_back(key + "|" + std::to_string(g.n) + "|" +
                     std::to_string(g.sum) + "|" + std::to_string(g.lo) +
                     "|" + std::to_string(g.hi));
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  static testing::ScratchDir* dir_;
  static Database* db_;
  static TableInfo* table_;
};

testing::ScratchDir* ManyGroupsTest::dir_ = nullptr;
Database* ManyGroupsTest::db_ = nullptr;
TableInfo* ManyGroupsTest::table_ = nullptr;

/// Single, multi-column and CHAR keys at 50,000 and 100,000 groups match a
/// std::map reference on the scalar, one-row-batch and page-batch paths, at
/// dop 1 and through dop 4's MergeFrom, whose target table grows too.
TEST_F(ManyGroupsTest, GroupsMatchMapReferenceAtEveryBatchAndDop) {
  const std::vector<std::pair<std::vector<std::string>, size_t>> keys = {
      {{"a"}, 100000},      {{"b"}, 50000}, {{"e", "f"}, 50000},
      {{"a", "e"}, 100000}, {{"s"}, 100000}, {{"t"}, 50000}};
  for (const auto& [cols, ngroups] : keys) {
    const std::vector<std::string> expected = Reference(cols);
    ASSERT_EQ(expected.size(), ngroups);
    for (int batch : {0, 1, kMaxTuplesPerPage}) {
      for (int dop : {1, 4}) {
        SCOPED_TRACE(::testing::Message() << "keys " << cols[0] << "/"
                                          << cols.size() << " batch " << batch
                                          << " dop " << dop);
        EXPECT_EQ(Run(cols, batch, dop), expected);
      }
    }
  }
}

/// The work-op cost of an input row does not grow with the group count.
/// A growing table holds at most one group per bucket on average, so a
/// probe walks about one chain step; a fixed 1,024-bucket table walks
/// chains about 50 long on average while 100,000 groups fill it, about 100
/// more work-ops per row.
TEST_F(ManyGroupsTest, WorkOpsPerRowStayFlatPastTheInitialBuckets) {
  auto ops_per_row = [](const std::vector<std::string>& cols) {
    const uint64_t before = workops::Read();
    EXPECT_FALSE(Run(cols, 0, 1).empty());
    return static_cast<double>(workops::Read() - before) / kRows;
  };
  const double few = ops_per_row({"e"});     // 500 groups: never grows
  const double many = ops_per_row({"a"});    // 100,000 groups
  EXPECT_LT(many, few + 12.0) << "few " << few << " many " << many;
}

}  // namespace
}  // namespace microspec
