// Unit tests for batch-at-a-time execution: the RowBatch container
// (selection-vector compaction, Reset), page-granular scans at capacities
// below / at one page's worth of tuples (partial-page resume), rescan after
// end-of-stream, the Filter + EVP-B selection path, LIMIT ending a query
// mid-batch without leaking page pins (DropCaches CHECKs pin counts), and
// HashJoin's batch build and probe.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "exec/batch.h"
#include "exec/plan_builder.h"
#include "exec/seq_scan.h"
#include "test_util.h"

namespace microspec {
namespace {

using testing::OpenDb;
using testing::ScratchDir;

TEST(RowBatch, SelectionCompactionAndReset) {
  RowBatch b(2, 8);
  EXPECT_EQ(b.ncols(), 2);
  EXPECT_EQ(b.capacity(), 8);
  for (int r = 0; r < 5; ++r) {
    b.col(0)[r] = DatumFromInt32(r);
    b.nulls(0)[r] = false;
    b.col(1)[r] = DatumFromInt32(10 * r);
    b.nulls(1)[r] = (r == 3);
  }
  b.SetAllSelected(5);
  EXPECT_EQ(b.size(), 5);
  EXPECT_EQ(b.selected(), 5);

  // In-place compaction: keep even rows, preserving increasing order.
  int out = 0;
  for (int i = 0; i < b.selected(); ++i) {
    int r = b.sel()[i];
    if (r % 2 == 0) b.sel()[out++] = r;
  }
  b.SetSelected(out);
  ASSERT_EQ(b.selected(), 3);
  EXPECT_EQ(b.size(), 5);  // data untouched, only the selection narrowed
  Datum v[2];
  bool n[2];
  b.GatherRow(b.sel()[2], v, n);
  EXPECT_EQ(DatumToInt64(v[0]), 4);
  EXPECT_EQ(DatumToInt64(v[1]), 40);
  EXPECT_FALSE(n[1]);
  b.GatherRow(3, v, n);  // unselected rows stay materialized
  EXPECT_TRUE(n[1]);

  b.Reset();
  EXPECT_EQ(b.size(), 0);
  EXPECT_EQ(b.selected(), 0);
  EXPECT_EQ(b.capacity(), 8);
}

/// Fixture with one multi-page table, parameterized over stock vs
/// bee-enabled so every batch path doubles as a GCL-B/EVP-B equivalence
/// test. The low-cardinality CHAR column gives tuple-bee databases a
/// section slot to resolve inside the batch deform.
class BatchExecTest : public ::testing::TestWithParam<bool> {
 protected:
  static constexpr int kRows = 1200;

  void SetUp() override {
    db_ = OpenDb(dir_.path() + "/db", GetParam(), GetParam());
    Column cc("cc", TypeId::kChar, true, 2);
    cc.set_low_cardinality(true);
    Schema schema({Column("id", TypeId::kInt32, true), cc,
                   Column("val", TypeId::kFloat64, true),
                   Column("name", TypeId::kVarchar, false)});
    auto created = db_->CreateTable("t", std::move(schema));
    ASSERT_TRUE(created.ok());
    t_ = created.value();
    ctx_ = db_->MakeContext();
    Arena arena;
    const char* codes[] = {"US", "DE", "JP"};
    for (int i = 0; i < kRows; ++i) {
      Datum v[4];
      bool n[4] = {false, false, false, false};
      v[0] = DatumFromInt32(i);
      v[1] = DatumFromPointer(codes[i % 3]);
      v[2] = DatumFromFloat64(i * 0.5);
      if (i % 97 == 0) {
        n[3] = true;
        v[3] = 0;
      } else {
        v[3] = tupleops::MakeVarlena(&arena, "row" + std::to_string(i));
      }
      ASSERT_TRUE(db_->Insert(ctx_.get(), t_, v, n).ok());
    }
  }

  /// Drives `op` through NextBatch into `batch` until end-of-stream,
  /// rendering every selected row.
  static std::vector<std::string> DrainBatches(Operator* op, RowBatch* batch) {
    std::vector<std::string> rows;
    MICROSPEC_CHECK(op->Init().ok());
    std::vector<Datum> v(static_cast<size_t>(batch->ncols()));
    auto n = std::make_unique<bool[]>(static_cast<size_t>(batch->ncols()));
    for (;;) {
      MICROSPEC_CHECK(op->NextBatch(batch).ok());
      if (batch->selected() == 0) break;
      for (int i = 0; i < batch->selected(); ++i) {
        batch->GatherRow(batch->sel()[i], v.data(), n.get());
        rows.push_back(RenderRow(op->output_meta(), v.data(), n.get()));
      }
    }
    op->Close();
    batch->Reset();
    return rows;
  }

  static std::vector<std::string> DrainScalar(Operator* op) {
    std::vector<std::string> rows;
    Status st = ForEachRow(op, [&](const Datum* v, const bool* n) {
      rows.push_back(RenderRow(op->output_meta(), v, n));
    });
    MICROSPEC_CHECK(st.ok());
    return rows;
  }

  static std::string RenderRow(const std::vector<ColMeta>& meta,
                               const Datum* v, const bool* n) {
    std::string row;
    for (size_t i = 0; i < meta.size(); ++i) {
      if (i > 0) row += "|";
      if (n != nullptr && n[i]) {
        row += "NULL";
        continue;
      }
      switch (meta[i].type) {
        case TypeId::kInt32:
        case TypeId::kInt64:
        case TypeId::kDate:
        case TypeId::kBool:
          row += std::to_string(DatumToInt64(v[i]));
          break;
        case TypeId::kFloat64:
          row += std::to_string(DatumToFloat64(v[i]));
          break;
        case TypeId::kChar:
          row += std::string(DatumToPointer(v[i]),
                             static_cast<size_t>(meta[i].attlen));
          break;
        case TypeId::kVarchar:
          row += std::string(VarlenaView(v[i]));
          break;
      }
    }
    return row;
  }

  ScratchDir dir_;
  std::unique_ptr<Database> db_;
  TableInfo* t_ = nullptr;
  std::unique_ptr<ExecContext> ctx_;
};

/// Scan batches at capacities below one page's live-tuple count force the
/// iterator to resume mid-page; a full-page capacity exercises the whole
/// GCL-B deform in one call. All must match the scalar Next stream exactly
/// (same rows, same order — scans are order-preserving).
TEST_P(BatchExecTest, ScanBatchesMatchScalarAcrossCapacities) {
  std::vector<std::string> scalar;
  {
    SeqScan scan(ctx_.get(), t_);
    scalar = DrainScalar(&scan);
  }
  ASSERT_EQ(scalar.size(), static_cast<size_t>(kRows));
  for (int cap : {1, 7, 64, kMaxTuplesPerPage}) {
    SeqScan scan(ctx_.get(), t_);
    RowBatch batch(static_cast<int>(scan.output_meta().size()), cap);
    EXPECT_EQ(DrainBatches(&scan, &batch), scalar) << "capacity " << cap;
  }
  ASSERT_OK(db_->DropCaches());  // every scan pin was released
}

/// After end-of-stream, Close + Init rewinds the scan; the second batch
/// pass must reproduce the first from the start (RowBatch::Reset between
/// refills cannot leak state across rescans).
TEST_P(BatchExecTest, RescanAfterEosReproducesStream) {
  SeqScan scan(ctx_.get(), t_);
  RowBatch batch(static_cast<int>(scan.output_meta().size()), 50);
  std::vector<std::string> first = DrainBatches(&scan, &batch);
  std::vector<std::string> second = DrainBatches(&scan, &batch);
  EXPECT_EQ(first, second);
  ASSERT_EQ(first.size(), static_cast<size_t>(kRows));
}

/// Filter over a batch narrows the selection vector in place — with bees
/// enabled this runs the EVP-B column kernels; either way the surviving
/// multiset must equal the scalar filter's output.
TEST_P(BatchExecTest, FilterBatchesMatchScalar) {
  auto build = [&] {
    Plan p = Plan::Scan(ctx_.get(), t_);
    p.Where(Cmp(CmpOp::kGt, p.var("val"), ConstFloat64(100.0)));
    return std::move(p).Build();
  };
  std::vector<std::string> scalar;
  {
    OperatorPtr op = build();
    scalar = DrainScalar(op.get());
  }
  ASSERT_FALSE(scalar.empty());
  for (int cap : {1, 64, kMaxTuplesPerPage}) {
    OperatorPtr op = build();
    RowBatch batch(static_cast<int>(op->output_meta().size()), cap);
    EXPECT_EQ(DrainBatches(op.get(), &batch), scalar) << "capacity " << cap;
  }
  ASSERT_OK(db_->DropCaches());
}

/// A LIMIT that ends the query in the middle of a batch: the truncated
/// batch must hold exactly the quota, and closing the plan releases the
/// page pin the final (partially consumed) batch carried — DropCaches
/// CHECK-fails on any leaked pin.
TEST_P(BatchExecTest, LimitMidBatchReleasesPins) {
  Plan p = Plan::Scan(ctx_.get(), t_);
  p.Take(5);
  OperatorPtr op = std::move(p).Build();
  ASSERT_OK(op->Init());
  RowBatch batch(static_cast<int>(op->output_meta().size()),
                 kMaxTuplesPerPage);
  uint64_t total = 0;
  for (;;) {
    ASSERT_OK(op->NextBatch(&batch));
    if (batch.selected() == 0) break;
    total += static_cast<uint64_t>(batch.selected());
  }
  EXPECT_EQ(total, 5u);
  op->Close();
  batch.Reset();
  ASSERT_OK(db_->DropCaches());
}

/// HashJoin over batch-capable children: the build drains its inner child
/// through NextBatch and the probe gathers one outer row at a time from a
/// RowBatch. Every join type, with and without a residual, at every batch
/// capacity must reproduce the scalar join row for row (both sides keep
/// scan order, so the output order is the same too), and a re-Init must
/// rescan to the same rows.
///
/// The join key is the CHAR column and each matched outer row meets three
/// inner rows, so an outer row is emitted over several Next calls. In the
/// projected variant the outer CHAR and VARCHAR cells live in the outer
/// batch's arena, which the next refill overwrites: a probe that refilled
/// the batch before its last row was fully emitted would read the next
/// row's strings.
TEST_P(BatchExecTest, HashJoinBatchesMatchScalar) {
  Column code("code", TypeId::kChar, true, 2);
  Schema dim_schema({code, Column("tag", TypeId::kVarchar, true),
                     Column("lo", TypeId::kInt32, true)});
  auto created = db_->CreateTable("d", std::move(dim_schema));
  ASSERT_TRUE(created.ok());
  TableInfo* d = created.value();
  Arena arena;
  // "US" and "DE" match three inner rows each; "JP" outer rows match none.
  for (const char* c : {"US", "DE"}) {
    for (int k = 0; k < 3; ++k) {
      Datum v[3] = {
          DatumFromPointer(c),
          tupleops::MakeVarlena(&arena, std::string(c) + std::to_string(k)),
          DatumFromInt32(400 * k)};
      ASSERT_TRUE(db_->Insert(ctx_.get(), d, v, nullptr).ok());
    }
  }

  enum class Outer { kScan, kProjected };
  auto build = [&](ExecContext* ctx, JoinType type, bool residual,
                   Outer outer_shape) {
    Plan outer = Plan::Scan(ctx, t_);
    if (outer_shape == Outer::kProjected) {
      std::vector<std::pair<ExprPtr, std::string>> cols;
      for (const char* name : {"id", "cc", "val", "name"}) {
        cols.emplace_back(outer.var(name), name);
      }
      outer.Select(std::move(cols));
    }
    Plan inner = Plan::Scan(ctx, d);
    ExprPtr res;
    if (residual) res = Cmp(CmpOp::kLt, inner.inner_var("lo"), outer.var("id"));
    Plan join = Plan::Join(std::move(outer), std::move(inner),
                           {{"cc", "code"}}, type, std::move(res));
    return std::move(join).Build();
  };

  for (JoinType type :
       {JoinType::kInner, JoinType::kLeft, JoinType::kSemi, JoinType::kAnti}) {
    for (bool residual : {false, true}) {
      std::vector<std::string> scalar;
      {
        auto ctx = db_->MakeContext();
        ctx->set_batch(0);
        OperatorPtr op = build(ctx.get(), type, residual, Outer::kScan);
        scalar = DrainScalar(op.get());
      }
      // Independent row counts: 800 US/DE rows, 400 JP rows; without a
      // residual each US/DE row meets 3 inner rows.
      if (!residual) {
        const size_t expect[] = {2400, 2800, 800, 400};
        EXPECT_EQ(scalar.size(), expect[static_cast<int>(type)]);
      }
      for (Outer shape : {Outer::kScan, Outer::kProjected}) {
        for (int cap : {0, 1, 64, kMaxTuplesPerPage}) {
          SCOPED_TRACE(::testing::Message()
                       << "type " << static_cast<int>(type) << " residual "
                       << residual << " projected "
                       << (shape == Outer::kProjected) << " capacity " << cap);
          auto ctx = db_->MakeContext();
          ctx->set_batch(cap);
          OperatorPtr op = build(ctx.get(), type, residual, shape);
          EXPECT_EQ(DrainScalar(op.get()), scalar);
          EXPECT_EQ(DrainScalar(op.get()), scalar) << "after re-Init";
        }
      }
    }
  }
  ASSERT_OK(db_->DropCaches());  // Close released every probe batch's pin
}

INSTANTIATE_TEST_SUITE_P(StockAndBees, BatchExecTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "bees" : "stock";
                         });

}  // namespace
}  // namespace microspec
