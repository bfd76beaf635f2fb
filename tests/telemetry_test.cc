#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/counters.h"
#include "common/telemetry.h"
#include "exec/seq_scan.h"
#include "test_util.h"
#include "workloads/tpch/dbgen.h"
#include "workloads/tpch/tpch_schema.h"

namespace microspec {
namespace {

using telemetry::Counter;
using telemetry::Histogram;
using telemetry::TelemetrySnapshot;
using testing::OpenDb;
using testing::ScratchDir;

/// --- sharded instruments (run under TSan via check.sh) ----------------------

TEST(TelemetryCounter, ConcurrentWritersWithSnapshotReader) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    // Concurrent merges must be race-free and never exceed the final total.
    while (!stop.load(std::memory_order_acquire)) {
      EXPECT_LE(c.Value(), kThreads * kPerThread);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Add(1);
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(TelemetryHistogram, BucketsAndQuantiles) {
  EXPECT_EQ(Histogram::BucketOf(0), 0);
  EXPECT_EQ(Histogram::BucketOf(1), 1);
  EXPECT_EQ(Histogram::BucketOf(2), 2);
  EXPECT_EQ(Histogram::BucketOf(3), 2);
  EXPECT_EQ(Histogram::BucketOf(4), 3);
  EXPECT_EQ(Histogram::BucketOf(~0ULL), Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::BucketBound(0), 0u);
  EXPECT_EQ(Histogram::BucketBound(1), 1u);
  EXPECT_EQ(Histogram::BucketBound(3), 7u);
  EXPECT_EQ(Histogram::BucketBound(Histogram::kBuckets - 1), ~0ULL);

  Histogram h;
  for (uint64_t v = 0; v < 100; ++v) h.Observe(v);
  Histogram::Snapshot s = h.Snap();
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.sum, 4950u);
  // The q-th observation lands in a power-of-two bucket; the quantile is
  // that bucket's inclusive upper bound.
  EXPECT_EQ(s.Quantile(0.5), 63u);   // rank 50 lives in (31, 63]
  EXPECT_EQ(s.Quantile(0.99), 127u);
  EXPECT_EQ(s.Quantile(0.0), 0u);
}

TEST(TelemetryHistogram, ConcurrentObserveWithSnapshotReader) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      Histogram::Snapshot s = h.Snap();
      EXPECT_LE(s.count, kThreads * kPerThread);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      for (uint64_t i = 0; i < kPerThread; ++i) h.Observe(i & 1023);
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(h.Snap().count, kThreads * kPerThread);
}

/// --- cross-thread work-op accounting (satellite fix) ------------------------

TEST(WorkOps, TotalAcrossThreadsSeesOtherThreadsAndExitedThreads) {
  uint64_t before = workops::TotalAcrossThreads();
  workops::Bump(7);
  std::thread t([] { workops::Bump(1000); });
  t.join();  // the thread's cell retires its count into the registry
  uint64_t after = workops::TotalAcrossThreads();
  EXPECT_GE(after - before, 1007u);
  // Per-thread Read() keeps its harness (delta) semantics and never sees
  // other threads' bumps.
  workops::Reset();
  EXPECT_EQ(workops::Read(), 0u);
  workops::Bump(3);
  EXPECT_EQ(workops::Read(), 3u);
  // A per-thread Reset must not make the global total go backwards.
  EXPECT_GE(workops::TotalAcrossThreads(), after);
}

/// --- snapshot serialization -------------------------------------------------

TEST(TelemetrySnapshot, PrometheusAndJsonRoundTripSameValues) {
  TelemetrySnapshot snap;
  snap.AddCounter("test_counter_total", 12345);
  snap.AddGauge("test_gauge", -7);
  snap.AddCounter("test_labeled_total", 0.123456789,
                  {{"relation", "orders"}, {"tier", "native"}});
  Histogram h;
  for (uint64_t v = 1; v <= 64; ++v) h.Observe(v);
  snap.AddHistogram("test_latency_ns", h.Snap(), {{"op", "deform"}});

  std::string prom = snap.ToPrometheusText();
  std::string json = snap.ToJson();

  // Same %.9g rendering lands in both serializations.
  EXPECT_NE(prom.find("test_counter_total 12345\n"), std::string::npos);
  EXPECT_NE(json.find("\"value\": 12345"), std::string::npos);
  EXPECT_NE(prom.find("test_gauge -7\n"), std::string::npos);
  EXPECT_NE(json.find("\"value\": -7"), std::string::npos);
  EXPECT_NE(prom.find("test_labeled_total{relation=\"orders\","
                      "tier=\"native\"} 0.123456789\n"),
            std::string::npos);
  EXPECT_NE(json.find("\"value\": 0.123456789"), std::string::npos);

  // Histogram expansion: type line, cumulative buckets, +Inf, sum, count.
  EXPECT_NE(prom.find("# TYPE test_latency_ns histogram"), std::string::npos);
  EXPECT_NE(prom.find("test_latency_ns_bucket{op=\"deform\",le=\"+Inf\"} 64"),
            std::string::npos);
  EXPECT_NE(prom.find("test_latency_ns_sum{op=\"deform\"} 2080"),
            std::string::npos);
  EXPECT_NE(prom.find("test_latency_ns_count{op=\"deform\"} 64"),
            std::string::npos);
  EXPECT_NE(json.find("\"count\": 64"), std::string::npos);
  EXPECT_NE(json.find("\"sum\": 2080"), std::string::npos);

  // Find() resolves by name and by labels.
  const telemetry::Sample* s = snap.Find("test_labeled_total",
                                         {{"tier", "native"}});
  ASSERT_NE(s, nullptr);
  EXPECT_DOUBLE_EQ(s->value, 0.123456789);
  EXPECT_EQ(snap.Find("missing"), nullptr);
}

TEST(TelemetrySnapshot, DatabaseSnapshotCarriesIoAndBeeMetrics) {
  ScratchDir dir;
  auto db = OpenDb(dir.path() + "/db", /*enable_bees=*/true,
                   /*tuple_bees=*/true);
  ASSERT_OK(tpch::CreateTpchTables(db.get()));
  ASSERT_OK(tpch::LoadTpchTable(db.get(), "region", 1.0));
  ASSERT_OK_AND_ASSIGN(uint64_t rows, [&]() -> Result<uint64_t> {
    auto ctx = db->MakeContext();
    TableInfo* t = db->catalog()->GetTable("region");
    SeqScan s(ctx.get(), t);
    return CountRows(&s);
  }());
  EXPECT_EQ(rows, 5u);

  ASSERT_OK(db->Checkpoint());  // flush dirty pages so pages_written moves
  TelemetrySnapshot snap = db->SnapshotTelemetry();
  const telemetry::Sample* written = snap.Find("microspec_pages_written_total");
  ASSERT_NE(written, nullptr);
  EXPECT_GT(written->value, 0);
  const telemetry::Sample* ops = snap.Find("microspec_work_ops_total");
  ASSERT_NE(ops, nullptr);
  EXPECT_GT(ops->value, 0);
  const telemetry::Sample* tier = snap.Find(
      "microspec_bee_relation_invocations_total",
      {{"relation", "region"}, {"tier", "program"}});
  ASSERT_NE(tier, nullptr);
  EXPECT_GT(tier->value, 0);
}

TEST(TelemetrySnapshot, DeformHistogramOnlyWhenEnabled) {
  ScratchDir dir;
  auto db = OpenDb(dir.path() + "/db", /*enable_bees=*/true,
                   /*tuple_bees=*/false);
  ASSERT_OK(tpch::CreateTpchTables(db.get()));
  ASSERT_OK(tpch::LoadTpchTable(db.get(), "nation", 1.0));
  auto scan = [&] {
    auto ctx = db->MakeContext();
    TableInfo* t = db->catalog()->GetTable("nation");
    SeqScan s(ctx.get(), t);
    MICROSPEC_CHECK(CountRows(&s).ok());
  };

  telemetry::SetEnabled(false);
  scan();
  TelemetrySnapshot off = db->SnapshotTelemetry();
  EXPECT_EQ(off.Find("microspec_bee_deform_latency_ns",
                     {{"relation", "nation"}}),
            nullptr);

  telemetry::SetEnabled(true);
  scan();
  TelemetrySnapshot on = db->SnapshotTelemetry();
  telemetry::SetEnabled(false);
  const telemetry::Sample* hist = on.Find(
      "microspec_bee_deform_latency_ns",
      {{"relation", "nation"}, {"tier", "program"}});
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->hist.count, 25u);  // 25 nations deformed while enabled
  EXPECT_GT(hist->hist.sum, 0u);
}

TEST(TextTable, AlignsColumnsAndRightAlignsNumerics) {
  telemetry::TextTable table;
  table.Header({"relation", "count"});
  table.Row({"lineitem", "12345"});
  table.Row({"r", "7"});
  std::string out = table.ToString();
  EXPECT_EQ(out,
            "relation  count\n"
            "---------------\n"
            "lineitem  12345\n"
            "r             7\n");
}

}  // namespace
}  // namespace microspec
