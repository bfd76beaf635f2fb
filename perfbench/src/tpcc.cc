// tpcc_durable: the default TPC-C mix (45/43/4/4/4) from one closed-loop
// terminal, WAL on with inline commits (group commit off), 2 warehouses,
// and a 512-frame pool below the ~1,100-page data, so dirty
// evictions and the WAL flush hook fire. The run ends with a simulated
// crash and a reopen, which measures restart recovery and the log bees.

#include <cmath>
#include <cstdio>
#include <map>
#include <tuple>

#include "common/rng.h"
#include "exec/plan_builder.h"
#include "workloads.h"
#include "workloads/tpcc/tpcc_schema.h"
#include "workloads/tpcc/tpcc_workload.h"

namespace perfbench {

using namespace microspec;  // NOLINT(google-build-using-namespace)

namespace {

constexpr size_t kPoolFrames = 512;
/// Transactions per second of --seconds on the reference host.
constexpr double kTxnPerSecond = 2500.0;

enum TxnType { kNewOrder, kPayment, kOrderStatus, kDelivery, kStockLevel,
               kNumTypes };
constexpr const char* kTxnNames[kNumTypes] = {
    "new_order", "payment", "order_status", "delivery", "stock_level"};

TxnType Draw(const tpcc::TpccMix& mix, Rng* rng) {
  int r = static_cast<int>(rng->Uniform(100));
  const int weights[kNumTypes] = {mix.new_order, mix.payment,
                                  mix.order_status, mix.delivery,
                                  mix.stock_level};
  for (int t = 0; t < kNumTypes; ++t) {
    if (r < weights[t]) return static_cast<TxnType>(t);
    r -= weights[t];
  }
  return kStockLevel;
}

Status RunTxn(tpcc::TpccWorkload* wl, TxnType type, ExecContext* ctx,
              Rng* rng) {
  switch (type) {
    case kNewOrder: return wl->NewOrder(ctx, *rng);
    case kPayment: return wl->Payment(ctx, *rng);
    case kOrderStatus: return wl->OrderStatus(ctx, *rng);
    case kDelivery: return wl->Delivery(ctx, *rng);
    default: return wl->StockLevel(ctx, *rng);
  }
}

/// Drains a full scan of `table`, calling fn(values) per row.
template <typename Fn>
Status ScanTable(Database* db, const char* table, Fn&& fn) {
  TableInfo* info = db->catalog()->GetTable(table);
  if (info == nullptr) return Status::NotFound(table);
  auto ctx = db->MakeContext();
  OperatorPtr op = Plan::Scan(ctx.get(), info).Build();
  return ForEachRow(op.get(),
                    [&](const Datum* v, const bool*) { fn(v); });
}

/// Row counts of the growing relations plus the TPC-C consistency
/// conditions (spec 3.3.2.1-4) as violations.
struct TpccState {
  uint64_t orders = 0, orderlines = 0, neworders = 0, history = 0;
  std::vector<std::string> violations;

  bool SameCounts(const TpccState& o) const {
    return std::tie(orders, orderlines, neworders, history) ==
           std::tie(o.orders, o.orderlines, o.neworders, o.history);
  }
  std::string Counts() const {
    return std::to_string(orders) + " orders, " + std::to_string(orderlines) +
           " orderlines, " + std::to_string(neworders) + " new-orders, " +
           std::to_string(history) + " history rows";
  }
};

Result<TpccState> CheckTpcc(Database* db) {
  using Key = std::pair<int32_t, int32_t>;  // (w, d)
  struct District {
    double ytd = 0;
    int32_t next_o_id = 0;
    int32_t max_o_id = 0;
    int64_t ol_cnt_sum = 0;
    int64_t orderlines = 0;
    int32_t no_min = INT32_MAX, no_max = 0;
    int64_t neworders = 0;
  };
  std::map<int32_t, double> w_ytd;
  std::map<Key, District> d;
  TpccState s;
  MICROSPEC_RETURN_NOT_OK(ScanTable(db, "warehouse", [&](const Datum* v) {
    w_ytd[DatumToInt32(v[tpcc::kWId])] = DatumToFloat64(v[tpcc::kWYtd]);
  }));
  MICROSPEC_RETURN_NOT_OK(ScanTable(db, "district", [&](const Datum* v) {
    District& x = d[{DatumToInt32(v[tpcc::kDWId]), DatumToInt32(v[tpcc::kDId])}];
    x.ytd = DatumToFloat64(v[tpcc::kDYtd]);
    x.next_o_id = DatumToInt32(v[tpcc::kDNextOId]);
  }));
  MICROSPEC_RETURN_NOT_OK(ScanTable(db, "torders", [&](const Datum* v) {
    District& x = d[{DatumToInt32(v[tpcc::kOWId]), DatumToInt32(v[tpcc::kODId])}];
    x.max_o_id = std::max(x.max_o_id, DatumToInt32(v[tpcc::kOId]));
    x.ol_cnt_sum += DatumToInt32(v[tpcc::kOOlCnt]);
    ++s.orders;
  }));
  MICROSPEC_RETURN_NOT_OK(ScanTable(db, "orderline", [&](const Datum* v) {
    ++d[{DatumToInt32(v[tpcc::kOlWId]), DatumToInt32(v[tpcc::kOlDId])}]
          .orderlines;
    ++s.orderlines;
  }));
  MICROSPEC_RETURN_NOT_OK(ScanTable(db, "neworder", [&](const Datum* v) {
    District& x =
        d[{DatumToInt32(v[tpcc::kNoWId]), DatumToInt32(v[tpcc::kNoDId])}];
    const int32_t o = DatumToInt32(v[tpcc::kNoOId]);
    x.no_min = std::min(x.no_min, o);
    x.no_max = std::max(x.no_max, o);
    ++x.neworders;
    ++s.neworders;
  }));
  MICROSPEC_RETURN_NOT_OK(
      ScanTable(db, "history", [&](const Datum*) { ++s.history; }));

  std::map<int32_t, double> d_ytd_sum;
  for (const auto& [key, x] : d) {
    const std::string where = "w" + std::to_string(key.first) + " d" +
                              std::to_string(key.second) + ": ";
    d_ytd_sum[key.first] += x.ytd;
    if (x.next_o_id - 1 != x.max_o_id) {
      s.violations.push_back(where + "d_next_o_id - 1 != max(o_id)");
    }
    if (x.neworders > 0 && x.no_max != x.max_o_id) {
      s.violations.push_back(where + "max(no_o_id) != max(o_id)");
    }
    if (x.neworders > 0 && x.no_max - x.no_min + 1 != x.neworders) {
      s.violations.push_back(where + "new-order ids are not contiguous");
    }
    if (x.ol_cnt_sum != x.orderlines) {
      s.violations.push_back(where + "sum(o_ol_cnt) != count(orderline)");
    }
  }
  for (const auto& [w, ytd] : w_ytd) {
    if (std::fabs(ytd - d_ytd_sum[w]) > 1e-6 * std::max(1.0, ytd)) {
      s.violations.push_back("w" + std::to_string(w) +
                             ": w_ytd != sum(d_ytd)");
    }
  }
  return s;
}

DatabaseOptions TpccOptions(const std::string& dir) {
  DatabaseOptions opts = BeeDatabaseOptions(dir);
  opts.buffer_pool_frames = kPoolFrames;
  opts.wal_enabled = true;
  // Each commit writes and syncs the log itself. With group commit, every
  // one of a transaction's ~17 commits handed off to the flusher thread
  // and back: 66 context switches per transaction, whose cost on the
  // reference VM drifts on its own. The median p50 of two ten-seed sets
  // 15 minutes apart differed by 32% while TPC-H's held within 7%.
  opts.wal_group_commit = false;
  return opts;
}

}  // namespace

Status RunTpcc(const RunConfig& config, Report* report, TraceSink* traces) {
  using trace::SpanKind;
  using trace::SpanScope;
  tpcc::TpccConfig tcfg;
  tcfg.seed = config.seed;
  const std::string dir = config.work_dir + "/tpcc";

  // Set-up: open, schema, load, forge drain. Each call replaces `db`; the
  // transactions run on the last one before them. Set-up and recovery
  // record their steps in one benchmark trace.
  const std::shared_ptr<trace::Trace> setup_trace = traces->NewTrace();
  Samples setup;
  std::unique_ptr<Database> db;
  auto set_up = [&]() -> Status {
    db.reset();
    RemoveTree(dir);
    SpanScope span(Root(setup_trace), SpanKind::kStatement, "setup");
    const uint64_t t0 = NowNs();
    {
      SpanScope s(span.context(), SpanKind::kStatement, "setup.open");
      db = OpenOrDie(TpccOptions(dir), "tpcc database");
    }
    {
      SpanScope s(span.context(), SpanKind::kDdl, "setup.schema");
      MICROSPEC_RETURN_NOT_OK(tpcc::CreateTpccTables(db.get()));
    }
    {
      SpanScope s(span.context(), SpanKind::kStatement, "setup.load");
      tpcc::TpccWorkload loader(db.get(), tcfg);
      MICROSPEC_RETURN_NOT_OK(loader.Load());
    }
    {
      SpanScope s(span.context(), SpanKind::kStatement, "setup.forge_drain");
      db->QuiesceBees();
    }
    setup.Add(static_cast<double>(NowNs() - t0) / 1e9);
    return Status::OK();
  };
  for (int k = 0; k < kSetupsBefore; ++k) MICROSPEC_RETURN_NOT_OK(set_up());
  const bee::ForgeStats forge = db->bees()->stats().forge;

  tpcc::TpccWorkload wl(db.get(), tcfg);
  const tpcc::TpccMix mix = tpcc::TpccMix::Default();
  const uint64_t txns = WorkFor(config.seconds, kTxnPerSecond, 1000);
  Rng rng(config.seed * 0x9E3779B97F4A7C15ULL + 7);
  auto ctx = db->MakeContext();
  Samples all, traced_ms;
  Samples by_type[kNumTypes];
  uint64_t failed = 0, io_wait_ns = 0;
  const EngineCounters counters0 = EngineCounters::Read(db.get());
  for (uint64_t i = 0; i < txns; ++i) {
    const TxnType type = Draw(mix, &rng);
    // A traced run alternates traced and untraced transactions. A traced
    // one runs under a forced engine trace, whose root span is the
    // benchmark's transaction span and which keeps the page-I/O waits.
    const bool is_traced = config.trace && i % 2 == 0;
    std::shared_ptr<trace::Trace> tr;
    uint32_t root = 0;
    if (is_traced) {
      tr = db->tracer()->StartForced();
      root = tr->Begin(0, SpanKind::kStatement,
                       std::string("txn.") + kTxnNames[type]);
    }
    trace::ThreadTraceScope scope(tr.get(), root);
    const uint64_t t0 = NowNs();
    Status st = RunTxn(&wl, type, ctx.get(), &rng);
    const uint64_t t1 = NowNs();
    if (!st.ok()) ++failed;
    if (is_traced) {
      tr->End(root);
      const std::vector<trace::Span> recorded = tr->Snapshot();
      for (const trace::Span& s : recorded) {
        if (s.wait == trace::WaitKind::kPageIo && s.end_ns > s.start_ns) {
          io_wait_ns += s.end_ns - s.start_ns;
        }
      }
      if (recorded.size() > 1) traces->Add(tr);  // waits to show
      traced_ms.Add(Ms(t1 - t0));
    } else {
      all.Add(Ms(t1 - t0));
      by_type[type].Add(Ms(t1 - t0));
    }
  }
  const EngineCounters counters1 = EngineCounters::Read(db.get());
  report->Ops(txns, failed);

  // Output checks: the row counts at the crash (the catalog's in-memory
  // tuple counts: a scan here would write back the dirty pages that restart
  // recovery is meant to redo) must equal those scanned after restart
  // recovery, and the recovered database must be consistent.
  TpccState before;
  const std::pair<const char*, uint64_t*> counted[] = {
      {"torders", &before.orders},
      {"orderline", &before.orderlines},
      {"neworder", &before.neworders},
      {"history", &before.history}};
  for (const auto& [table, count] : counted) {
    *count = db->catalog()->GetTable(table)->tuple_count();
  }
  const double db_size = TreeSizeMb(dir);
  db->SimulateCrashForTests();
  db.reset();
  uint64_t recovery_ns = 0;
  {
    SpanScope s(Root(setup_trace), SpanKind::kStatement, "recovery.reopen");
    const uint64_t t0 = NowNs();
    db = OpenOrDie(TpccOptions(dir), "tpcc database after the crash");
    recovery_ns = NowNs() - t0;
  }
  const RecoveryStats rec = db->last_recovery();
  Result<TpccState> after = Status::Internal("unchecked");
  {
    SpanScope s(Root(setup_trace), SpanKind::kStatement,
                "check.after_recovery");
    after = CheckTpcc(db.get());
  }
  if (!after.ok()) {
    report->CheckFailed(
        "consistency scan failed: " + after.status().ToString(), txns);
  } else {
    for (const std::string& v : after->violations) {
      report->CheckFailed("after recovery: " + v, txns);
    }
    if (!before.SameCounts(*after)) {
      report->CheckFailed("row counts changed across the crash: " +
                              before.Counts() + " before, " +
                              after->Counts() + " after",
                          txns);
    }
    report->Note("rows before and after the crash: " + after->Counts());
  }

  const double tput = OpsPerSecond(all);
  report->EndToEnd("throughput_ops_s", "1/s", tput);
  report->EndToEnd("latency_p50_ms", "ms", all.Median(), &all);
  report->TailLatency(all);
  report->EndToEnd("peak_rss_mb", "MB", PeakRssMb());
  report->EndToEnd("db_size_mb", "MB", db_size);
  report->Note("tpcc_durable: " + std::to_string(txns) +
               " transactions, 1 terminal, pool " +
               std::to_string(kPoolFrames) + " frames");

  ReportCounters(counters0, counters1, txns, forge, report);
  const double recovery_s = static_cast<double>(recovery_ns) / 1e9;
  report->Layer("storage.recovery.seconds", recovery_s);
  report->Layer("storage.recovery.records_scanned",
                static_cast<double>(rec.records_scanned));
  report->Layer("storage.recovery.redo_applied",
                static_cast<double>(rec.redo_applied));
  report->Layer("storage.recovery.redo_skipped",
                static_cast<double>(rec.redo_skipped));
  report->Layer("storage.recovery.txns_undone",
                static_cast<double>(rec.txns_undone));
  report->Layer("storage.recovery.redo_records_per_s",
                static_cast<double>(rec.redo_applied) / recovery_s);
  for (int t = 0; t < kNumTypes; ++t) {
    report->Layer(std::string("tpcc.") + kTxnNames[t] + "_p50_ms",
                  by_type[t].Median());
  }
  if (traced_ms.size() > 0) {
    report->Layer("storage.page_io_wait_ms",
                  Ms(io_wait_ns) / static_cast<double>(traced_ms.size()));
    const double traced_tput = OpsPerSecond(traced_ms);
    report->Layer("trace.overhead_pct", (tput - traced_tput) / tput * 100.0);
  }
  for (int k = 0; k < kSetupsAfter; ++k) MICROSPEC_RETURN_NOT_OK(set_up());
  report->EndToEnd("setup_s", "s", setup.Median(), &setup);
  db.reset();
  RemoveTree(dir);
  return Status::OK();
}

}  // namespace perfbench
