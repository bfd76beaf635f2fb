// Figure 4: TPC-H per-query run-time improvement with a warm cache, all bee
// routines enabled (GCL + EVP + EVJ + tuple bees) vs the stock engine.
// Paper: improvements of 1.4%..32.8%, Avg1 12.4% (per-query mean),
// Avg2 23.7% (total-time ratio).
//
// With --trace-gate it instead verifies that instrumentation costs nothing
// when off: the full query suite is timed with telemetry off and on, then
// with tracing off and on (full per-query span trees), each pair
// interleaved, and the run fails if either OFF path is more than
// kTraceGateTolPct (2) percent slower than its ON path. With --batch-gate it
// fails if the page-batched warm scan is more than kBatchGateTolPct (5)
// percent slower than the scalar pipeline. Both gates retry a few times to
// damp scheduler noise; both are wired into scripts/check.sh.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>

#include "bench_util.h"
#include "common/counters.h"
#include "common/tracing.h"
#include "exec/batch.h"
#include "exec/plan_builder.h"

namespace microspec {
namespace {

using benchutil::BenchEnv;
using benchutil::ImprovementPct;
using benchutil::RunTpchQuery;

/// Gate tolerances: how much slower (percent) the checked path may be.
constexpr double kBatchGateTolPct = 5.0;
constexpr double kTraceGateTolPct = 2.0;

void Run(int argc, char** argv) {
  BenchEnv env;
  benchutil::PrintHeader(
      "Figure 4: TPC-H run time improvement (warm cache, all bees)", env);
  benchutil::BenchReport report("tpch_warm", env);

  auto stock = benchutil::MakeTpchDb(env, "stock", false, false);
  auto bee = benchutil::MakeTpchDb(env, "bee", true, true);

  std::printf("%-5s %12s %12s %9s   %s\n", "query", "stock(ms)", "bees(ms)",
              "improve", "analog");
  double sum_stock = 0;
  double sum_bee = 0;
  double sum_pct = 0;
  for (int q = 1; q <= tpch::kNumTpchQueries; ++q) {
    // Warm both caches once, then time with interleaved repetitions so
    // clock drift cannot bias either configuration.
    RunTpchQuery(stock.get(), SessionOptions::Stock(), q);
    RunTpchQuery(bee.get(), SessionOptions::AllBees(), q);
    std::vector<double> t = benchutil::PaperMeanMulti(
        env.reps,
        {[&] { RunTpchQuery(stock.get(), SessionOptions::Stock(), q); },
         [&] { RunTpchQuery(bee.get(), SessionOptions::AllBees(), q); }});
    double st = t[0];
    double bt = t[1];
    double pct = ImprovementPct(st, bt);
    sum_stock += st;
    sum_bee += bt;
    sum_pct += pct;
    std::printf("q%-4d %12.2f %12.2f %8.1f%%   %s\n", q, st * 1e3, bt * 1e3,
                pct, tpch::TpchQueryDescription(q));
    std::string metric = "q" + std::to_string(q) + "_seconds";
    report.Add("stock", metric, st);
    report.Add("bees", metric, bt);
  }
  std::printf("\nAvg1 (mean of per-query improvements): %.1f%%  (paper: 12.4%%)\n",
              sum_pct / tpch::kNumTpchQueries);
  std::printf("Avg2 (improvement of total time):      %.1f%%  (paper: 23.7%%)\n",
              ImprovementPct(sum_stock, sum_bee));
  report.Add("bees", "avg1_mean_improvement_pct",
             sum_pct / tpch::kNumTpchQueries);
  report.Add("bees", "avg2_total_improvement_pct",
             ImprovementPct(sum_stock, sum_bee));
  report.AttachTelemetry(bee->SnapshotTelemetry());
  report.WriteIfRequested(argc, argv);
}

/// --dop N: per-dop scaling of morsel-driven parallel execution on the
/// bee-enabled engine. Times every TPC-H query at dop 1 and dop N
/// (interleaved), plus a pure warm-scan metric — a group-less aggregate over
/// the full lineitem relation, the shape where morsel parallelism is pure
/// scan/deform fan-out — and reports the scan speedup.
void RunDopScaling(int argc, char** argv, int dop) {
  BenchEnv env;
  benchutil::PrintHeader(
      "Parallel scaling: TPC-H warm cache at dop " + std::to_string(dop), env);
  benchutil::BenchReport report("tpch_warm_dop", env);
  const std::string cfg1 = "dop1";
  const std::string cfgN = "dop" + std::to_string(dop);

  auto bee = benchutil::MakeTpchDb(env, "bee", true, true);
  TableInfo* lineitem = bee->catalog()->GetTable("lineitem");
  MICROSPEC_CHECK(lineitem != nullptr);

  // Warm-scan metric: count(*) + sum(l_extendedprice) over lineitem — one
  // full scan, no join/sort stages to serialize on.
  auto warm_scan = [&](int d) {
    auto ctx = bee->MakeContext(bee->DefaultSession(), d);
    Plan plan = Plan::Scan(ctx.get(), lineitem);
    plan.GroupBy({}, AggList(Ag(AggSpec::CountStar(), "n"),
                             Ag(AggSpec::Sum(plan.var("l_extendedprice")),
                                "total")));
    OperatorPtr op = std::move(plan).Build();
    auto rows = CountRows(op.get());
    MICROSPEC_CHECK(rows.ok() && rows.value() == 1);
  };
  warm_scan(1);  // warm the cache (and the executor pool via dop)
  warm_scan(dop);
  std::vector<double> scan_t = benchutil::PaperMeanMulti(
      env.reps, {[&] { warm_scan(1); }, [&] { warm_scan(dop); }});
  double speedup = scan_t[1] > 0 ? scan_t[0] / scan_t[1] : 0;
  std::printf("warm scan: dop1 %.2f ms, dop%d %.2f ms -> %.2fx\n\n",
              scan_t[0] * 1e3, dop, scan_t[1] * 1e3, speedup);
  report.Add(cfg1, "warm_scan_seconds", scan_t[0]);
  report.Add(cfgN, "warm_scan_seconds", scan_t[1]);
  report.Add(cfgN, "warm_scan_speedup", speedup);

  std::printf("%-5s %12s %12s %9s   %s\n", "query", "dop1(ms)",
              (cfgN + "(ms)").c_str(), "speedup", "analog");
  double sum_1 = 0;
  double sum_n = 0;
  for (int q = 1; q <= tpch::kNumTpchQueries; ++q) {
    RunTpchQuery(bee.get(), SessionOptions::AllBees(), q, 1);
    RunTpchQuery(bee.get(), SessionOptions::AllBees(), q, dop);
    std::vector<double> t = benchutil::PaperMeanMulti(
        env.reps,
        {[&] { RunTpchQuery(bee.get(), SessionOptions::AllBees(), q, 1); },
         [&] { RunTpchQuery(bee.get(), SessionOptions::AllBees(), q, dop); }});
    sum_1 += t[0];
    sum_n += t[1];
    std::printf("q%-4d %12.2f %12.2f %8.2fx   %s\n", q, t[0] * 1e3,
                t[1] * 1e3, t[1] > 0 ? t[0] / t[1] : 0,
                tpch::TpchQueryDescription(q));
    std::string metric = "q" + std::to_string(q) + "_seconds";
    report.Add(cfg1, metric, t[0]);
    report.Add(cfgN, metric, t[1]);
  }
  std::printf("\ntotal: dop1 %.1f ms, dop%d %.1f ms -> %.2fx\n", sum_1 * 1e3,
              dop, sum_n * 1e3, sum_n > 0 ? sum_1 / sum_n : 0);
  report.Add(cfgN, "total_speedup", sum_n > 0 ? sum_1 / sum_n : 0);
  report.AttachTelemetry(bee->SnapshotTelemetry());
  report.WriteIfRequested(argc, argv);
}

/// --batch: batch-size sweep of the warm scan-aggregate (count + sum over
/// the full lineitem relation) on the bee-enabled engine. Each configuration
/// runs the same NextBatch() pipeline at a different RowBatch capacity —
/// batch1 is the degenerate one-row batch, batchpage is a full 8 KiB page's
/// worth of tuples, the unit the GCL-B bee deforms in one call. Reports
/// rows/sec and per-tuple work-ops (the paper's machine-independent cost
/// model) per configuration, so the JSON shows both the wall-clock speedup
/// and the amortized bookkeeping that produces it.
void RunBatchSweep(int argc, char** argv) {
  BenchEnv env;
  benchutil::PrintHeader(
      "Batch execution: warm scan-aggregate vs batch size", env);
  benchutil::BenchReport report("tpch_warm_batch", env);

  auto bee = benchutil::MakeTpchDb(env, "bee", true, true);
  // The sweep measures the steady state: every native (GCL-B) compile has
  // promoted before the first timed repetition.
  bee->QuiesceBees();
  TableInfo* lineitem = bee->catalog()->GetTable("lineitem");
  MICROSPEC_CHECK(lineitem != nullptr);

  auto warm_scan = [&](int batch_rows) {
    auto ctx = bee->MakeContext();
    ctx->set_batch(batch_rows);
    Plan plan = Plan::Scan(ctx.get(), lineitem);
    plan.GroupBy({}, AggList(Ag(AggSpec::CountStar(), "n"),
                             Ag(AggSpec::Sum(plan.var("l_extendedprice")),
                                "total")));
    OperatorPtr op = std::move(plan).Build();
    auto rows = CountRows(op.get());
    MICROSPEC_CHECK(rows.ok() && rows.value() == 1);
  };

  uint64_t nrows = 0;
  {
    auto ctx = bee->MakeContext();
    Plan plan = Plan::Scan(ctx.get(), lineitem);
    OperatorPtr op = std::move(plan).Build();
    auto rows = CountRows(op.get());
    MICROSPEC_CHECK(rows.ok());
    nrows = rows.value();
  }

  struct Config {
    int batch_rows;
    std::string name;
  };
  const Config configs[] = {{1, "batch1"},
                            {64, "batch64"},
                            {256, "batch256"},
                            {kMaxTuplesPerPage, "batchpage"}};
  const int ncfg = 4;

  // Per-tuple work-ops per configuration, measured on a dedicated pass so
  // the timed repetitions below stay untouched. TotalAcrossThreads is
  // monotonic and process-wide, so the delta is exact even if the forge
  // bumped counters earlier.
  double workops_per_tuple[4];
  for (int i = 0; i < ncfg; ++i) {
    warm_scan(configs[i].batch_rows);  // warm cache + steady tier
    uint64_t before = workops::TotalAcrossThreads();
    warm_scan(configs[i].batch_rows);
    workops_per_tuple[i] =
        nrows > 0 ? static_cast<double>(workops::TotalAcrossThreads() - before) /
                        static_cast<double>(nrows)
                  : 0;
  }

  std::vector<std::function<void()>> fns;
  for (int i = 0; i < ncfg; ++i) {
    int n = configs[i].batch_rows;
    fns.push_back([&warm_scan, n] { warm_scan(n); });
  }
  std::vector<double> t = benchutil::PaperMeanMulti(env.reps, fns);

  std::printf("%-10s %12s %14s %12s %10s\n", "config", "time(ms)",
              "rows/sec", "workops/row", "speedup");
  for (int i = 0; i < ncfg; ++i) {
    double rps = t[i] > 0 ? static_cast<double>(nrows) / t[i] : 0;
    double speedup = t[i] > 0 ? t[0] / t[i] : 0;
    std::printf("%-10s %12.2f %14.0f %12.2f %9.2fx\n",
                configs[i].name.c_str(), t[i] * 1e3, rps, workops_per_tuple[i],
                speedup);
    report.Add(configs[i].name, "warm_scan_seconds", t[i]);
    report.Add(configs[i].name, "warm_scan_rows_per_sec", rps);
    report.Add(configs[i].name, "workops_per_tuple", workops_per_tuple[i]);
    report.Add(configs[i].name, "speedup_vs_batch1", speedup);
  }
  report.AttachTelemetry(bee->SnapshotTelemetry());
  report.WriteIfRequested(argc, argv);
}

/// --batch-gate: fails (exit 1) if the batched (full-page) warm scan is
/// consistently slower than the scalar row-at-a-time pipeline on the same
/// build (by more than kBatchGateTolPct percent) — batching must never cost
/// throughput. Interleaved and retried like the trace gate; wired into
/// scripts/check.sh.
int RunBatchGate() {
  BenchEnv env;
  benchutil::PrintHeader(
      "Batch gate: page-batched warm scan must not lose to scalar", env);
  auto bee = benchutil::MakeTpchDb(env, "gate", true, true);
  bee->QuiesceBees();
  TableInfo* lineitem = bee->catalog()->GetTable("lineitem");
  MICROSPEC_CHECK(lineitem != nullptr);

  auto warm_scan = [&](int batch_rows) {
    auto ctx = bee->MakeContext();
    ctx->set_batch(batch_rows);
    Plan plan = Plan::Scan(ctx.get(), lineitem);
    plan.GroupBy({}, AggList(Ag(AggSpec::CountStar(), "n"),
                             Ag(AggSpec::Sum(plan.var("l_extendedprice")),
                                "total")));
    OperatorPtr op = std::move(plan).Build();
    auto rows = CountRows(op.get());
    MICROSPEC_CHECK(rows.ok() && rows.value() == 1);
  };
  warm_scan(0);
  warm_scan(kMaxTuplesPerPage);

  for (int attempt = 1; attempt <= 3; ++attempt) {
    double t_scalar = 0;
    double t_batch = 0;
    benchutil::PaperMeanPair(
        env.reps, [&] { warm_scan(0); },
        [&] { warm_scan(kMaxTuplesPerPage); }, &t_scalar, &t_batch);
    std::printf("attempt %d: scalar %.2f ms, batched %.2f ms (%.2fx, "
                "tolerance %.1f%%)\n",
                attempt, t_scalar * 1e3, t_batch * 1e3,
                t_batch > 0 ? t_scalar / t_batch : 0, kBatchGateTolPct);
    if (t_batch <= t_scalar * (1.0 + kBatchGateTolPct / 100.0)) {
      std::printf("batch gate PASS\n");
      return 0;
    }
  }
  std::printf("batch gate FAIL: page-batched warm scan is consistently "
              "slower than the scalar pipeline\n");
  return 1;
}

/// --trace-gate: fails (exit 1) if an instrument costs anything while off.
/// Each instrument's off path is timed against its own on path:
///   * telemetry: the suite with telemetry::SetEnabled(false) vs (true);
///   * tracing: the stock bench path (trace_sample_n = 0: null
///     TraceContext — exactly what every figure harness runs) vs the same
///     suite with a forced trace installed on every query context, i.e.
///     full per-query span trees.
/// OFF must not be slower than ON by more than kTraceGateTolPct percent:
/// tracing's off-path residue is one null test on per-query paths and one
/// thread-local load on stall paths. Each check is interleaved
/// (off,on,off,on) and gets up to three attempts — a real always-on cost
/// fails every attempt. Wired into scripts/check.sh.
int RunTraceGate() {
  BenchEnv env;
  benchutil::PrintHeader("Trace gate: telemetry-off and sampling-off must "
                         "stay free", env);
  auto db = benchutil::MakeTpchDb(env, "gate", true, true);

  auto run_off = [&] {
    for (int q = 1; q <= tpch::kNumTpchQueries; ++q) {
      RunTpchQuery(db.get(), SessionOptions::AllBees(), q);
    }
  };
  // The traced side mirrors what sqlfe does for a sampled statement:
  // statement root span, default parent for bee summaries, thread-local
  // install for wait attribution.
  auto run_traced = [&] {
    for (int q = 1; q <= tpch::kNumTpchQueries; ++q) {
      auto ctx = db->MakeContext(SessionOptions::AllBees());
      std::shared_ptr<trace::Trace> tr = db->tracer()->StartForced();
      uint32_t root = tr->Begin(0, trace::SpanKind::kStatement,
                                "q" + std::to_string(q));
      tr->SetDefaultParent(root);
      ctx->set_trace(trace::TraceContext{tr.get(), root});
      trace::ThreadTraceScope scope(tr.get(), root);
      auto plan = tpch::BuildTpchQuery(q, ctx.get());
      MICROSPEC_CHECK(plan.ok());
      auto rows = CountRows(plan->get());
      MICROSPEC_CHECK(rows.ok());
      tr->End(root);
      db->tracer()->Publish(std::move(tr));
    }
  };
  struct Check {
    const char* instrument;
    std::function<void()> off;
    std::function<void()> on;
  };
  const Check checks[] = {
      {"telemetry",
       [&] {
         telemetry::SetEnabled(false);
         run_off();
       },
       [&] {
         telemetry::SetEnabled(true);
         run_off();
       }},
      {"trace", run_off, run_traced},
  };
  run_off();     // warm the cache
  run_traced();  // and the traced path's allocations

  bool pass = true;
  for (const Check& check : checks) {
    bool ok = false;
    for (int attempt = 1; attempt <= 3 && !ok; ++attempt) {
      double t_off = 0;
      double t_on = 0;
      benchutil::PaperMeanPair(env.reps, check.off, check.on, &t_off, &t_on);
      telemetry::SetEnabled(false);
      double delta_pct = t_on > 0 ? (t_off - t_on) / t_on * 100.0 : 0;
      std::printf("%s attempt %d: off %.2f ms, on %.2f ms (off-on delta "
                  "%+.2f%%, tolerance %.1f%%)\n",
                  check.instrument, attempt, t_off * 1e3, t_on * 1e3,
                  delta_pct, kTraceGateTolPct);
      ok = t_off <= t_on * (1.0 + kTraceGateTolPct / 100.0);
    }
    std::printf("%s gate %s\n", check.instrument,
                ok ? "PASS"
                   : "FAIL: the off path is consistently slower than on");
    pass = pass && ok;
  }
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace microspec

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--trace-gate") == 0) {
    return microspec::RunTraceGate();
  }
  if (argc > 1 && std::strcmp(argv[1], "--batch-gate") == 0) {
    return microspec::RunBatchGate();
  }
  if (argc > 1 && std::strcmp(argv[1], "--batch") == 0) {
    microspec::RunBatchSweep(argc, argv);
    return 0;
  }
  if (argc > 2 && std::strcmp(argv[1], "--dop") == 0) {
    int dop = std::atoi(argv[2]);
    if (dop < 2) {
      std::fprintf(stderr, "--dop requires an integer >= 2\n");
      return 2;
    }
    microspec::RunDopScaling(argc, argv, dop);
    return 0;
  }
  microspec::Run(argc, argv);
  return 0;
}
