// Figure 5: TPC-H per-query run-time improvement with a COLD cache. The
// buffer pool is dropped before every run, so each page access pays a disk
// read; tuple bees shrink lineitem/orders/part/nation, which is why q9 (six
// relation scans) gains ~17.4% in the paper. Paper: 0.6%..32.8%, Avg1 12.9%,
// Avg2 22.3%. Page-read counts are reported to expose the I/O mechanism.
// `--json out.json` (or BENCH_JSON) also writes per-query stock/bees
// seconds and pages read plus Avg1/Avg2 as a BenchReport.

#include <cstdio>
#include <string>

#include "bench_util.h"

namespace microspec {
namespace {

using benchutil::BenchEnv;
using benchutil::ImprovementPct;
using benchutil::RunTpchQuery;

void Run(int argc, char** argv) {
  BenchEnv env;
  benchutil::PrintHeader(
      "Figure 5: TPC-H run time improvement (cold cache, all bees)", env);
  benchutil::BenchReport report("tpch_cold", env);

  auto stock = benchutil::MakeTpchDb(env, "stock", false, false);
  auto bee = benchutil::MakeTpchDb(env, "bee", true, true);

  std::printf("%-5s %12s %12s %9s %12s %12s\n", "query", "stock(ms)",
              "bees(ms)", "improve", "stockreads", "beereads");
  double sum_stock = 0;
  double sum_bee = 0;
  double sum_pct = 0;
  for (int q = 1; q <= tpch::kNumTpchQueries; ++q) {
    uint64_t stock_reads = 0;
    uint64_t bee_reads = 0;
    std::vector<double> t = benchutil::PaperMeanMulti(
        env.reps,
        {[&] {
           MICROSPEC_CHECK(stock->DropCaches().ok());
           stock->io_stats()->Reset();
           RunTpchQuery(stock.get(), SessionOptions::Stock(), q);
           stock_reads = stock->io_stats()->pages_read.Value();
         },
         [&] {
           MICROSPEC_CHECK(bee->DropCaches().ok());
           bee->io_stats()->Reset();
           RunTpchQuery(bee.get(), SessionOptions::AllBees(), q);
           bee_reads = bee->io_stats()->pages_read.Value();
         }});
    double st = t[0];
    double bt = t[1];
    double pct = ImprovementPct(st, bt);
    sum_stock += st;
    sum_bee += bt;
    sum_pct += pct;
    std::printf("q%-4d %12.2f %12.2f %8.1f%% %12llu %12llu\n", q, st * 1e3,
                bt * 1e3, pct, static_cast<unsigned long long>(stock_reads),
                static_cast<unsigned long long>(bee_reads));
    std::string q_name = "q" + std::to_string(q);
    report.Add("stock", q_name + "_seconds", st);
    report.Add("bees", q_name + "_seconds", bt);
    report.Add("stock", q_name + "_pages_read",
               static_cast<double>(stock_reads));
    report.Add("bees", q_name + "_pages_read",
               static_cast<double>(bee_reads));
  }
  double avg1 = sum_pct / tpch::kNumTpchQueries;
  double avg2 = ImprovementPct(sum_stock, sum_bee);
  std::printf("\nAvg1 (mean of per-query improvements): %.1f%%  (paper: 12.9%%)\n",
              avg1);
  std::printf("Avg2 (improvement of total time):      %.1f%%  (paper: 22.3%%)\n",
              avg2);
  report.Add("bees", "avg1_mean_improvement_pct", avg1);
  report.Add("bees", "avg2_total_improvement_pct", avg2);
  report.WriteIfRequested(argc, argv);
}

}  // namespace
}  // namespace microspec

int main(int argc, char** argv) {
  microspec::Run(argc, argv);
  return 0;
}
