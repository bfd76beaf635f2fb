#ifndef MICROSPEC_BENCH_BENCH_UTIL_H_
#define MICROSPEC_BENCH_BENCH_UTIL_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bee/native_jit.h"
#include "common/telemetry.h"
#include "engine/database.h"
#include "workloads/tpch/dbgen.h"
#include "workloads/tpch/tpch_queries.h"
#include "workloads/tpch/tpch_schema.h"

namespace microspec::benchutil {

/// Shared environment for the figure harnesses. Scale and repetition are
/// env-overridable so the same binaries serve CI smoke runs and full
/// reproductions:
///   MICROSPEC_SF            TPC-H scale factor (default 0.02)
///   MICROSPEC_REPS          timed repetitions per measurement (default 3;
///                           the paper used 10 after dropping hi/lo of 12)
///   MICROSPEC_BACKEND       "program" (default) or "native"
struct BenchEnv {
  double sf;
  int reps;
  bee::BeeBackend backend;
  std::string scratch;  // fresh temp dir, removed by the destructor

  BenchEnv();
  ~BenchEnv();
};

/// Opens a database under `env.scratch`/`name`. `share_query_bees` turns on
/// the process-wide query-bee cache (the server benches use it; the figure
/// harnesses keep the paper's per-query specialization accounting).
std::unique_ptr<Database> OpenBenchDb(const BenchEnv& env,
                                      const std::string& name,
                                      bool enable_bees, bool tuple_bees,
                                      size_t pool_frames = 32768,
                                      bool share_query_bees = false);

/// Creates + loads all TPC-H tables at env.sf.
std::unique_ptr<Database> MakeTpchDb(const BenchEnv& env,
                                     const std::string& name,
                                     bool enable_bees, bool tuple_bees,
                                     bool share_query_bees = false);

/// Runs `fn` (reps + 2) times, drops the fastest and slowest, returns the
/// mean of the rest in seconds — the paper's measurement protocol (§VI-A).
double PaperMeanSeconds(int reps, const std::function<void()>& fn);

/// Times two closures with interleaved repetitions (a,b,a,b,...) so clock
/// drift on a shared core cannot systematically bias one side; applies the
/// same drop-hi/lo-then-mean protocol to each series.
void PaperMeanPair(int reps, const std::function<void()>& a,
                   const std::function<void()>& b, double* a_seconds,
                   double* b_seconds);

/// N-way interleaved timing: each repetition runs every closure once in
/// order, so slow clock drift affects all configurations equally. Returns
/// the drop-hi/lo mean per closure.
std::vector<double> PaperMeanMulti(int reps,
                                   const std::vector<std::function<void()>>& fns);

/// Executes TPC-H query `q` once under `opts`; returns rows produced.
uint64_t RunTpchQuery(Database* db, const SessionOptions& opts, int q);

/// Same, at an explicit degree of parallelism (morsel-driven execution).
uint64_t RunTpchQuery(Database* db, const SessionOptions& opts, int q,
                      int dop);

/// Percentage improvement of `specialized` over `stock` (positive = faster).
inline double ImprovementPct(double stock, double specialized) {
  return stock <= 0 ? 0 : (stock - specialized) / stock * 100.0;
}

/// Median of a sample set (by copy; samples are small).
double Median(std::vector<double> samples);

/// Machine-readable results for the perf-trajectory files: harnesses record
/// (config, metric, value) entries and the report is written as JSON when
/// the user asks for it via `--json out.json` or the BENCH_JSON env var:
///
///   {"bench": "...", "scale_factor": ..., "reps": ..., "backend": "...",
///    "results": [{"config": "...", "metric": "...", "value": ...}, ...]}
///
/// Values are seconds unless the metric name says otherwise.
class BenchReport {
 public:
  BenchReport(std::string bench_name, const BenchEnv& env);

  void Add(const std::string& config, const std::string& metric,
           double value);

  /// Embeds a telemetry snapshot (tier counts, histogram percentiles, io
  /// stats, forge counters) in the report; the JSON gains a "telemetry" key
  /// holding the snapshot's own JSON tree.
  void AttachTelemetry(const telemetry::TelemetrySnapshot& snap);

  /// Resolves the output path from `--json <path>` argv or BENCH_JSON; when
  /// present, writes the report there and returns the path ("" otherwise).
  std::string WriteIfRequested(int argc, char** argv) const;

  /// Writes the report to `path` unconditionally.
  Status WriteJson(const std::string& path) const;

 private:
  struct Entry {
    std::string config;
    std::string metric;
    double value;
  };
  std::string name_;
  double sf_;
  int reps_;
  std::string backend_;
  std::vector<Entry> entries_;
  std::string telemetry_json_;  // empty until AttachTelemetry
};

/// Prints a separator + title for a figure harness.
void PrintHeader(const std::string& title, const BenchEnv& env);

}  // namespace microspec::benchutil

#endif  // MICROSPEC_BENCH_BENCH_UTIL_H_
