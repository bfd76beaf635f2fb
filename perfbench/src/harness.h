#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Shared pieces of the repo benchmark: run configuration, sample
// statistics, the metric report (end-to-end JSON line, per-layer tables,
// exact-count ledger) and the traced run's trace sink.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/tracing.h"
#include "engine/database.h"

namespace perfbench {

using microspec::Database;
using microspec::DatabaseOptions;
using microspec::Status;

/// One invocation of the benchmark binary.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch root for database directories, the exact-count ledger and the
  /// Chrome trace; lives inside the checkout.
  std::string work_dir;
  /// Directory holding the committed TPC-H result goldens.
  std::string golden_dir;
};

/// Steady-clock nanoseconds, the same clock the engine's spans use.
uint64_t NowNs();

inline double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

/// A set of measurements; quantiles interpolate linearly between order
/// statistics (the definition Python's statistics.quantiles uses with
/// method="inclusive").
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t size() const { return values_.size(); }
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double Sum() const;
  double Mean() const;
  /// Mean of the largest `share` of the values (at least one value).
  double TopMean(double share) const;

 private:
  std::vector<double> values_;
};

/// Operations per second of busy time: the count of `latency_ms` over their
/// sum. The reference host switches between a fast and a slow speed every
/// few seconds; over six TPC-H runs this mean spread half as much as the
/// median rate of equal blocks, which flips with the majority speed.
double OpsPerSecond(const Samples& latency_ms);

/// Geometric mean of positive values (0 when `values` is empty).
double GeoMean(const std::vector<double>& values);

/// Removes a directory tree (ignores a missing one).
void RemoveTree(const std::string& path);
/// Total size of the regular files under `path`, in MiB.
double TreeSizeMb(const std::string& path);
/// Peak resident set size of this process, in MiB.
double PeakRssMb();
/// Host-speed probe: wall time of a fixed integer loop, in ms. Recorded as
/// context for each run; it is never a gated metric.
double HostProbeMs();

/// True for a name in the canonical per-layer metric list.
bool IsLayerMetric(const std::string& name);

/// The traced run's engine traces, kept in memory and written as one Chrome
/// trace when the run ends. The benchmark records its own spans (set-up,
/// plan, exec, wire round trips) with trace::SpanScope in these traces: each
/// traced operation has its own trace, so the trace id (the Chrome pid) is
/// the operation id. Thread-safe (the wire clients add from their threads).
class TraceSink {
 public:
  explicit TraceSink(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// A new trace the benchmark owns (null when tracing is off, which makes
  /// every SpanScope on it a no-op), already added to the sink. Its id lies
  /// above any the engine's tracer hands out.
  std::shared_ptr<microspec::trace::Trace> NewTrace();
  /// Adds an engine trace (forced or sampled).
  void Add(std::shared_ptr<const microspec::trace::Trace> t);

  /// Writes trace::ChromeTraceJson over every trace, one pid per trace.
  Status WriteChromeJson(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  uint64_t next_id_ = uint64_t{1} << 32;
  std::vector<std::shared_ptr<const microspec::trace::Trace>> traces_;
};

/// The root context of `t` (a null trace gives a no-op context).
inline microspec::trace::TraceContext Root(
    const std::shared_ptr<microspec::trace::Trace>& t) {
  return microspec::trace::TraceContext{t.get(), 0};
}

/// Collects a run's results and prints them. End-to-end metrics go to the
/// final JSON line of an untraced run; per-layer metrics to that of a
/// traced run. Both print as tables, with sample counts and quartiles.
class Report {
 public:
  explicit Report(const RunConfig& config) : config_(config) {}

  /// An end-to-end metric with the samples it summarizes (may be null for a
  /// single measured value).
  void EndToEnd(const std::string& name, const std::string& unit,
                double value, const Samples* samples = nullptr);
  /// latency_tail_ms, with a note naming the statistic: p99 when at least
  /// ten samples lie beyond it, else the mean of the slowest tenth.
  void TailLatency(const Samples& latency_ms);

  /// A per-layer metric; it must be one of the names in the canonical
  /// per-layer list (harness.cc), which also marks the exact counts.
  void Layer(const std::string& name, double value);

  /// Operations attempted and failed (failed includes operations whose
  /// output check failed).
  void Ops(uint64_t attempted, uint64_t failed);
  /// A failed output check; `ops` operations are counted as failed.
  void CheckFailed(const std::string& what, uint64_t ops);

  /// Free-form context line printed above the tables.
  void Note(const std::string& line);

  /// Compares the exact counts against the ledger in work_dir (recording
  /// them on the first run of a seed), prints every table, and prints the
  /// result JSON as the last line of stdout.
  void Finish();

 private:
  struct E2E {
    std::string name;
    std::string unit;
    double value;
    bool has_samples;
    size_t n;
    double p25;
    double p50;
    double p75;
  };

  int CheckLedger();

  const RunConfig& config_;
  std::vector<E2E> e2e_;
  std::map<std::string, double> layers_;
  std::vector<std::string> notes_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
