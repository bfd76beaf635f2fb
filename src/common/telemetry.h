#ifndef MICROSPEC_COMMON_TELEMETRY_H_
#define MICROSPEC_COMMON_TELEMETRY_H_

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/macros.h"

namespace microspec::telemetry {

/// --- Unified telemetry ------------------------------------------------------
/// The paper's argument is quantitative: Figures 5-8 count the instructions,
/// pages, and cycles each bee tier removes. This module is the runtime's one
/// coherent observability substrate — a process-wide registry of lock-free
/// sharded counters, gauges, and fixed-bucket latency histograms (events
/// such as forge compiles are spans on trace::Tracer::Background()). Every
/// hot-path write is a relaxed
/// atomic on a thread-sharded cache line; merging happens on read, so the
/// measured paths never serialize on the measurement.
///
/// The expensive instruments (per-call deform timing, EXPLAIN ANALYZE
/// operator stats) are gated: deform timing behind the process-wide
/// Enabled() flag, operator stats behind an ExecContext decorator that is
/// simply not installed when off — the uninstrumented hot path stays
/// zero-overhead (enforced by bench_tpch_warm --trace-gate).

/// Nanoseconds on the steady clock (process-relative; used for latencies
/// and trace timestamps).
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Process-wide instrumentation switch for the *timed* telemetry paths
/// (per-call deform latency histograms). Counters and gauges are cheap
/// enough to stay always-on. Initialized from MICROSPEC_TELEMETRY=1|0.
extern std::atomic<bool> g_enabled;
inline bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }
void SetEnabled(bool on);

/// Shard count for counters/histograms. Power of two; threads hash to a
/// shard by a cheap thread-local index, so concurrent writers touch
/// different cache lines almost always.
constexpr uint32_t kShards = 16;

/// This thread's shard ordinal (assigned round-robin on first use).
uint32_t ThreadShard();

/// --- Counter ----------------------------------------------------------------
/// Monotonic counter: relaxed fetch_add into this thread's shard on the hot
/// path, merge-on-read. ~one cache line per shard.
class Counter {
 public:
  Counter() = default;
  MICROSPEC_DISALLOW_COPY_AND_MOVE(Counter);

  void Add(uint64_t n = 1) {
    shards_[ThreadShard()].v.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const {
    uint64_t sum = 0;
    for (const Shard& s : shards_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }
  void Reset() {
    for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> v{0};
  };
  Shard shards_[kShards];
};

/// --- Gauge ------------------------------------------------------------------
/// A point-in-time value (queue depth, bytes resident). Single atomic —
/// gauges are set from slow paths.
class Gauge {
 public:
  Gauge() = default;
  MICROSPEC_DISALLOW_COPY_AND_MOVE(Gauge);

  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// --- Histogram --------------------------------------------------------------
/// Fixed power-of-two buckets: bucket i counts values v with
/// bit_width(v) == i, i.e. v in [2^(i-1), 2^i); bucket 0 counts v == 0 and
/// the last bucket absorbs everything larger. 40 buckets cover 1 ns ..
/// ~9 minutes, plenty for deform calls and compiles alike. Observe() is two
/// relaxed fetch_adds on this thread's shard; Snapshot() merges.
class Histogram {
 public:
  static constexpr int kBuckets = 40;

  Histogram() = default;
  MICROSPEC_DISALLOW_COPY_AND_MOVE(Histogram);

  static int BucketOf(uint64_t v) {
    int b = std::bit_width(v);  // 0 for v==0
    return b < kBuckets ? b : kBuckets - 1;
  }
  /// Inclusive upper bound of bucket i (UINT64_MAX for the overflow bucket).
  static uint64_t BucketBound(int i) {
    if (i >= kBuckets - 1) return ~0ULL;
    return (1ULL << i) - 1;
  }

  void Observe(uint64_t v) {
    Shard& s = shards_[ThreadShard()];
    s.counts[BucketOf(v)].fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
  }

  struct Snapshot {
    uint64_t counts[kBuckets] = {0};
    uint64_t count = 0;
    uint64_t sum = 0;

    /// Approximate quantile: the inclusive upper bound of the bucket holding
    /// the q-th ranked observation (q in [0,1]).
    uint64_t Quantile(double q) const;
    bool empty() const { return count == 0; }
  };

  Snapshot Snap() const {
    Snapshot out;
    for (const Shard& s : shards_) {
      for (int i = 0; i < kBuckets; ++i) {
        out.counts[i] += s.counts[i].load(std::memory_order_relaxed);
      }
      out.sum += s.sum.load(std::memory_order_relaxed);
    }
    for (int i = 0; i < kBuckets; ++i) out.count += out.counts[i];
    return out;
  }

  void Reset() {
    for (Shard& s : shards_) {
      for (int i = 0; i < kBuckets; ++i) {
        s.counts[i].store(0, std::memory_order_relaxed);
      }
      s.sum.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> counts[kBuckets] = {};
    std::atomic<uint64_t> sum{0};
  };
  Shard shards_[kShards];
};

/// --- Snapshot tree ----------------------------------------------------------
/// A merged point-in-time view of every metric, serializable to both the
/// Prometheus text exposition format and JSON (the same values land in
/// BenchReport's BENCH_*.json files). Samples carry flat names plus a label
/// map, Prometheus-style.

struct HistogramStats {
  /// (inclusive upper bound, cumulative count) per non-empty prefix bucket.
  std::vector<std::pair<uint64_t, uint64_t>> buckets;
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t p50 = 0;
  uint64_t p90 = 0;
  uint64_t p99 = 0;
};

struct Sample {
  enum class Kind : uint8_t { kCounter, kGauge, kHistogram };
  std::string name;
  std::map<std::string, std::string> labels;
  Kind kind = Kind::kCounter;
  double value = 0;      // counter/gauge
  HistogramStats hist;   // histogram
};

struct TelemetrySnapshot {
  std::vector<Sample> samples;

  void AddCounter(std::string name, double value,
                  std::map<std::string, std::string> labels = {});
  void AddGauge(std::string name, double value,
                std::map<std::string, std::string> labels = {});
  void AddHistogram(std::string name, const Histogram::Snapshot& snap,
                    std::map<std::string, std::string> labels = {});

  /// First sample matching name (and labels, when given); nullptr if absent.
  const Sample* Find(const std::string& name,
                     const std::map<std::string, std::string>& labels = {})
      const;

  /// Prometheus text exposition: one "# TYPE" line per metric family, then
  /// name{labels} value lines; histograms expand to _bucket/_sum/_count.
  std::string ToPrometheusText() const;

  /// The same tree as JSON: {"metrics": [...]}.
  /// Values are rendered with the same %.9g format as the Prometheus text,
  /// so the two serializations round-trip identical numbers.
  std::string ToJson() const;
};

/// --- Registry ---------------------------------------------------------------
/// Process-wide, find-or-create by name (a full name may embed labels, e.g.
/// "microspec_work_ops_total"). Returned pointers are stable for the process
/// lifetime; registration takes a mutex, the returned instruments are
/// lock-free. The registry is leaked deliberately so worker threads may
/// bump counters during static destruction.
class Registry {
 public:
  static Registry& Global();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Appends every registered instrument to `snap`.
  void FillSnapshot(TelemetrySnapshot* snap) const;

 private:
  Registry() = default;
  MICROSPEC_DISALLOW_COPY_AND_MOVE(Registry);

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Escaping for Prometheus label values and JSON strings (the shared subset:
/// backslash, double quote, control characters).
std::string Escape(const std::string& s);

/// --- TextTable --------------------------------------------------------------
/// Minimal aligned-column renderer shared by bee_inspector's --forge and
/// --metrics tables (and anything else that prints tabular diagnostics).
/// Columns whose body cells are all numeric are right-aligned.
class TextTable {
 public:
  void Header(std::vector<std::string> cells);
  void Row(std::vector<std::string> cells);
  std::string ToString() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace microspec::telemetry

#endif  // MICROSPEC_COMMON_TELEMETRY_H_
