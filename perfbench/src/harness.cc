#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>

#include "common/telemetry.h"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

/// The canonical per-layer metric list. BENCHMARK.json's `per_layer` names
/// exactly these; every traced run reports all of them (0 where a workload
/// does not exercise the layer). `exact` marks counts that repeat
/// bit-for-bit at a fixed seed and run length; `moves` says which
/// end-to-end metric the count should move, and where it should not.
struct LayerDef {
  std::string name;
  const char* unit;
  bool exact;
  const char* moves;
};

constexpr const char* kStorageMoves =
    "tput/p50 on tpch_outofcore; flat on tpch_inmem";
constexpr const char* kWalMoves = "tpcc_durable tput/p50/p99; flat elsewhere";
constexpr const char* kRecoveryMoves = "recovery time on tpcc_durable";
constexpr const char* kExecMoves =
    "tpch_inmem tput/p50; diluted on tpch_outofcore; flat on tpcc_durable";
constexpr const char* kForgeMoves = "setup_s on every workload";
constexpr const char* kTpccMoves = "tpcc_durable p50/p99";
constexpr const char* kWireMoves = "sql_wire p50/p99/tput";
constexpr const char* kContext = "context only";

const std::vector<LayerDef>& LayerDefs() {
  static const std::vector<LayerDef> defs = [] {
    std::vector<LayerDef> d = {
        {"storage.buffer.hits", "count", true, kStorageMoves},
        {"storage.buffer.misses", "count", true, kStorageMoves},
        {"storage.buffer.miss_ratio", "ratio", true, kStorageMoves},
        {"storage.disk.pages_read", "count", true, kStorageMoves},
        {"storage.disk.pages_written", "count", true, kStorageMoves},
        {"storage.page_io_wait_ms", "ms", false, kStorageMoves},
        {"storage.wal.records_per_txn", "count", true, kWalMoves},
        {"storage.wal.bytes_per_txn", "B", true, kWalMoves},
        {"storage.wal.fsyncs_per_txn", "count", true, kWalMoves},
        {"storage.recovery.seconds", "s", false, kRecoveryMoves},
        {"storage.recovery.records_scanned", "count", true, kRecoveryMoves},
        {"storage.recovery.redo_applied", "count", true, kRecoveryMoves},
        {"storage.recovery.redo_skipped", "count", true, kRecoveryMoves},
        {"storage.recovery.txns_undone", "count", true, kRecoveryMoves},
        {"storage.recovery.redo_records_per_s", "1/s", false, kRecoveryMoves},
        {"bee.work_ops_per_op", "count", true, kExecMoves},
        {"bee.native_tier_share", "ratio", true, kExecMoves},
        {"bee.batch_calls", "count", true, kExecMoves},
        {"bee.evp_created", "count", true, kExecMoves},
        {"bee.evj_created", "count", true, kExecMoves},
        {"bee.forge.compile_s_total", "s", false, kForgeMoves},
        {"bee.forge.promotions", "count", true, kForgeMoves},
        {"bee.forge.pinned", "count", true, kForgeMoves},
        {"exec.plan_ms", "ms", false, kExecMoves},
        {"exec.run_ms", "ms", false, kExecMoves},
    };
    for (const char* op : {"SeqScan", "Filter", "HashJoin", "NestedLoopJoin",
                           "HashAggregate", "Project", "Sort", "Limit"}) {
      d.push_back({std::string("exec.") + op + ".self_ms", "ms", false,
                   kExecMoves});
    }
    for (int q = 1; q <= 22; ++q) {
      d.push_back({"tpch.q" + std::to_string(q) + "_p50_ms", "ms", false,
                   kExecMoves});
    }
    const std::vector<LayerDef> tail = {
        {"tpcc.new_order_p50_ms", "ms", false, kTpccMoves},
        {"tpcc.payment_p50_ms", "ms", false, kTpccMoves},
        {"tpcc.order_status_p50_ms", "ms", false, kTpccMoves},
        {"tpcc.delivery_p50_ms", "ms", false, kTpccMoves},
        {"tpcc.stock_level_p50_ms", "ms", false, kTpccMoves},
        {"server.query_us", "us", false, kWireMoves},
        {"server.admission_wait_us", "us", false, kWireMoves},
        {"server.wire_wait_ms", "ms", false, kWireMoves},
        {"server.wire_wait_share", "ratio", false, kWireMoves},
        {"server.stmt_cache.hit_ratio", "ratio", false, kWireMoves},
        {"bee.query_bee_cache.hit_ratio", "ratio", false, kWireMoves},
        {"sqlfe.parse_us", "us", false, kWireMoves},
        {"sqlfe.plan_us", "us", false, kWireMoves},
        {"sqlfe.exec_us", "us", false, kWireMoves},
        {"trace.overhead_pct", "%", false, kContext},
        {"host.probe_ms", "ms", false, kContext},
        {"exact.drifted", "count", false, kContext},
    };
    d.insert(d.end(), tail.begin(), tail.end());
    return d;
  }();
  return defs;
}

const LayerDef* FindLayer(const std::string& name) {
  for (const LayerDef& d : LayerDefs()) {
    if (name == d.name) return &d;
  }
  return nullptr;
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

}  // namespace

uint64_t NowNs() { return microspec::telemetry::NowNs(); }

bool IsLayerMetric(const std::string& name) {
  return FindLayer(name) != nullptr;
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> v = values_;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Samples::Sum() const {
  double s = 0;
  for (double v : values_) s += v;
  return s;
}

double Samples::Mean() const {
  return values_.empty() ? 0 : Sum() / static_cast<double>(values_.size());
}

double Samples::TopMean(double share) const {
  if (values_.empty()) return 0;
  std::vector<double> v = values_;
  std::sort(v.begin(), v.end(), std::greater<double>());
  const size_t k = std::max<size_t>(
      1, static_cast<size_t>(share * static_cast<double>(v.size())));
  double s = 0;
  for (size_t i = 0; i < k; ++i) s += v[i];
  return s / static_cast<double>(k);
}

double OpsPerSecond(const Samples& latency_ms) {
  const double busy_s = latency_ms.Sum() / 1e3;
  return busy_s > 0 ? static_cast<double>(latency_ms.size()) / busy_s : 0;
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) log_sum += std::log(std::max(v, 1e-9));
  return std::exp(log_sum / static_cast<double>(values.size()));
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
}

double TreeSizeMb(const std::string& path) {
  std::error_code ec;
  uintmax_t total = 0;
  for (auto it = fs::recursive_directory_iterator(path, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return static_cast<double>(total) / (1024.0 * 1024.0);
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double HostProbeMs() {
  // A dependent multiply-add chain the compiler cannot fold or vectorize.
  volatile uint64_t seed = 0x9E3779B97F4A7C15ULL;
  uint64_t x = seed;
  const uint64_t t0 = NowNs();
  for (int i = 0; i < 20'000'000; ++i) x = x * 6364136223846793005ULL + 1;
  const uint64_t t1 = NowNs();
  seed = x;
  return Ms(t1 - t0);
}

// --- TraceSink ---------------------------------------------------------------

std::shared_ptr<microspec::trace::Trace> TraceSink::NewTrace() {
  if (!enabled_) return nullptr;
  std::lock_guard<std::mutex> guard(mu_);
  auto t = std::make_shared<microspec::trace::Trace>(next_id_++);
  traces_.push_back(t);
  return t;
}

void TraceSink::Add(std::shared_ptr<const microspec::trace::Trace> t) {
  std::lock_guard<std::mutex> guard(mu_);
  traces_.push_back(std::move(t));
}

Status TraceSink::WriteChromeJson(const std::string& path) const {
  std::string out;
  {
    std::lock_guard<std::mutex> guard(mu_);
    out = microspec::trace::ChromeTraceJson(traces_);
  }
  std::ofstream f(path, std::ios::binary);
  if (!f) return Status::IoError("cannot write " + path);
  f << out << "\n";
  return f.good() ? Status::OK() : Status::IoError("short write " + path);
}

// --- Report ------------------------------------------------------------------

void Report::EndToEnd(const std::string& name, const std::string& unit,
                      double value, const Samples* samples) {
  E2E e{name, unit, value, samples != nullptr, 0, 0, 0, 0};
  if (samples != nullptr) {
    e.n = samples->size();
    e.p25 = samples->Quantile(0.25);
    e.p50 = samples->Quantile(0.5);
    e.p75 = samples->Quantile(0.75);
  }
  e2e_.push_back(e);
}

void Report::TailLatency(const Samples& latency_ms) {
  const std::string n = std::to_string(latency_ms.size());
  if (latency_ms.size() >= 1000) {
    EndToEnd("latency_tail_ms", "ms", latency_ms.Quantile(0.99), &latency_ms);
    Note("latency_tail_ms is p99 of " + n + " samples");
    return;
  }
  // The TPC-H workloads have 132-330 executions of 22 queries. Any single
  // percentile there falls between the executions of two slow queries and
  // flips with the host's speed; over five seeds their p90 spread 23%.
  EndToEnd("latency_tail_ms", "ms", latency_ms.TopMean(0.10), &latency_ms);
  Note("latency_tail_ms is the mean of the slowest 10% of " + n + " samples");
}

void Report::Layer(const std::string& name, double value) {
  MICROSPEC_CHECK(IsLayerMetric(name));
  layers_[name] = value;
}

void Report::Ops(uint64_t attempted, uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::CheckFailed(const std::string& what, uint64_t ops) {
  std::printf("CHECK FAILED: %s (%llu operations counted as failed)\n",
              what.c_str(), static_cast<unsigned long long>(ops));
  correct_ = false;
  failed_ = std::min(attempted_, failed_ + ops);
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

int Report::CheckLedger() {
  // One line per exact count: "<workload> <seed> <operations> <metric>
  // <value>". The operation count stands for the run length, so a change
  // to a workload's sizing starts fresh entries instead of drifting.
  // Traced and untraced runs share entries: both execute the same
  // operations, so their counts must agree.
  const std::string path = config_.work_dir + "/exact_counts.txt";
  const std::string prefix = config_.workload + " " +
                             std::to_string(config_.seed) + " " +
                             std::to_string(attempted_) + " ";
  std::map<std::string, std::string> known;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind(prefix, 0) != 0) continue;
      std::istringstream fields(line.substr(prefix.size()));
      std::string metric;
      std::string value;
      if (fields >> metric >> value) known[metric] = value;
    }
  }
  int drifted = 0;
  std::ofstream out(path, std::ios::app);
  for (const LayerDef& d : LayerDefs()) {
    if (!d.exact) continue;
    auto it = layers_.find(d.name);
    const std::string now = Num(it == layers_.end() ? 0 : it->second);
    auto k = known.find(d.name);
    if (k == known.end()) {
      out << prefix << d.name << " " << now << "\n";
    } else if (k->second != now) {
      std::printf("DRIFT: %s was %s at this seed and length, now %s\n",
                  d.name.c_str(),
                  k->second.c_str(), now.c_str());
      ++drifted;
    }
  }
  return drifted;
}

void Report::Finish() {
  layers_["host.probe_ms"] = HostProbeMs();
  layers_["exact.drifted"] = CheckLedger();

  std::printf("\n== %s  seed=%llu  seconds=%s  trace=%d ==\n",
              config_.workload.c_str(),
              static_cast<unsigned long long>(config_.seed),
              Num(config_.seconds).c_str(), config_.trace ? 1 : 0);
  for (const std::string& n : notes_) std::printf("  %s\n", n.c_str());

  microspec::telemetry::TextTable e2e;
  e2e.Header({"end-to-end", "unit", "n", "p25", "median", "p75", "value"});
  for (const E2E& e : e2e_) {
    e2e.Row({e.name, e.unit, e.has_samples ? std::to_string(e.n) : "1",
             e.has_samples ? Num(e.p25) : "-",
             e.has_samples ? Num(e.p50) : "-",
             e.has_samples ? Num(e.p75) : "-", Num(e.value)});
  }
  std::printf("\n%s", e2e.ToString().c_str());
  std::printf("  operations: attempted %llu, failed %llu, error rate %s\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_),
              Num(attempted_ == 0 ? 0
                                  : static_cast<double>(failed_) /
                                        static_cast<double>(attempted_))
                  .c_str());

  // Per-layer tables, one per layer (leading name component).
  std::string current;
  std::unique_ptr<microspec::telemetry::TextTable> table;
  auto flush = [&] {
    if (table != nullptr) std::printf("\n%s", table->ToString().c_str());
  };
  for (const LayerDef& d : LayerDefs()) {
    const std::string& name = d.name;
    const std::string layer = name.substr(0, name.find('.'));
    if (layer != current) {
      flush();
      current = layer;
      table = std::make_unique<microspec::telemetry::TextTable>();
      table->Header({layer, "value", "unit", "exact", "should move"});
    }
    auto it = layers_.find(name);
    table->Row({name, Num(it == layers_.end() ? 0 : it->second), d.unit,
                d.exact ? "yes" : "", d.moves});
  }
  flush();

  // The result line: end-to-end metrics untraced, per-layer metrics traced.
  std::string json = std::string("{\"correct\": ") +
                     (correct_ && failed_ == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted_) +
                     ", \"failed\": " + std::to_string(failed_) +
                     ", \"metrics\": {";
  bool first = true;
  auto metric = [&](const std::string& name, double value,
                    const std::string& unit) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + Num(value) + ", \"unit\": \"" +
            unit + "\"}";
  };
  if (config_.trace) {
    for (const LayerDef& d : LayerDefs()) {
      auto it = layers_.find(d.name);
      metric(d.name, it == layers_.end() ? 0 : it->second, d.unit);
    }
  } else {
    for (const E2E& e : e2e_) metric(e.name, e.value, e.unit);
  }
  json += "}}";
  std::printf("\n%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
