#include "common/telemetry.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>

namespace microspec::telemetry {

std::string Escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

namespace {

bool EnvEnabled() {
  const char* v = std::getenv("MICROSPEC_TELEMETRY");
  if (v == nullptr) return false;
  return std::strcmp(v, "0") != 0 && std::strcmp(v, "") != 0 &&
         std::strcmp(v, "false") != 0;
}

std::string FormatValue(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string RenderLabels(const std::map<std::string, std::string>& labels,
                         const char* extra_key = nullptr,
                         const std::string& extra_value = "") {
  if (labels.empty() && extra_key == nullptr) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k + "=\"" + Escape(v) + "\"";
  }
  if (extra_key != nullptr) {
    if (!first) out += ",";
    out += std::string(extra_key) + "=\"" + extra_value + "\"";
  }
  out += "}";
  return out;
}

}  // namespace

std::atomic<bool> g_enabled{EnvEnabled()};

void SetEnabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

uint32_t ThreadShard() {
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t shard =
      next.fetch_add(1, std::memory_order_relaxed) & (kShards - 1);
  return shard;
}

uint64_t Histogram::Snapshot::Quantile(double q) const {
  if (count == 0) return 0;
  double rank = q * static_cast<double>(count);
  uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += counts[i];
    if (static_cast<double>(seen) >= rank && counts[i] > 0) {
      return BucketBound(i);
    }
  }
  return BucketBound(kBuckets - 1);
}

/// --- TelemetrySnapshot ------------------------------------------------------

void TelemetrySnapshot::AddCounter(std::string name, double value,
                                   std::map<std::string, std::string> labels) {
  Sample s;
  s.name = std::move(name);
  s.labels = std::move(labels);
  s.kind = Sample::Kind::kCounter;
  s.value = value;
  samples.push_back(std::move(s));
}

void TelemetrySnapshot::AddGauge(std::string name, double value,
                                 std::map<std::string, std::string> labels) {
  Sample s;
  s.name = std::move(name);
  s.labels = std::move(labels);
  s.kind = Sample::Kind::kGauge;
  s.value = value;
  samples.push_back(std::move(s));
}

void TelemetrySnapshot::AddHistogram(
    std::string name, const Histogram::Snapshot& snap,
    std::map<std::string, std::string> labels) {
  Sample s;
  s.name = std::move(name);
  s.labels = std::move(labels);
  s.kind = Sample::Kind::kHistogram;
  s.hist.count = snap.count;
  s.hist.sum = snap.sum;
  s.hist.p50 = snap.Quantile(0.50);
  s.hist.p90 = snap.Quantile(0.90);
  s.hist.p99 = snap.Quantile(0.99);
  // Cumulative buckets up to the last non-empty one (Prometheus-style le).
  uint64_t cum = 0;
  int last = -1;
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    if (snap.counts[i] > 0) last = i;
  }
  for (int i = 0; i <= last; ++i) {
    cum += snap.counts[i];
    s.hist.buckets.emplace_back(Histogram::BucketBound(i), cum);
  }
  samples.push_back(std::move(s));
}

const Sample* TelemetrySnapshot::Find(
    const std::string& name,
    const std::map<std::string, std::string>& labels) const {
  for (const Sample& s : samples) {
    if (s.name != name) continue;
    bool match = true;
    for (const auto& [k, v] : labels) {
      auto it = s.labels.find(k);
      match = match && it != s.labels.end() && it->second == v;
    }
    if (match) return &s;
  }
  return nullptr;
}

std::string TelemetrySnapshot::ToPrometheusText() const {
  std::string out;
  std::set<std::string> typed;  // families with an emitted # TYPE line
  for (const Sample& s : samples) {
    const char* type = s.kind == Sample::Kind::kCounter   ? "counter"
                       : s.kind == Sample::Kind::kGauge   ? "gauge"
                                                          : "histogram";
    if (typed.insert(s.name).second) {
      out += "# TYPE " + s.name + " " + type + "\n";
    }
    if (s.kind != Sample::Kind::kHistogram) {
      out += s.name + RenderLabels(s.labels) + " " + FormatValue(s.value) +
             "\n";
      continue;
    }
    for (const auto& [bound, cum] : s.hist.buckets) {
      out += s.name + "_bucket" +
             RenderLabels(s.labels, "le", std::to_string(bound)) + " " +
             std::to_string(cum) + "\n";
    }
    out += s.name + "_bucket" + RenderLabels(s.labels, "le", "+Inf") + " " +
           std::to_string(s.hist.count) + "\n";
    out += s.name + "_sum" + RenderLabels(s.labels) + " " +
           FormatValue(static_cast<double>(s.hist.sum)) + "\n";
    out += s.name + "_count" + RenderLabels(s.labels) + " " +
           std::to_string(s.hist.count) + "\n";
  }
  return out;
}

std::string TelemetrySnapshot::ToJson() const {
  std::string out = "{\n  \"metrics\": [\n";
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    out += "    {\"name\": \"" + Escape(s.name) + "\"";
    if (!s.labels.empty()) {
      out += ", \"labels\": {";
      bool first = true;
      for (const auto& [k, v] : s.labels) {
        if (!first) out += ", ";
        first = false;
        out += "\"" + Escape(k) + "\": \"" + Escape(v) + "\"";
      }
      out += "}";
    }
    switch (s.kind) {
      case Sample::Kind::kCounter:
        out += ", \"kind\": \"counter\", \"value\": " + FormatValue(s.value);
        break;
      case Sample::Kind::kGauge:
        out += ", \"kind\": \"gauge\", \"value\": " + FormatValue(s.value);
        break;
      case Sample::Kind::kHistogram: {
        out += ", \"kind\": \"histogram\", \"count\": " +
               std::to_string(s.hist.count) +
               ", \"sum\": " + FormatValue(static_cast<double>(s.hist.sum)) +
               ", \"p50\": " + std::to_string(s.hist.p50) +
               ", \"p90\": " + std::to_string(s.hist.p90) +
               ", \"p99\": " + std::to_string(s.hist.p99) + ", \"buckets\": [";
        for (size_t b = 0; b < s.hist.buckets.size(); ++b) {
          if (b > 0) out += ", ";
          out += "{\"le\": " + std::to_string(s.hist.buckets[b].first) +
                 ", \"count\": " + std::to_string(s.hist.buckets[b].second) +
                 "}";
        }
        out += "]";
        break;
      }
    }
    out += "}";
    out += i + 1 < samples.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

/// --- Registry ---------------------------------------------------------------

Registry& Registry::Global() {
  // Leaked: counters may be bumped by worker threads during static
  // destruction; a destroyed registry would be a use-after-free trap.
  static Registry* global = new Registry();
  return *global;
}

Counter* Registry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> guard(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(name, std::make_unique<Counter>()).first;
  }
  return it->second.get();
}

Gauge* Registry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> guard(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(name, std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* Registry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> guard(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, std::make_unique<Histogram>()).first;
  }
  return it->second.get();
}

void Registry::FillSnapshot(TelemetrySnapshot* snap) const {
  std::lock_guard<std::mutex> guard(mutex_);
  for (const auto& [name, c] : counters_) {
    snap->AddCounter(name, static_cast<double>(c->Value()));
  }
  for (const auto& [name, g] : gauges_) {
    snap->AddGauge(name, static_cast<double>(g->Value()));
  }
  for (const auto& [name, h] : histograms_) {
    snap->AddHistogram(name, h->Snap());
  }
}

/// --- TextTable --------------------------------------------------------------

void TextTable::Header(std::vector<std::string> cells) {
  header_ = std::move(cells);
}

void TextTable::Row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

std::string TextTable::ToString() const {
  size_t ncols = header_.size();
  for (const auto& row : rows_) ncols = std::max(ncols, row.size());
  std::vector<size_t> width(ncols, 0);
  std::vector<bool> numeric(ncols, true);
  auto measure = [&](const std::vector<std::string>& row, bool body) {
    for (size_t i = 0; i < row.size(); ++i) {
      width[i] = std::max(width[i], row[i].size());
      if (body && !row[i].empty()) {
        char* end = nullptr;
        std::strtod(row[i].c_str(), &end);
        if (end == row[i].c_str() || *end != '\0') numeric[i] = false;
      }
    }
  };
  measure(header_, false);
  for (const auto& row : rows_) measure(row, true);

  std::string out;
  auto emit = [&](const std::vector<std::string>& row) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += "  ";
      size_t pad = width[i] - row[i].size();
      bool right = numeric[i] && !rows_.empty();
      if (right) out.append(pad, ' ');
      out += row[i];
      // Right-padding on the last column is dead weight.
      if (!right && i + 1 < row.size()) out.append(pad, ' ');
    }
    while (!out.empty() && out.back() == ' ') out.pop_back();
    out += "\n";
  };
  if (!header_.empty()) {
    emit(header_);
    size_t total = 0;
    for (size_t i = 0; i < ncols; ++i) total += width[i] + (i > 0 ? 2 : 0);
    out.append(total, '-');
    out += "\n";
  }
  for (const auto& row : rows_) emit(row);
  return out;
}

}  // namespace microspec::telemetry
