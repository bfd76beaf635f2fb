#include "common/tracing.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/hash.h"
#include "common/telemetry.h"

namespace microspec::trace {

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kSession: return "session";
    case SpanKind::kStatement: return "statement";
    case SpanKind::kParse: return "parse";
    case SpanKind::kPlan: return "plan";
    case SpanKind::kExec: return "exec";
    case SpanKind::kOperator: return "operator";
    case SpanKind::kFragment: return "fragment";
    case SpanKind::kBee: return "bee";
    case SpanKind::kWait: return "wait";
    case SpanKind::kDdl: return "ddl";
    case SpanKind::kEvent: return "event";
  }
  return "?";
}

const char* WaitKindName(WaitKind kind) {
  switch (kind) {
    case WaitKind::kNone: return "";
    case WaitKind::kForge: return "forge-wait";
    case WaitKind::kGatherQueue: return "gather-queue-wait";
    case WaitKind::kPageIo: return "page-io";
    case WaitKind::kAdmission: return "admission-queue";
  }
  return "?";
}

uint32_t ThreadOrdinal() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t ordinal = next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

// ---------------------------------------------------------------------------
// Trace

uint32_t Trace::Append(Span span) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (spans_.size() >= max_spans_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  span.id = static_cast<uint32_t>(spans_.size() + 1);
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

uint32_t Trace::Begin(uint32_t parent, SpanKind kind, std::string name) {
  return BeginAt(parent, kind, std::move(name), telemetry::NowNs());
}

uint32_t Trace::BeginAt(uint32_t parent, SpanKind kind, std::string name,
                        uint64_t start_ns) {
  Span s;
  s.parent = parent;
  s.kind = kind;
  s.tid = ThreadOrdinal();
  s.start_ns = start_ns;
  s.name = std::move(name);
  return Append(std::move(s));
}

void Trace::End(uint32_t id) {
  if (id == 0) return;
  const uint64_t now = telemetry::NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  if (id > spans_.size()) return;
  Span& s = spans_[id - 1];
  if (s.end_ns == 0) s.end_ns = now;
}

uint32_t Trace::AddComplete(uint32_t parent, SpanKind kind, std::string name,
                            uint64_t start_ns, uint64_t end_ns, WaitKind wait,
                            uint64_t rows, uint64_t aux) {
  Span s;
  s.parent = parent;
  s.kind = kind;
  s.wait = wait;
  s.tid = ThreadOrdinal();
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.rows = rows;
  s.aux = aux;
  s.name = std::move(name);
  return Append(std::move(s));
}

void Trace::SetArgs(uint32_t id, uint64_t rows, uint64_t aux) {
  if (id == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (id > spans_.size()) return;
  spans_[id - 1].rows = rows;
  spans_[id - 1].aux = aux;
}

uint32_t Trace::NewOpSpan(int node_id, const std::string& label,
                          const std::vector<int>& child_nodes) {
  Span s;
  s.kind = SpanKind::kOperator;
  s.name = label;
  std::lock_guard<std::mutex> lock(mutex_);
  if (spans_.size() >= max_spans_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  s.id = static_cast<uint32_t>(spans_.size() + 1);
  const uint32_t id = s.id;
  spans_.push_back(std::move(s));
  op_span_by_node_[node_id] = id;
  // Plans build bottom-up: the children's spans already exist; hook them
  // under this operator so the tree is connected before execution starts.
  for (int child : child_nodes) {
    auto it = op_span_by_node_.find(child);
    if (it != op_span_by_node_.end() && it->second != 0) {
      spans_[it->second - 1].parent = id;
    }
  }
  return id;
}

uint32_t Trace::NewFragmentSpan(int node_id, int fragment) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = op_span_by_node_.find(node_id);
  const uint32_t parent = it == op_span_by_node_.end() ? 0 : it->second;
  if (spans_.size() >= max_spans_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  Span s;
  s.id = static_cast<uint32_t>(spans_.size() + 1);
  s.parent = parent;
  s.kind = SpanKind::kFragment;
  s.name = "worker-" + std::to_string(fragment);
  spans_.push_back(std::move(s));
  return s.id;
}

void Trace::OpStart(uint32_t id) {
  if (id == 0) return;
  const uint64_t now = telemetry::NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  if (id > spans_.size()) return;
  Span* s = &spans_[id - 1];
  if (s->tid == 0) s->tid = ThreadOrdinal();
  if (s->start_ns == 0 || now < s->start_ns) s->start_ns = now;
  if (s->kind == SpanKind::kFragment && s->parent != 0) {
    Span* p = &spans_[s->parent - 1];
    if (p->start_ns == 0 || now < p->start_ns) p->start_ns = now;
  }
}

void Trace::OpEnd(uint32_t id, uint64_t rows, uint64_t aux) {
  if (id == 0) return;
  const uint64_t now = telemetry::NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  if (id > spans_.size()) return;
  Span* s = &spans_[id - 1];
  if (now > s->end_ns) s->end_ns = now;
  s->rows += rows;
  s->aux += aux;
  if (s->kind == SpanKind::kFragment && s->parent != 0) {
    Span* p = &spans_[s->parent - 1];
    if (now > p->end_ns) p->end_ns = now;
    p->rows += rows;
    p->aux += aux;
  }
}

void Trace::SetDefaultParent(uint32_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  default_parent_ = id;
  // Operator spans created during plan construction predate the exec span;
  // attach every still-parentless one now so the tree stays connected.
  for (Span& s : spans_) {
    if (s.parent == 0 && s.id != id &&
        (s.kind == SpanKind::kOperator || s.kind == SpanKind::kFragment ||
         s.kind == SpanKind::kBee)) {
      s.parent = id;
    }
  }
}

uint32_t Trace::default_parent() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return default_parent_;
}

void Trace::set_sql(std::string sql) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (sql_.empty()) sql_ = std::move(sql);
}

std::string Trace::sql() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sql_;
}

std::vector<Span> Trace::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

uint64_t Trace::RootDurationNs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Span& s : spans_) {
    if (s.parent == 0 && s.end_ns > s.start_ns) return s.end_ns - s.start_ns;
  }
  return 0;
}

uint64_t Trace::TotalNs(SpanKind kind) const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t total = 0;
  for (const Span& s : spans_) {
    if (s.kind == kind && s.end_ns > s.start_ns) total += s.end_ns - s.start_ns;
  }
  return total;
}

// ---------------------------------------------------------------------------
// Thread-local wait attribution

namespace {
struct ThreadTrace {
  Trace* trace = nullptr;
  uint32_t span = 0;
};
thread_local ThreadTrace g_thread_trace;
}  // namespace

bool ThreadTraceActive() { return g_thread_trace.trace != nullptr; }

void RecordWait(WaitKind kind, uint64_t start_ns, uint64_t end_ns) {
  ThreadTrace& tt = g_thread_trace;
  if (tt.trace == nullptr) return;
  tt.trace->AddComplete(tt.span, SpanKind::kWait, WaitKindName(kind), start_ns,
                        end_ns, kind);
}

ThreadTraceScope::ThreadTraceScope(Trace* t, uint32_t span)
    : prev_trace_(g_thread_trace.trace), prev_span_(g_thread_trace.span) {
  if (t != nullptr) {
    g_thread_trace.trace = t;
    g_thread_trace.span = span;
  }
}

ThreadTraceScope::~ThreadTraceScope() {
  g_thread_trace.trace = prev_trace_;
  g_thread_trace.span = prev_span_;
}

// ---------------------------------------------------------------------------
// Tracer

Tracer::Tracer(TracerOptions options)
    : options_(options), sample_n_(options.sample_n) {}

std::shared_ptr<Trace> Tracer::MaybeSample() {
  const uint64_t q = stmt_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
  const uint32_t n = sample_n_.load(std::memory_order_relaxed);
  if (n == 0 || (q - 1) % n != 0) return nullptr;
  sampled_total_.fetch_add(1, std::memory_order_relaxed);
  auto trace = std::make_shared<Trace>(
      trace_ids_.fetch_add(1, std::memory_order_relaxed) + 1,
      options_.max_spans);
  trace->set_seq(q);
  return trace;
}

std::shared_ptr<Trace> Tracer::StartForced() {
  sampled_total_.fetch_add(1, std::memory_order_relaxed);
  return std::make_shared<Trace>(
      trace_ids_.fetch_add(1, std::memory_order_relaxed) + 1,
      options_.max_spans);
}

void Tracer::Publish(std::shared_ptr<Trace> trace) {
  if (trace == nullptr) return;
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.push_back(std::move(trace));
  while (ring_.size() > options_.ring_capacity) ring_.pop_front();
}

void Tracer::RecordSlow(SlowQuery slow) {
  std::lock_guard<std::mutex> lock(mutex_);
  slow_log_.push_back(std::move(slow));
  while (slow_log_.size() > options_.slow_log_capacity) slow_log_.pop_front();
}

std::vector<std::shared_ptr<const Trace>> Tracer::Recent() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {ring_.begin(), ring_.end()};
}

std::shared_ptr<const Trace> Tracer::Latest() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.empty()) return nullptr;
  return ring_.back();
}

std::vector<SlowQuery> Tracer::SlowLog() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {slow_log_.begin(), slow_log_.end()};
}

std::string Tracer::ChromeTraceJson() const {
  std::vector<std::shared_ptr<const Trace>> traces = Recent();
  if (this != &Background()) {
    std::vector<std::shared_ptr<const Trace>> lane = Background().Recent();
    traces.insert(traces.end(), lane.begin(), lane.end());
  }
  return trace::ChromeTraceJson(traces);
}

void Tracer::FillSnapshot(telemetry::TelemetrySnapshot* snap) const {
  snap->AddCounter("microspec_trace_statements_total",
                   static_cast<double>(statements_seen()));
  snap->AddCounter("microspec_traces_sampled_total",
                   static_cast<double>(sampled_total()));
  size_t slow = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    slow = slow_log_.size();
  }
  snap->AddGauge("microspec_trace_slow_log_entries", static_cast<double>(slow));
}

// ---------------------------------------------------------------------------
// Background lane

namespace {

/// The tracer plus the trace being filled. Each new trace is published as
/// soon as it starts, so the tracer's ring is the whole lane and its
/// eviction of the oldest trace is the lane's bound.
struct BackgroundLane {
  Tracer tracer{TracerOptions{.ring_capacity = kBackgroundTraces,
                              .max_spans = kBackgroundTraceSpans}};
  std::mutex mutex;
  std::shared_ptr<Trace> filling;
  size_t spans = 0;
};

BackgroundLane& Lane() {
  // Leaked: forge workers may record during static destruction.
  static BackgroundLane* lane = new BackgroundLane();
  return *lane;
}

}  // namespace

Tracer& Tracer::Background() { return Lane().tracer; }

void RecordEvent(std::string_view event, std::string_view handle,
                 uint64_t start_ns, uint64_t end_ns, std::string_view detail) {
  std::string name(event);
  name += ' ';
  name += handle;
  if (!detail.empty()) {
    name += ": ";
    name += detail;
  }
  BackgroundLane& lane = Lane();
  std::lock_guard<std::mutex> lock(lane.mutex);
  if (lane.filling == nullptr || lane.spans == kBackgroundTraceSpans) {
    // Trace id 0: every lane trace renders as one Chrome pid.
    lane.filling = std::make_shared<Trace>(0, kBackgroundTraceSpans);
    lane.filling->set_sql("background");
    lane.spans = 0;
    lane.tracer.Publish(lane.filling);
  }
  ++lane.spans;
  lane.filling->AddComplete(0, SpanKind::kEvent, std::move(name), start_ns,
                            end_ns);
}

void RecordBuild(const char* prefix, std::string_view key, uint64_t start_ns,
                 const Status& outcome) {
  const uint64_t end_ns = telemetry::NowNs();
  const unsigned long long hash = Hash64(key.data(), key.size());
  char handle[32];
  std::snprintf(handle, sizeof(handle), "%s%016llx", prefix, hash);
  RecordEvent("queued", handle, start_ns, start_ns);
  if (outcome.ok()) {
    RecordEvent("succeeded", handle, start_ns, end_ns);
  } else {
    RecordEvent("cancelled", handle, start_ns, end_ns, outcome.message());
  }
}

// ---------------------------------------------------------------------------
// Rendering

namespace {

void AppendMicros(std::string* out, uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03u", ns / 1000,
                static_cast<unsigned>(ns % 1000));
  *out += buf;
}

}  // namespace

std::string ChromeTraceJson(
    const std::vector<std::shared_ptr<const Trace>>& traces) {
  // Normalize to the earliest span start so timestamps are small and the
  // viewer opens at t=0.
  uint64_t t0 = UINT64_MAX;
  std::vector<std::vector<Span>> snaps;
  snaps.reserve(traces.size());
  for (const auto& t : traces) {
    if (t == nullptr) continue;
    snaps.push_back(t->Snapshot());
    for (const Span& s : snaps.back()) {
      if (s.start_ns != 0 && s.start_ns < t0) t0 = s.start_ns;
    }
  }
  if (t0 == UINT64_MAX) t0 = 0;

  std::string out = "{\"traceEvents\":[";
  bool first = true;
  size_t ti = 0;
  for (const auto& t : traces) {
    if (t == nullptr) continue;
    const std::vector<Span>& spans = snaps[ti++];
    const uint64_t pid = t->trace_id();
    for (const Span& s : spans) {
      if (s.start_ns == 0) continue;
      const uint64_t end = s.end_ns >= s.start_ns ? s.end_ns : s.start_ns;
      if (!first) out += ',';
      first = false;
      out += "{\"name\":\"";
      out += telemetry::Escape(s.name);
      out += "\",\"cat\":\"";
      out += s.wait != WaitKind::kNone ? WaitKindName(s.wait)
                                       : SpanKindName(s.kind);
      out += "\",\"ph\":\"X\",\"ts\":";
      AppendMicros(&out, s.start_ns - t0);
      out += ",\"dur\":";
      AppendMicros(&out, end - s.start_ns);
      out += ",\"pid\":" + std::to_string(pid);
      out += ",\"tid\":" + std::to_string(s.tid);
      out += ",\"args\":{\"span\":" + std::to_string(s.id);
      out += ",\"parent\":" + std::to_string(s.parent);
      if (s.rows != 0 || s.aux != 0) {
        out += ",\"rows\":" + std::to_string(s.rows);
        out += ",\"aux\":" + std::to_string(s.aux);
      }
      out += "}}";
    }
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

std::string RenderTraceTree(const Trace& trace) {
  const std::vector<Span> spans = trace.Snapshot();
  // Children in id (creation) order under each parent; roots are spans whose
  // parent id is 0 or missing.
  std::vector<std::vector<uint32_t>> children(spans.size() + 1);
  std::vector<uint32_t> roots;
  for (const Span& s : spans) {
    if (s.parent != 0 && s.parent <= spans.size()) {
      children[s.parent].push_back(s.id);
    } else {
      roots.push_back(s.id);
    }
  }

  uint64_t t0 = UINT64_MAX;
  for (const Span& s : spans) {
    if (s.start_ns != 0 && s.start_ns < t0) t0 = s.start_ns;
  }
  if (t0 == UINT64_MAX) t0 = 0;

  telemetry::TextTable table;
  table.Header({"span", "kind", "start_ms", "dur_ms", "rows", "aux", "tid"});
  // Iterative DFS so a deep plan cannot overflow the stack.
  std::vector<std::pair<uint32_t, int>> stack;
  for (auto it = roots.rbegin(); it != roots.rend(); ++it) {
    stack.emplace_back(*it, 0);
  }
  char buf[32];
  while (!stack.empty()) {
    auto [id, depth] = stack.back();
    stack.pop_back();
    const Span& s = spans[id - 1];
    std::string name(static_cast<size_t>(depth) * 2, ' ');
    name += s.name.empty() ? SpanKindName(s.kind) : s.name;
    // A span that never started (an operator whose Init was never reached)
    // has no window: empty cells, not a wrapped 0 - t0.
    std::string start_ms;
    std::string dur_ms;
    if (s.start_ns != 0) {
      const uint64_t end = s.end_ns >= s.start_ns ? s.end_ns : s.start_ns;
      std::snprintf(buf, sizeof(buf), "%.3f",
                    static_cast<double>(s.start_ns - t0) / 1e6);
      start_ms = buf;
      std::snprintf(buf, sizeof(buf), "%.3f",
                    static_cast<double>(end - s.start_ns) / 1e6);
      dur_ms = buf;
    }
    table.Row({name,
               s.wait != WaitKind::kNone ? WaitKindName(s.wait)
                                         : SpanKindName(s.kind),
               start_ms, dur_ms,
               s.rows == 0 ? "" : std::to_string(s.rows),
               s.aux == 0 ? "" : std::to_string(s.aux),
               std::to_string(s.tid)});
    const auto& kids = children[id];
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      stack.emplace_back(*it, depth + 1);
    }
  }
  std::string out = "trace " + std::to_string(trace.trace_id());
  const std::string sql = trace.sql();
  if (!sql.empty()) out += ": " + sql;
  out += "\n" + table.ToString();
  if (trace.dropped() != 0) {
    out += "(" + std::to_string(trace.dropped()) + " spans dropped)\n";
  }
  return out;
}

}  // namespace microspec::trace
