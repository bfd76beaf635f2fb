#ifndef MICROSPEC_COMMON_TRACING_H_
#define MICROSPEC_COMMON_TRACING_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/macros.h"
#include "common/status.h"

namespace microspec::telemetry {
struct TelemetrySnapshot;
}  // namespace microspec::telemetry

namespace microspec::trace {

/// --- End-to-end query span tracing ------------------------------------------
/// The paper's methodology is per-query attribution: it explains each win by
/// counting where the cycles went. The telemetry registry (PR 3) aggregates
/// process-wide totals; this module adds the per-query view — a tree of
/// timed spans (session → statement → parse/plan/exec → operator →
/// bee invocation) with explicit wait-state attribution (forge waits,
/// gather-queue stalls, page I/O, admission queuing), so one sampled query
/// decomposes into *where time went* instead of a single latency number.
///
/// Overhead contract (same discipline as telemetry::Enabled()):
///   * sampling off (`trace_sample_n == 0`, the default): no Trace object
///     exists, ExecContext::trace() is a null TraceContext, the operator
///     decorators are not installed, and the only residual cost is a
///     pointer-null test on per-query (never per-row) paths;
///   * wait attribution on shared code paths (buffer pool reads, Gather's
///     bounded queue) keys off a thread-local that is only installed while a
///     *sampled* query is driving that thread, so unsampled queries pay one
///     thread-local load on their miss/stall paths and nothing anywhere else;
///   * a sampled query records spans per operator / phase / wait — dozens of
///     mutex-guarded appends per query, never per row.

/// What a span measures. kFragment marks one worker's slice of a parallel
/// operator; its parent is the operator's span and start/end updates fold
/// into the parent's window, so the tree stays connected across threads.
enum class SpanKind : uint8_t {
  kSession,    // one server connection
  kStatement,  // one SQL statement
  kParse,      // SQL text -> AST (or statement-cache lookup)
  kPlan,       // AST -> operator tree
  kExec,       // driving the operator tree
  kOperator,   // one plan operator (whole-operator window under dop > 1)
  kFragment,   // one worker's fragment of a parallel operator
  kBee,        // aggregated bee invocations of one operator
  kWait,       // blocked time, classified by WaitKind
  kDdl,        // CREATE TABLE body (includes relation-bee forging)
  kEvent,      // background-lane lifecycle event (forge, cache build, reject)
};

const char* SpanKindName(SpanKind kind);

/// Wait-state taxonomy (DESIGN.md §10). Attached to SpanKind::kWait spans.
enum class WaitKind : uint8_t {
  kNone = 0,
  kForge,        // waiting on EVP/EVJ specialization + verification
  kGatherQueue,  // blocked on Gather's bounded hand-off queue (either side)
  kPageIo,       // buffer-pool miss reading a page from disk
  kAdmission,    // connection queued for a server session slot
};

const char* WaitKindName(WaitKind kind);

struct Span {
  uint32_t id = 0;      // 1-based within the trace; 0 = "no span"
  uint32_t parent = 0;  // 0 = root
  SpanKind kind = SpanKind::kStatement;
  WaitKind wait = WaitKind::kNone;
  uint32_t tid = 0;        // small process-unique thread ordinal
  uint64_t start_ns = 0;   // steady clock (telemetry::NowNs)
  uint64_t end_ns = 0;     // 0 while open
  uint64_t rows = 0;       // operator/bee spans: rows produced / rows in
  uint64_t aux = 0;        // operator: work-ops; bee: rows out
  std::string name;
};

/// A small process-unique ordinal for the calling thread (Chrome trace
/// lanes; distinct from telemetry::ThreadShard, which wraps at kShards).
uint32_t ThreadOrdinal();

/// One sampled query's (or session's) span buffer. Thread-safe: parallel
/// fragments append from worker threads. Span count is capped; appends past
/// the cap are counted in dropped() instead of growing without bound.
/// Shareable from within so the slow-query log can reference the trace a
/// statement ran under.
class Trace : public std::enable_shared_from_this<Trace> {
 public:
  explicit Trace(uint64_t trace_id, size_t max_spans = 4096)
      : trace_id_(trace_id), max_spans_(max_spans) {}
  MICROSPEC_DISALLOW_COPY_AND_MOVE(Trace);

  uint64_t trace_id() const { return trace_id_; }

  /// Opens a span now; returns its id (0 if the trace is full).
  uint32_t Begin(uint32_t parent, SpanKind kind, std::string name);
  /// Opens a span with an explicit start time (e.g. a statement span that
  /// must contain the parse work done before sampling was decided).
  uint32_t BeginAt(uint32_t parent, SpanKind kind, std::string name,
                   uint64_t start_ns);
  /// Closes span `id` now. No-op for id 0.
  void End(uint32_t id);
  /// Adds an already-measured span (wait states, retroactive parse spans).
  uint32_t AddComplete(uint32_t parent, SpanKind kind, std::string name,
                       uint64_t start_ns, uint64_t end_ns,
                       WaitKind wait = WaitKind::kNone, uint64_t rows = 0,
                       uint64_t aux = 0);
  /// Sets the rows/aux payload of span `id`.
  void SetArgs(uint32_t id, uint64_t rows, uint64_t aux);

  /// --- Operator spans (wired by Plan::Instrument) --------------------------
  /// Registers the span for plan-stats node `node_id` and re-parents the
  /// spans of `child_nodes` (already registered — plans build bottom-up)
  /// under it. The span's window stays empty until fragments/profilers run.
  uint32_t NewOpSpan(int node_id, const std::string& label,
                     const std::vector<int>& child_nodes);
  /// A per-worker fragment span under node `node_id`'s operator span.
  uint32_t NewFragmentSpan(int node_id, int fragment);
  /// First Init of the instrumented operator: start = min(start, now), and a
  /// fragment folds its window into the parent operator span.
  void OpStart(uint32_t id);
  /// Flush on Close: end = max(end, now); rows/aux accumulate (fragments
  /// additionally accumulate into the parent operator span).
  void OpEnd(uint32_t id, uint64_t rows, uint64_t aux);

  /// Parent for spans recorded by operators that only know their context
  /// (bee invocation summaries): the exec span, once the driver opens it.
  void SetDefaultParent(uint32_t id);
  uint32_t default_parent() const;

  void set_sql(std::string sql);
  std::string sql() const;
  /// The query ordinal that sampled this trace (1-based; 0 for forced).
  void set_seq(uint64_t seq) { seq_.store(seq, std::memory_order_relaxed); }
  uint64_t seq() const { return seq_.load(std::memory_order_relaxed); }

  /// Spans recorded so far, id order. Open spans have end_ns == 0.
  std::vector<Span> Snapshot() const;
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  /// Total duration of the first root span (0 if none closed yet).
  uint64_t RootDurationNs() const;
  /// Sum of closed spans of `kind` (phase accounting for the slow log).
  uint64_t TotalNs(SpanKind kind) const;

 private:
  uint32_t Append(Span span);  // takes mutex_

  const uint64_t trace_id_;
  const size_t max_spans_;
  std::atomic<uint64_t> seq_{0};
  std::atomic<uint64_t> dropped_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::unordered_map<int, uint32_t> op_span_by_node_;
  uint32_t default_parent_ = 0;
  std::string sql_;
};

/// --- Thread-local wait attribution ------------------------------------------
/// Shared infrastructure (the buffer pool, Gather's queue) cannot thread a
/// TraceContext through every call; instead the query driver installs the
/// active trace on its thread for the duration of execution, and the stall
/// sites ask "is a sampled query driving me right now?".

/// True when a sampled query's trace is installed on this thread. The one
/// test unsampled queries pay on their miss/stall paths.
bool ThreadTraceActive();

/// Records a wait span [start_ns, end_ns) under the installed trace; no-op
/// when none is installed.
void RecordWait(WaitKind kind, uint64_t start_ns, uint64_t end_ns);

/// RAII install/restore of the thread's active trace. Constructing with a
/// null trace is a no-op (so call sites need no branches).
class ThreadTraceScope {
 public:
  ThreadTraceScope(Trace* t, uint32_t span);
  ~ThreadTraceScope();
  MICROSPEC_DISALLOW_COPY_AND_MOVE(ThreadTraceScope);

 private:
  Trace* prev_trace_;
  uint32_t prev_span_;
};

/// --- TraceContext -----------------------------------------------------------
/// What flows through ExecContext: the sampled query's trace (null for the
/// overwhelming majority of queries) and the span new children attach to.
struct TraceContext {
  Trace* trace = nullptr;
  uint32_t parent = 0;

  explicit operator bool() const { return trace != nullptr; }
  TraceContext Child(uint32_t span) const { return {trace, span}; }
};

/// RAII span over a scope; no-op when the context is null.
class SpanScope {
 public:
  SpanScope(const TraceContext& tc, SpanKind kind, std::string name)
      : trace_(tc.trace) {
    if (trace_ != nullptr) id_ = trace_->Begin(tc.parent, kind, std::move(name));
  }
  ~SpanScope() {
    if (trace_ != nullptr) trace_->End(id_);
  }
  MICROSPEC_DISALLOW_COPY_AND_MOVE(SpanScope);

  uint32_t id() const { return id_; }
  TraceContext context() const { return {trace_, id_}; }
  void SetArgs(uint64_t rows, uint64_t aux) {
    if (trace_ != nullptr) trace_->SetArgs(id_, rows, aux);
  }

 private:
  Trace* trace_;
  uint32_t id_ = 0;
};

/// --- Slow-query log ---------------------------------------------------------

/// A statement over the latency threshold. Its phase totals, SQL text and
/// operator spans are read from the trace it ran under, not copied.
struct SlowQuery {
  uint64_t ts_ns = 0;  // when the statement finished (steady clock)
  uint64_t total_ns = 0;
  std::shared_ptr<const Trace> trace;  // never null
};

/// --- Tracer -----------------------------------------------------------------
/// Owned by Database. Deterministic sampling: statements are numbered from 1
/// by an atomic counter and statement q is sampled iff sample_n != 0 and
/// (q - 1) % sample_n == 0 — no RNG, so a fixed workload yields a fixed
/// sample set (tested). Finished traces land in a bounded ring; statements
/// over the latency threshold additionally land in the slow-query log, which
/// references their traces.
struct TracerOptions {
  uint32_t sample_n = 0;       // 0 = tracing off
  size_t ring_capacity = 16;   // finished traces retained
  size_t max_spans = 4096;     // per-trace span cap
  uint64_t slow_query_ns = 250'000'000;  // slow-query threshold (250 ms)
  size_t slow_log_capacity = 64;
};

class Tracer {
 public:
  explicit Tracer(TracerOptions options = {});
  MICROSPEC_DISALLOW_COPY_AND_MOVE(Tracer);

  /// Cheap pre-check for call sites: is any sampling configured?
  bool sampling() const {
    return sample_n_.load(std::memory_order_relaxed) != 0;
  }
  /// Runtime toggle (sql_shell \trace, the overhead gate).
  void set_sample_n(uint32_t n) {
    sample_n_.store(n, std::memory_order_relaxed);
  }
  uint32_t sample_n() const {
    return sample_n_.load(std::memory_order_relaxed);
  }

  uint64_t slow_query_ns() const { return options_.slow_query_ns; }
  void set_slow_query_ns(uint64_t ns) { options_.slow_query_ns = ns; }

  /// Counts this statement; returns a fresh Trace when it is sampled, null
  /// otherwise. The caller owns publishing.
  std::shared_ptr<Trace> MaybeSample();
  /// A trace outside the sampling sequence (tools, tests).
  std::shared_ptr<Trace> StartForced();

  /// Moves a finished trace into the ring (evicting the oldest).
  void Publish(std::shared_ptr<Trace> trace);

  void RecordSlow(SlowQuery slow);

  /// Ring contents, oldest first.
  std::vector<std::shared_ptr<const Trace>> Recent() const;
  /// Most recently published trace, or null.
  std::shared_ptr<const Trace> Latest() const;
  /// Slow-query log, oldest first.
  std::vector<SlowQuery> SlowLog() const;

  uint64_t statements_seen() const {
    return stmt_counter_.load(std::memory_order_relaxed);
  }
  uint64_t sampled_total() const {
    return sampled_total_.load(std::memory_order_relaxed);
  }

  /// Chrome trace_event JSON ({"traceEvents": [...]}) over the whole ring
  /// plus the background lane (pid 0); loads in chrome://tracing /
  /// Perfetto. Each trace renders as one pid group, threads as tids, wait
  /// spans carry their WaitKind as category.
  std::string ChromeTraceJson() const;

  /// The process-wide background lane: events that belong to no query
  /// (forge lifecycle, shared-cache builds, verifier rejects), recorded by
  /// RecordEvent. Its ring holds kBackgroundTraces traces of at most
  /// kBackgroundTraceSpans spans each, so the lane keeps at most the newest
  /// kBackgroundTraces * kBackgroundTraceSpans events. Leaked like
  /// telemetry::Registry::Global().
  static Tracer& Background();

  /// Tracer-level counters for SnapshotTelemetry (sampled/dropped totals).
  void FillSnapshot(telemetry::TelemetrySnapshot* snap) const;

 private:
  TracerOptions options_;
  std::atomic<uint32_t> sample_n_;
  std::atomic<uint64_t> stmt_counter_{0};
  std::atomic<uint64_t> sampled_total_{0};
  std::atomic<uint64_t> trace_ids_{0};
  mutable std::mutex mutex_;
  std::deque<std::shared_ptr<Trace>> ring_;
  std::deque<SlowQuery> slow_log_;
};

constexpr size_t kBackgroundTraceSpans = 256;
constexpr size_t kBackgroundTraces = 4;

/// Appends one closed span "<event> <handle>[: <detail>]" over
/// [start_ns, end_ns] to the background lane. Per compile, cache miss or
/// reject — never per row.
void RecordEvent(std::string_view event, std::string_view handle,
                 uint64_t start_ns, uint64_t end_ns,
                 std::string_view detail = {});

/// The build-outcome record shared by the statement cache ("stmt:") and the
/// query-bee cache ("evp:"/"evj:"): a "queued" event at `start_ns`, then
/// "succeeded" or "cancelled" (detail = why) over the build time. The
/// handle is `prefix` plus the key's hash in hex.
void RecordBuild(const char* prefix, std::string_view key, uint64_t start_ns,
                 const Status& outcome);

/// Renders a trace as an indented span tree (shared by sql_shell \trace and
/// bee_inspector --trace/--slow/--metrics), via telemetry::TextTable.
std::string RenderTraceTree(const Trace& trace);

/// Chrome trace_event JSON for an explicit trace list (the Tracer ring
/// rendering uses this too).
std::string ChromeTraceJson(
    const std::vector<std::shared_ptr<const Trace>>& traces);

}  // namespace microspec::trace

#endif  // MICROSPEC_COMMON_TRACING_H_
