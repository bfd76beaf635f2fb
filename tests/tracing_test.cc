// Span tracing end-to-end: sampling determinism, span-tree structure across
// serial and parallel (dop > 1) execution, ring-buffer wrap, Chrome
// trace_event JSON round-trip, and slow-query capture. The parallel cases
// are the reason this suite is a standalone binary: check.sh runs it under
// TSan, where fragment spans appending from worker threads while the driver
// thread opens/closes phase spans is exactly the race surface to certify.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bee/native_jit.h"
#include "common/telemetry.h"
#include "common/tracing.h"
#include "sqlfe/engine.h"
#include "test_util.h"
#include "workloads/tpch/tpch_schema.h"

namespace microspec {
namespace {

using sqlfe::ExecuteSql;
using sqlfe::SqlResult;
using testing::ScratchDir;

/// --- Minimal JSON syntax checker ---------------------------------------------
/// Enough of RFC 8259 to certify that ChromeTraceJson emits well-formed
/// JSON (chrome://tracing is unforgiving about trailing commas and bad
/// escapes). Validates structure only, no object model.
class JsonScanner {
 public:
  explicit JsonScanner(const std::string& s) : s_(s) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }
  bool Literal(const char* lit) {
    size_t n = std::strlen(lit);
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  bool String() {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      char c = s_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        char e = s_[pos_++];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            if (pos_ >= s_.size() ||
                !std::isxdigit(static_cast<unsigned char>(s_[pos_]))) {
              return false;
            }
            ++pos_;
          }
        } else if (std::strchr("\"\\/bfnrt", e) == nullptr) {
          return false;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control character inside a string
      }
    }
    return false;
  }
  bool Number() {
    size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Value() {
    SkipWs();
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }
  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == '}') { ++pos_; return true; }
    for (;;) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (pos_ >= s_.size() || s_[pos_++] != ':') return false;
      if (!Value()) return false;
      SkipWs();
      if (pos_ >= s_.size()) return false;
      char c = s_[pos_++];
      if (c == '}') return true;
      if (c != ',') return false;
    }
  }
  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == ']') { ++pos_; return true; }
    for (;;) {
      if (!Value()) return false;
      SkipWs();
      if (pos_ >= s_.size()) return false;
      char c = s_[pos_++];
      if (c == ']') return true;
      if (c != ',') return false;
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

/// A bee tier and batch size to run a traced query under.
struct TierConfig {
  bee::BeeBackend backend = bee::BeeBackend::kProgram;
  int batch_rows = 0;
  const char* label = "program_scalar";
};

void PrintTo(const TierConfig& tier, std::ostream* os) { *os << tier.label; }

std::unique_ptr<Database> OpenTraced(const std::string& dir, uint32_t sample_n,
                                     int dop = 1,
                                     const TierConfig& tier = TierConfig{}) {
  DatabaseOptions opts;
  opts.dir = dir;
  opts.enable_bees = true;
  opts.verify_mode = bee::VerifyMode::kEnforce;
  opts.buffer_pool_frames = 2048;
  opts.trace_sample_n = sample_n;
  opts.dop = dop;
  opts.backend = tier.backend;
  opts.batch_rows = tier.batch_rows;
  auto res = Database::Open(std::move(opts));
  MICROSPEC_CHECK(res.ok());
  return res.MoveValue();
}

SqlResult MustSql(Database* db, ExecContext* ctx, const std::string& sql) {
  auto r = ExecuteSql(db, ctx, sql);
  EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  return r.ok() ? r.MoveValue() : SqlResult{};
}

void LoadInts(Database* db, ExecContext* ctx, const std::string& table,
              int rows) {
  MustSql(db, ctx,
          "CREATE TABLE " + table + " (a INT NOT NULL, b INT NOT NULL)");
  // Batched inserts: 64 rows per statement keeps statement counts small so
  // sampling arithmetic in the tests stays easy to reason about.
  std::string values;
  int emitted = 0;
  for (int i = 0; i < rows; ++i) {
    if (!values.empty()) values += ", ";
    values += "(" + std::to_string(i) + ", " + std::to_string(i % 7) + ")";
    if (++emitted == 64 || i + 1 == rows) {
      MustSql(db, ctx, "INSERT INTO " + table + " VALUES " + values);
      values.clear();
      emitted = 0;
    }
  }
}

/// --- Sampling ----------------------------------------------------------------

TEST(TracerUnit, DeterministicSampling) {
  trace::TracerOptions opts;
  opts.sample_n = 3;
  trace::Tracer tracer(opts);
  std::vector<uint64_t> sampled_seqs;
  for (int i = 0; i < 10; ++i) {
    std::shared_ptr<trace::Trace> t = tracer.MaybeSample();
    if (t != nullptr) sampled_seqs.push_back(t->seq());
  }
  // Statements are numbered from 1; q is sampled iff (q - 1) % 3 == 0.
  EXPECT_EQ(sampled_seqs, (std::vector<uint64_t>{1, 4, 7, 10}));
  EXPECT_EQ(tracer.statements_seen(), 10u);
  EXPECT_EQ(tracer.sampled_total(), 4u);
}

TEST(TracerUnit, SampleNZeroNeverSamples) {
  trace::Tracer tracer;  // default sample_n = 0
  EXPECT_FALSE(tracer.sampling());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(tracer.MaybeSample(), nullptr);
  EXPECT_EQ(tracer.sampled_total(), 0u);
  EXPECT_EQ(tracer.statements_seen(), 100u);
}

TEST(TracerUnit, RuntimeToggle) {
  trace::Tracer tracer;
  EXPECT_EQ(tracer.MaybeSample(), nullptr);
  tracer.set_sample_n(1);
  EXPECT_NE(tracer.MaybeSample(), nullptr);
  tracer.set_sample_n(0);
  EXPECT_EQ(tracer.MaybeSample(), nullptr);
}

/// --- Ring buffer ---------------------------------------------------------------

TEST(TracerUnit, RingWrapKeepsNewest) {
  trace::TracerOptions opts;
  opts.ring_capacity = 4;
  trace::Tracer tracer(opts);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 10; ++i) {
    std::shared_ptr<trace::Trace> t = tracer.StartForced();
    ids.push_back(t->trace_id());
    t->AddComplete(0, trace::SpanKind::kStatement, "s", 1, 2);
    tracer.Publish(std::move(t));
  }
  std::vector<std::shared_ptr<const trace::Trace>> recent = tracer.Recent();
  ASSERT_EQ(recent.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(recent[i]->trace_id(), ids[6 + i]) << "ring slot " << i;
  }
  ASSERT_NE(tracer.Latest(), nullptr);
  EXPECT_EQ(tracer.Latest()->trace_id(), ids.back());
}

TEST(TraceUnit, SpanCapCountsDropped) {
  trace::Trace t(/*trace_id=*/1, /*max_spans=*/8);
  for (int i = 0; i < 20; ++i) {
    t.AddComplete(0, trace::SpanKind::kWait, "w", 1, 2);
  }
  EXPECT_EQ(t.Snapshot().size(), 8u);
  EXPECT_EQ(t.dropped(), 12u);
}

/// --- Wait attribution ---------------------------------------------------------

TEST(TraceUnit, ThreadScopeRecordsWaits) {
  trace::Trace t(1);
  EXPECT_FALSE(trace::ThreadTraceActive());
  trace::RecordWait(trace::WaitKind::kPageIo, 10, 20);  // no-op: no scope
  EXPECT_TRUE(t.Snapshot().empty());
  {
    uint32_t root = t.Begin(0, trace::SpanKind::kExec, "exec");
    trace::ThreadTraceScope scope(&t, root);
    EXPECT_TRUE(trace::ThreadTraceActive());
    trace::RecordWait(trace::WaitKind::kPageIo, 10, 25);
    {
      trace::ThreadTraceScope inner(nullptr, 0);  // null install is a no-op
      EXPECT_TRUE(trace::ThreadTraceActive());
    }
    t.End(root);
  }
  EXPECT_FALSE(trace::ThreadTraceActive());
  std::vector<trace::Span> spans = t.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].kind, trace::SpanKind::kWait);
  EXPECT_EQ(spans[1].wait, trace::WaitKind::kPageIo);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[1].end_ns - spans[1].start_ns, 15u);
}

/// --- End-to-end span trees ------------------------------------------------------

/// Asserts the single-rooted parent structure every exported trace must
/// have, and returns spans indexed by id.
std::map<uint32_t, trace::Span> CheckConnected(const trace::Trace& t) {
  std::map<uint32_t, trace::Span> by_id;
  int roots = 0;
  for (const trace::Span& s : t.Snapshot()) by_id[s.id] = s;
  for (const auto& [id, s] : by_id) {
    if (s.parent == 0) {
      ++roots;
    } else {
      EXPECT_TRUE(by_id.count(s.parent))
          << "span " << id << " (" << s.name << ") has unknown parent "
          << s.parent;
    }
    EXPECT_GE(s.end_ns, s.start_ns) << s.name;
    EXPECT_NE(s.end_ns, 0u) << "span left open: " << s.name;
  }
  EXPECT_EQ(roots, 1) << "expected a single-rooted span tree";
  return by_id;
}

int CountKind(const std::map<uint32_t, trace::Span>& by_id,
              trace::SpanKind kind) {
  int n = 0;
  for (const auto& [id, s] : by_id) n += s.kind == kind ? 1 : 0;
  return n;
}

/// Checks the span tree of the latest trace, which must be `sql`'s.
void CheckSelectSpans(Database* db, const std::string& sql) {
  std::shared_ptr<const trace::Trace> t = db->tracer()->Latest();
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->sql(), sql);
  std::map<uint32_t, trace::Span> by_id = CheckConnected(*t);

  // The root is the statement; parse, plan, and exec phases hang under it.
  const trace::Span& root = by_id.begin()->second;
  EXPECT_EQ(root.kind, trace::SpanKind::kStatement);
  EXPECT_EQ(root.name, "select");
  EXPECT_EQ(CountKind(by_id, trace::SpanKind::kParse), 1);
  EXPECT_EQ(CountKind(by_id, trace::SpanKind::kPlan), 1);
  EXPECT_EQ(CountKind(by_id, trace::SpanKind::kExec), 1);
  // Operator spans: Select(projection) or HashAggregate -> Filter ->
  // SeqScan, plus one aggregated bee-invocation span from the filter.
  EXPECT_GE(CountKind(by_id, trace::SpanKind::kOperator), 3);
  EXPECT_EQ(CountKind(by_id, trace::SpanKind::kBee), 1);

  uint32_t exec_id = 0;
  for (const auto& [id, s] : by_id) {
    if (s.kind == trace::SpanKind::kExec) exec_id = id;
  }
  for (const auto& [id, s] : by_id) {
    if (s.kind == trace::SpanKind::kOperator && s.name.rfind("SeqScan", 0) == 0) {
      EXPECT_EQ(s.rows, 100u) << "scan span carries rows produced";
    }
    if (s.kind == trace::SpanKind::kBee) {
      EXPECT_EQ(s.name, "evp-bee");
      EXPECT_EQ(s.parent, exec_id);
      EXPECT_EQ(s.rows, 100u);  // rows in
      EXPECT_EQ(s.aux, 25u);    // rows out
    }
  }
  EXPECT_GT(t->RootDurationNs(), 0u);
}

/// Runs `SELECT a FROM t WHERE a < 25` and its count(*) form under `tier`
/// and checks each statement's span tree. The Filter's evp-bee span must
/// read exactly 100 rows in and 25 out on every tier: the plain SELECT is
/// drained row by row (Project::Next), while count(*) drives the Filter
/// through NextBatch whenever batching is on.
void CheckSerialSelectSpanTree(const TierConfig& tier) {
  ScratchDir dir;
  std::unique_ptr<Database> db = OpenTraced(dir.path() + "/db", 1, 1, tier);
  std::unique_ptr<ExecContext> ctx = db->MakeContext();
  LoadInts(db.get(), ctx.get(), "t", 100);
  // Every bee reaches its final tier first, so a native config runs the
  // compiled EVP.
  db->QuiesceBees();
  for (const char* sql : {"SELECT a FROM t WHERE a < 25",
                          "SELECT count(*) FROM t WHERE a < 25"}) {
    SCOPED_TRACE(sql);
    MustSql(db.get(), ctx.get(), sql);
    CheckSelectSpans(db.get(), sql);
  }
}

TEST(TracingEndToEnd, SerialSelectSpanTree) {
  CheckSerialSelectSpanTree(TierConfig{});
}

/// The same span tree on the other tiers: batch64 on the program tier, and
/// the native tier scalar and batched when a C compiler is present.
class TracingTiers : public ::testing::TestWithParam<TierConfig> {};

TEST_P(TracingTiers, SerialSelectSpanTree) {
  if (GetParam().backend == bee::BeeBackend::kNative &&
      !bee::NativeJit::CompilerAvailable()) {
    GTEST_SKIP() << "no C compiler for the native tier";
  }
  CheckSerialSelectSpanTree(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Configs, TracingTiers,
    ::testing::Values(
        TierConfig{bee::BeeBackend::kProgram, 64, "program_batch64"},
        TierConfig{bee::BeeBackend::kNative, 0, "native_scalar"},
        TierConfig{bee::BeeBackend::kNative, 64, "native_batch64"}),
    ::testing::PrintToStringParamName());

TEST(TracingEndToEnd, UnsampledStatementsLeaveNoTrace) {
  ScratchDir dir;
  std::unique_ptr<Database> db = OpenTraced(dir.path() + "/db", 0);
  std::unique_ptr<ExecContext> ctx = db->MakeContext();
  LoadInts(db.get(), ctx.get(), "t", 10);
  MustSql(db.get(), ctx.get(), "SELECT a FROM t");
  EXPECT_EQ(db->tracer()->Latest(), nullptr);
  EXPECT_EQ(db->tracer()->sampled_total(), 0u);
  EXPECT_GT(db->tracer()->statements_seen(), 0u);
}

TEST(TracingEndToEnd, ParallelFragmentsFoldIntoOperators) {
  ScratchDir dir;
  std::unique_ptr<Database> db = OpenTraced(dir.path() + "/db", 1, /*dop=*/4);
  std::unique_ptr<ExecContext> ctx = db->MakeContext();
  LoadInts(db.get(), ctx.get(), "t", 500);
  MustSql(db.get(), ctx.get(),
          "SELECT b, count(*) AS n FROM t WHERE a < 400 GROUP BY b");

  std::shared_ptr<const trace::Trace> t = db->tracer()->Latest();
  ASSERT_NE(t, nullptr);
  std::map<uint32_t, trace::Span> by_id = CheckConnected(*t);

  // dop = 4 plans fragment the scan: fragment spans exist and each one's
  // parent is an operator span whose window contains the fragment's.
  int fragments = 0;
  uint64_t scan_fragment_rows = 0;
  for (const auto& [id, s] : by_id) {
    if (s.kind != trace::SpanKind::kFragment) continue;
    ++fragments;
    const auto parent = by_id.find(s.parent);
    ASSERT_NE(parent, by_id.end());
    EXPECT_EQ(parent->second.kind, trace::SpanKind::kOperator);
    EXPECT_LE(parent->second.start_ns, s.start_ns);
    EXPECT_GE(parent->second.end_ns, s.end_ns);
    if (parent->second.name.rfind("ParallelScan", 0) == 0) {
      scan_fragment_rows += s.rows;
    }
  }
  EXPECT_GE(fragments, 4);
  EXPECT_EQ(scan_fragment_rows, 500u) << "fragment rows must sum to the scan";
  for (const auto& [id, s] : by_id) {
    if (s.kind == trace::SpanKind::kOperator &&
        s.name.rfind("ParallelScan", 0) == 0) {
      EXPECT_EQ(s.rows, 500u) << "operator window aggregates its fragments";
    }
  }
}

/// --- Chrome trace_event JSON -----------------------------------------------------

TEST(ChromeJson, RoundTripsStructure) {
  trace::TracerOptions opts;
  opts.sample_n = 1;
  trace::Tracer tracer(opts);
  std::shared_ptr<trace::Trace> t = tracer.MaybeSample();
  ASSERT_NE(t, nullptr);
  t->set_sql("SELECT \"quoted\"\\path\n");  // exercises JSON escaping
  uint32_t stmt = t->BeginAt(0, trace::SpanKind::kStatement, "select", 1000);
  t->AddComplete(stmt, trace::SpanKind::kParse, "parse", 1000, 2000);
  uint32_t exec = t->BeginAt(stmt, trace::SpanKind::kExec, "exec", 2500);
  t->AddComplete(exec, trace::SpanKind::kWait, "page-io", 2600, 2900,
                 trace::WaitKind::kPageIo);
  t->End(exec);
  t->End(stmt);
  tracer.Publish(std::move(t));

  std::string json = tracer.ChromeTraceJson();
  EXPECT_TRUE(JsonScanner(json).Valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"select\""), std::string::npos);
  EXPECT_NE(json.find("\"parse\""), std::string::npos);
  // Wait spans carry their WaitKind as the event category.
  EXPECT_NE(json.find("\"cat\":\"page-io\""), std::string::npos);
  // Exactly one complete event per span.
  size_t events = 0;
  for (size_t p = json.find("\"ph\":\"X\""); p != std::string::npos;
       p = json.find("\"ph\":\"X\"", p + 1)) {
    ++events;
  }
  EXPECT_EQ(events, 4u);
}

TEST(ChromeJson, EmptyRingIsValidJson) {
  trace::Tracer tracer;
  std::string json = tracer.ChromeTraceJson();
  EXPECT_TRUE(JsonScanner(json).Valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

TEST(ChromeJson, EndToEndExportIsValid) {
  ScratchDir dir;
  std::unique_ptr<Database> db = OpenTraced(dir.path() + "/db", 1, /*dop=*/2);
  std::unique_ptr<ExecContext> ctx = db->MakeContext();
  LoadInts(db.get(), ctx.get(), "t", 200);
  MustSql(db.get(), ctx.get(),
          "SELECT a, b FROM t WHERE b = 3 ORDER BY a LIMIT 5");
  std::string json = db->tracer()->ChromeTraceJson();
  EXPECT_TRUE(JsonScanner(json).Valid()) << json.substr(0, 2000);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}

/// --- Slow-query log ---------------------------------------------------------------

TEST(SlowQueryLog, CapturesOverThresholdWithAnalyzeTree) {
  ScratchDir dir;
  std::unique_ptr<Database> db = OpenTraced(dir.path() + "/db", 1);
  std::unique_ptr<ExecContext> ctx = db->MakeContext();
  LoadInts(db.get(), ctx.get(), "t", 50);

  // Threshold 0: every sampled statement qualifies.
  db->tracer()->set_slow_query_ns(0);
  MustSql(db.get(), ctx.get(), "SELECT a FROM t WHERE a < 10");
  std::vector<trace::SlowQuery> log = db->tracer()->SlowLog();
  ASSERT_FALSE(log.empty());
  const trace::SlowQuery& slow = log.back();
  ASSERT_NE(slow.trace, nullptr);
  const trace::Trace& t = *slow.trace;
  EXPECT_EQ(t.sql(), "SELECT a FROM t WHERE a < 10");
  EXPECT_GT(slow.total_ns, 0u);
  // Phase totals come from the referenced trace.
  const uint64_t parse_ns = t.TotalNs(trace::SpanKind::kParse);
  const uint64_t plan_ns = t.TotalNs(trace::SpanKind::kPlan);
  const uint64_t exec_ns = t.TotalNs(trace::SpanKind::kExec);
  EXPECT_GT(parse_ns, 0u);
  EXPECT_GT(exec_ns, 0u);
  EXPECT_GE(slow.total_ns, parse_ns + plan_ns + exec_ns);
  // So do the plan operators: one started span each.
  std::vector<std::string> ops;
  for (const trace::Span& s : t.Snapshot()) {
    if (s.kind == trace::SpanKind::kOperator && s.start_ns != 0) {
      ops.push_back(s.name);
    }
  }
  EXPECT_NE(std::find(ops.begin(), ops.end(), "SeqScan(t)"), ops.end());
  EXPECT_NE(std::find(ops.begin(), ops.end(), "Filter"), ops.end());

  // A threshold far above any test query: no new entries.
  const size_t before = db->tracer()->SlowLog().size();
  db->tracer()->set_slow_query_ns(60'000'000'000ULL);
  MustSql(db.get(), ctx.get(), "SELECT a FROM t WHERE a < 10");
  EXPECT_EQ(db->tracer()->SlowLog().size(), before);
}

TEST(SlowQueryLog, CapacityBoundsEntries) {
  trace::TracerOptions opts;
  opts.slow_log_capacity = 3;
  trace::Tracer tracer(opts);
  for (int i = 0; i < 10; ++i) {
    trace::SlowQuery q;
    q.total_ns = 1;
    q.trace = std::make_shared<trace::Trace>(static_cast<uint64_t>(i));
    tracer.RecordSlow(std::move(q));
  }
  std::vector<trace::SlowQuery> log = tracer.SlowLog();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0].trace->trace_id(), 7u);
  EXPECT_EQ(log[2].trace->trace_id(), 9u);
}

/// --- Rendering ---------------------------------------------------------------------

TEST(TraceRender, TreeShowsIndentedSpans) {
  ScratchDir dir;
  std::unique_ptr<Database> db = OpenTraced(dir.path() + "/db", 1);
  std::unique_ptr<ExecContext> ctx = db->MakeContext();
  LoadInts(db.get(), ctx.get(), "t", 20);
  MustSql(db.get(), ctx.get(), "SELECT a FROM t WHERE a < 5");
  std::shared_ptr<const trace::Trace> t = db->tracer()->Latest();
  ASSERT_NE(t, nullptr);
  std::string tree = trace::RenderTraceTree(*t);
  EXPECT_NE(tree.find("select"), std::string::npos);
  EXPECT_NE(tree.find("exec"), std::string::npos);
  EXPECT_NE(tree.find("  "), std::string::npos);  // children are indented
  EXPECT_NE(tree.find("SELECT a FROM t WHERE a < 5"), std::string::npos);
}

TEST(TraceRender, UnstartedOperatorSpanHasEmptyWindow) {
  // A statement that failed during execution leaves operator spans that
  // NewOpSpan registered but whose operator never reached Init.
  trace::Trace t(/*trace_id=*/1);
  const uint32_t stmt = t.AddComplete(0, trace::SpanKind::kStatement, "select",
                                      1'000'000, 3'000'000);
  t.NewOpSpan(/*node_id=*/0, "SeqScan(t)", {});
  t.SetDefaultParent(stmt);
  const std::string tree = trace::RenderTraceTree(t);
  std::vector<std::string> lines;
  for (size_t pos = 0, nl; (nl = tree.find('\n', pos)) != std::string::npos;
       pos = nl + 1) {
    lines.push_back(tree.substr(pos, nl - pos));
  }
  auto cells = [](const std::string& line) {
    std::vector<std::string> out;
    std::istringstream in(line);
    for (std::string cell; in >> cell;) out.push_back(cell);
    return out;
  };
  ASSERT_EQ(lines.size(), 5u) << tree;  // title, header, rule, two spans
  EXPECT_EQ(cells(lines[3]),
            (std::vector<std::string>{"select", "statement", "0.000", "2.000",
                                      std::to_string(trace::ThreadOrdinal())}))
      << tree;
  // Name, kind and tid only: no start, duration, rows or aux.
  EXPECT_EQ(cells(lines[4]),
            (std::vector<std::string>{"SeqScan(t)", "operator", "0"}))
      << tree;
}

/// --- Background lane ------------------------------------------------------------
/// Last in the file: these tests fill the process-wide lane, which every
/// Tracer::ChromeTraceJson() appends.

TEST(BackgroundLane, KeepsNewestSpansUpToCap) {
  constexpr size_t kCap =
      trace::kBackgroundTraces * trace::kBackgroundTraceSpans;
  constexpr size_t kRecorded = kCap + trace::kBackgroundTraceSpans / 2 + 3;
  const uint64_t now = telemetry::NowNs();
  for (size_t i = 0; i < kRecorded; ++i) {
    trace::RecordEvent("bound-test", std::to_string(i), now, now);
  }
  size_t total = 0;
  std::vector<size_t> kept;
  for (const auto& t : trace::Tracer::Background().Recent()) {
    for (const trace::Span& s : t->Snapshot()) {
      ++total;
      if (s.name.rfind("bound-test ", 0) == 0) {
        kept.push_back(std::stoul(s.name.substr(11)));
      }
    }
  }
  EXPECT_LE(total, kCap);
  // The survivors are the newest events, oldest first, with no gaps: at
  // least every full trace but the one evicted last.
  ASSERT_GE(kept.size(), kCap - trace::kBackgroundTraceSpans);
  EXPECT_EQ(kept.back(), kRecorded - 1);
  for (size_t i = 1; i < kept.size(); ++i) {
    EXPECT_EQ(kept[i], kept[i - 1] + 1);
  }
}

/// A real forge run records queued -> started -> succeeded, in that order,
/// for each relation.
TEST(BackgroundLane, ForgeLifecycleOrdering) {
  if (!bee::NativeJit::CompilerAvailable()) {
    GTEST_SKIP() << "no C compiler on this host";
  }
  const uint64_t start_ns = telemetry::NowNs();
  ScratchDir dir;
  auto db = testing::OpenDb(dir.path() + "/db", /*enable_bees=*/true,
                            /*tuple_bees=*/false, bee::BeeBackend::kNative);
  ASSERT_OK(tpch::CreateTpchTables(db.get()));
  db->QuiesceBees();

  std::map<std::string, std::vector<std::string>> by_relation;
  for (const trace::Span& s : testing::LaneSpansSince(start_ns)) {
    const size_t space = s.name.find(' ');
    ASSERT_NE(space, std::string::npos) << s.name;
    by_relation[s.name.substr(space + 1)].push_back(s.name.substr(0, space));
  }
  EXPECT_EQ(by_relation.size(), 8u);  // the 8 TPC-H relations
  for (const auto& [relation, events] : by_relation) {
    EXPECT_EQ(events, (std::vector<std::string>{"queued", "started",
                                                "succeeded"}))
        << relation;
  }
}

/// /trace shows the lane: forge and shared-cache lifecycle spans land in
/// every tracer's Chrome export as pid 0, category "event".
TEST(BackgroundLane, ChromeJsonCarriesLifecycleSpans) {
  const bool native = bee::NativeJit::CompilerAvailable();
  ScratchDir dir;
  DatabaseOptions opts;
  opts.dir = dir.path() + "/db";
  opts.enable_bees = true;
  opts.verify_mode = bee::VerifyMode::kEnforce;
  opts.share_query_bees = true;
  if (native) opts.backend = bee::BeeBackend::kNative;
  auto res = Database::Open(std::move(opts));
  ASSERT_OK(res.status());
  std::unique_ptr<Database> db = res.MoveValue();
  std::unique_ptr<ExecContext> ctx = db->MakeContext();
  LoadInts(db.get(), ctx.get(), "lane_t", 20);
  db->QuiesceBees();
  MustSql(db.get(), ctx.get(), "SELECT a FROM lane_t WHERE b = 3");

  const std::string json = db->tracer()->ChromeTraceJson();
  EXPECT_TRUE(JsonScanner(json).Valid()) << json.substr(0, 2000);
  EXPECT_NE(json.find("\"name\":\"queued evp:"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"succeeded evp:"), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"event\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":0,"), std::string::npos);
  if (native) {
    EXPECT_NE(json.find("\"name\":\"queued lane_t\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"succeeded lane_t\""), std::string::npos);
  }
}

}  // namespace
}  // namespace microspec
