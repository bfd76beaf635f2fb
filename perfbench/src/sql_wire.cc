// sql_wire: 4 closed-loop wire connections alternate simple and prepared
// execution of short statements over the small TPC-H tables (region,
// nation, supplier, customer), each well under a millisecond in-process,
// on a server whose database shares query bees across sessions, keeps its
// bees on the program tier and runs the scalar (row-at-a-time) pipeline.
// The only workload through the server and the SQL frontend.

#include <atomic>
#include <cstdio>
#include <thread>

#include "common/rng.h"
#include "common/telemetry.h"
#include "server/client.h"
#include "server/server.h"
#include "sqlfe/engine.h"
#include "workloads.h"
#include "workloads/tpch/dbgen.h"
#include "workloads/tpch/tpch_schema.h"

namespace perfbench {

using namespace microspec;  // NOLINT(google-build-using-namespace)

namespace {

constexpr int kClients = 4;
/// Set-ups on each side of the statements, in place of kSetupsBefore and
/// kSetupsAfter. One takes 10-18 ms here, and single ones spike by a
/// quarter or more (server start took 0.2 ms, sometimes 4-6 ms); twenty
/// cost under 0.4 s.
constexpr int kSetupsEachSide = 10;
/// Statements per second of --seconds (all clients) on the reference host.
constexpr double kStatementsPerSecond = 90.0;
const char* const kTables[] = {"region", "nation", "supplier", "customer"};

using Rows = std::vector<std::vector<std::string>>;

/// The statement set; the seed picks each statement's constants.
std::vector<std::string> MakeStatements(uint64_t seed) {
  Rng rng(seed);
  auto num = [&rng](int lo, int hi) {
    return std::to_string(rng.UniformRange(lo, hi));
  };
  return {
      "SELECT n_name FROM nation WHERE n_regionkey = " + num(0, 4),
      "SELECT count(*) AS n FROM supplier WHERE s_acctbal > " + num(0, 9000),
      "SELECT r_name, count(*) AS n FROM nation JOIN region ON n_regionkey = "
      "r_regionkey GROUP BY r_name ORDER BY r_name",
      "SELECT s_suppkey, s_acctbal FROM supplier WHERE s_acctbal > " +
          num(0, 9000) + " ORDER BY s_acctbal DESC LIMIT 5",
      "SELECT count(*) AS n FROM supplier JOIN nation ON s_nationkey = "
      "n_nationkey WHERE n_regionkey = " +
          num(0, 4),
      "SELECT c_mktsegment, count(*) AS n FROM customer WHERE c_acctbal > " +
          num(0, 9000) + " GROUP BY c_mktsegment ORDER BY c_mktsegment",
      "SELECT c_custkey, c_acctbal FROM customer WHERE c_nationkey = " +
          num(0, 24) + " ORDER BY c_acctbal DESC LIMIT 10",
      "SELECT n_name, count(*) AS n FROM customer JOIN nation ON c_nationkey "
      "= n_nationkey WHERE n_regionkey = " +
          num(0, 4) + " GROUP BY n_name ORDER BY n_name",
  };
}

/// Histogram totals (count, sum) from the process-wide registry.
std::pair<uint64_t, uint64_t> HistTotals(const char* name) {
  telemetry::Histogram::Snapshot s =
      telemetry::Registry::Global().GetHistogram(name)->Snap();
  return {s.count, s.sum};
}

struct PhaseResult {
  Samples latency_ms;
  uint64_t statements = 0;
  uint64_t failed = 0;
  uint64_t mismatched = 0;
  uint64_t wall_ns = 0;
};

/// One wire connection with every statement prepared, and the statements it
/// runs: `picks[i]` indexes the statement set, sent as a simple query for
/// even i and as a prepared execution for odd i.
struct Connection {
  server::Client client;
  bool ready = false;
  std::vector<size_t> picks;
};

/// Runs positions [begin, end) of every connection's statement stream, one
/// thread per connection. With a sink, each statement's round trip is a
/// span in a trace of its own.
PhaseResult RunClients(std::vector<Connection>* conns,
                       const std::vector<std::string>& sql,
                       const std::vector<Rows>& expected, size_t begin,
                       size_t end, TraceSink* traces) {
  struct ClientResult {
    std::vector<double> latency_ms;
    uint64_t failed = 0;
    uint64_t mismatched = 0;
  };
  std::vector<ClientResult> results(conns->size());
  std::vector<std::thread> threads;
  const uint64_t t0 = NowNs();
  for (size_t c = 0; c < conns->size(); ++c) {
    threads.emplace_back([&, c] {
      Connection& conn = (*conns)[c];
      ClientResult& out = results[c];
      if (!conn.ready) {
        out.failed = end - begin;
        return;
      }
      for (size_t i = begin; i < end; ++i) {
        const size_t s = conn.picks[i];
        const bool simple = i % 2 == 0;
        const std::shared_ptr<trace::Trace> tr =
            traces != nullptr ? traces->NewTrace() : nullptr;
        trace::SpanScope span(Root(tr), trace::SpanKind::kStatement,
                              simple ? "client.query" : "client.execute");
        const uint64_t start = NowNs();
        Result<server::QueryResult> r =
            simple ? conn.client.Query(sql[s])
                   : conn.client.Execute("s" + std::to_string(s));
        const uint64_t stop = NowNs();
        if (!r.ok()) {
          ++out.failed;
          continue;
        }
        // A mismatch is counted as failed by the output check.
        if (r->rows != expected[s]) ++out.mismatched;
        out.latency_ms.push_back(Ms(stop - start));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  PhaseResult p;
  p.wall_ns = NowNs() - t0;
  for (const ClientResult& r : results) {
    for (double ms : r.latency_ms) p.latency_ms.Add(ms);
    p.failed += r.failed;
    p.mismatched += r.mismatched;
  }
  p.statements = (end - begin) * conns->size();
  return p;
}

}  // namespace

Status RunSqlWire(const RunConfig& config, Report* report,
                  TraceSink* traces) {
  using trace::SpanKind;
  using trace::SpanScope;
  const std::string dir = config.work_dir + "/sql_wire";
  const std::vector<std::string> sql = MakeStatements(config.seed);

  // Set-up: open, schema, load, forge drain, server start. Each call
  // replaces `srv` and `db`; the statements run on the last ones before
  // them.
  const std::shared_ptr<trace::Trace> setup_trace = traces->NewTrace();
  Samples setup;
  std::unique_ptr<server::Server> srv;
  std::unique_ptr<Database> db;
  auto set_up = [&]() -> Status {
    srv.reset();
    db.reset();
    RemoveTree(dir);
    SpanScope span(Root(setup_trace), SpanKind::kStatement, "setup");
    const uint64_t t0 = NowNs();
    DatabaseOptions opts = BeeDatabaseOptions(dir);
    // Program-tier bees: with the native backend, compiling the four
    // relation bees was 85% of this set-up, and the compiler's time drifted
    // 30% between two sets of ten runs on the reference host. The other
    // workloads cover the forge; this one exists for the server, the
    // statement cache and sqlfe.
    opts.backend = bee::BeeBackend::kProgram;
    opts.share_query_bees = true;
    opts.batch_rows = 0;
    opts.trace_ring = config.trace ? 1 << 16 : 16;
    {
      SpanScope s(span.context(), SpanKind::kStatement, "setup.open");
      db = OpenOrDie(opts, "sql_wire database");
    }
    {
      SpanScope s(span.context(), SpanKind::kDdl, "setup.schema");
      for (const char* t : kTables) {
        MICROSPEC_RETURN_NOT_OK(
            db->CreateTable(t, tpch::TpchSchemaByName(t)).status());
      }
    }
    {
      SpanScope s(span.context(), SpanKind::kStatement, "setup.load");
      for (const char* t : kTables) {
        MICROSPEC_RETURN_NOT_OK(
            tpch::LoadTpchTable(db.get(), t, kTpchScale, kTpchDataSeed));
      }
    }
    {
      SpanScope s(span.context(), SpanKind::kStatement, "setup.forge_drain");
      db->QuiesceBees();
    }
    {
      SpanScope s(span.context(), SpanKind::kSession, "setup.server_start");
      srv = std::make_unique<server::Server>(db.get(), server::ServerOptions{});
      MICROSPEC_RETURN_NOT_OK(srv->Start());
    }
    setup.Add(static_cast<double>(NowNs() - t0) / 1e9);
    return Status::OK();
  };
  for (int k = 0; k < kSetupsEachSide; ++k) MICROSPEC_RETURN_NOT_OK(set_up());
  const bee::ForgeStats forge = db->bees()->stats().forge;

  // The oracle: every statement through the in-process SQL path.
  std::vector<Rows> expected;
  for (const std::string& s : sql) {
    auto ctx = db->MakeContext();
    MICROSPEC_ASSIGN_OR_RETURN(sqlfe::SqlResult r,
                               sqlfe::ExecuteSql(db.get(), ctx.get(), s));
    expected.push_back(std::move(r.rows));
  }

  const uint64_t total = WorkFor(config.seconds, kStatementsPerSecond, 1000);
  const size_t per_client = (total + kClients - 1) / kClients;
  const EngineCounters counters0 = EngineCounters::Read(db.get());
  const auto query0 = HistTotals("microspec_server_query_ns");
  const auto admit0 = HistTotals("microspec_server_admission_wait_ns");

  // Each connection's statement stream comes from the seed alone, so a
  // traced run executes exactly the statements an untraced one does.
  std::vector<Connection> conns(kClients);
  for (size_t c = 0; c < conns.size(); ++c) {
    Connection& conn = conns[c];
    conn.ready = conn.client.Connect("127.0.0.1", srv->port()).ok();
    for (size_t s = 0; conn.ready && s < sql.size(); ++s) {
      const std::string name = "s" + std::to_string(s);
      conn.ready =
          conn.client.Parse(name, sql[s]).ok() && conn.client.Bind(name).ok();
    }
    Rng rng(config.seed * 1000003 + c);
    for (size_t i = 0; i < per_client; ++i) {
      conn.picks.push_back(rng.Uniform(sql.size()));
    }
  }

  // A traced run spends the first half of every stream sampled (every
  // statement gets a span tree) and the second half unsampled; an untraced
  // run spends all of it unsampled.
  const size_t half = config.trace ? per_client / 2 : 0;
  PhaseResult traced;
  if (config.trace) {
    db->tracer()->set_sample_n(1);
    traced = RunClients(&conns, sql, expected, 0, half, traces);
    db->tracer()->set_sample_n(0);
  }
  const PhaseResult timed =
      RunClients(&conns, sql, expected, half, per_client, nullptr);
  for (Connection& conn : conns) conn.client.Terminate();

  const auto query1 = HistTotals("microspec_server_query_ns");
  const auto admit1 = HistTotals("microspec_server_admission_wait_ns");
  const EngineCounters counters1 = EngineCounters::Read(db.get());
  const server::StmtCache::Stats cache = srv->stmt_cache()->stats();
  const QueryBeeCache::Stats bee_cache = db->shared_bees()->stats();
  srv->Shutdown();

  const uint64_t statements = traced.statements + timed.statements;
  report->Ops(statements, traced.failed + timed.failed);
  if (traced.mismatched + timed.mismatched > 0) {
    report->CheckFailed("wire rows differ from in-process sqlfe::ExecuteSql",
                        traced.mismatched + timed.mismatched);
  }

  const double tput =
      static_cast<double>(timed.statements) / (timed.wall_ns / 1e9);
  report->EndToEnd("throughput_ops_s", "1/s", tput);
  report->EndToEnd("latency_p50_ms", "ms", timed.latency_ms.Median(),
                   &timed.latency_ms);
  report->TailLatency(timed.latency_ms);
  report->EndToEnd("peak_rss_mb", "MB", PeakRssMb());
  (void)db->Checkpoint();
  report->EndToEnd("db_size_mb", "MB", TreeSizeMb(dir));
  report->Note("sql_wire: " + std::to_string(statements) + " statements, " +
               std::to_string(kClients) + " connections, " +
               std::to_string(sql.size()) + " statement shapes");

  ReportCounters(counters0, counters1, statements, forge, report);
  const double query_us =
      query1.first == query0.first
          ? 0
          : static_cast<double>(query1.second - query0.second) / 1e3 /
                static_cast<double>(query1.first - query0.first);
  const double admit_us =
      admit1.first == admit0.first
          ? 0
          : static_cast<double>(admit1.second - admit0.second) / 1e3 /
                static_cast<double>(admit1.first - admit0.first);
  report->Layer("server.query_us", query_us);
  report->Layer("server.admission_wait_us", admit_us);
  // Wire wait: the client's round trip minus the server's statement time.
  const double rtt_ms = (timed.latency_ms.Sum() + traced.latency_ms.Sum()) /
                        static_cast<double>(timed.latency_ms.size() +
                                            traced.latency_ms.size());
  const double wire_ms = rtt_ms - query_us / 1e3;
  report->Layer("server.wire_wait_ms", wire_ms);
  report->Layer("server.wire_wait_share", wire_ms / rtt_ms);
  report->Layer("server.stmt_cache.hit_ratio",
                static_cast<double>(cache.hits) /
                    static_cast<double>(cache.hits + cache.misses));
  report->Layer("bee.query_bee_cache.hit_ratio",
                static_cast<double>(bee_cache.hits) /
                    static_cast<double>(bee_cache.hits + bee_cache.misses));
  if (config.trace) {
    uint64_t parse = 0, plan = 0, exec = 0, count = 0;
    for (const auto& t : db->tracer()->Recent()) {
      parse += t->TotalNs(trace::SpanKind::kParse);
      plan += t->TotalNs(trace::SpanKind::kPlan);
      exec += t->TotalNs(trace::SpanKind::kExec);
      ++count;
      traces->Add(t);
    }
    if (count > 0) {
      const double c = static_cast<double>(count) * 1e3;
      report->Layer("sqlfe.parse_us", static_cast<double>(parse) / c);
      report->Layer("sqlfe.plan_us", static_cast<double>(plan) / c);
      report->Layer("sqlfe.exec_us", static_cast<double>(exec) / c);
    }
    const double traced_tput =
        static_cast<double>(traced.statements) / (traced.wall_ns / 1e9);
    report->Layer("trace.overhead_pct", (tput - traced_tput) / tput * 100.0);
  }
  for (int k = 0; k < kSetupsEachSide; ++k) MICROSPEC_RETURN_NOT_OK(set_up());
  report->EndToEnd("setup_s", "s", setup.Median(), &setup);
  srv.reset();
  db.reset();
  RemoveTree(dir);
  return Status::OK();
}

}  // namespace perfbench
