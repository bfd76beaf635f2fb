// tpch_inmem and tpch_outofcore: q1..q22 in one seeded shuffled order,
// repeated for a fixed number of passes, on a bee-enabled database (native
// relation and tuple bees, page-sized batches, dop 1, one client). The two
// differ only in the buffer pool: 8192 frames hold the whole SF 0.05
// database (6,124 pages); 1024 frames hold a sixth of it, so every pass
// floods the LRU and the storage miss path does most of the work.

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/rng.h"
#include "exec/analyze.h"
#include "exec/batch.h"
#include "workloads.h"
#include "workloads/tpch/dbgen.h"
#include "workloads/tpch/tpch_queries.h"
#include "workloads/tpch/tpch_schema.h"

namespace perfbench {

using namespace microspec;  // NOLINT(google-build-using-namespace)

namespace {

constexpr size_t kInMemFrames = 8192;
constexpr size_t kOutOfCoreFrames = 1024;
/// Passes per second of --seconds on the reference host.
constexpr double kInMemPassesPerSecond = 0.75;
constexpr double kOutOfCorePassesPerSecond = 0.34;  // 5 passes at 15 s

/// A query's result: its row count and an order-insensitive fingerprint
/// (the wrapping sum of a hash of each row's text, floats at 6 significant
/// digits — the rendering the differential tests compare).
struct QueryResult {
  uint64_t rows = 0;
  uint64_t fingerprint = 0;
};

std::string GoldenPath(const RunConfig& config) {
  return config.golden_dir + "/tpch_sf0.05_seed42.txt";
}

uint64_t HashRow(const std::vector<ColMeta>& meta, const Datum* v,
                 const bool* isnull) {
  std::string row;
  for (size_t i = 0; i < meta.size(); ++i) {
    row += '|';
    if (isnull != nullptr && isnull[i]) {
      row += "NULL";
      continue;
    }
    switch (meta[i].type) {
      case TypeId::kBool:
        row += DatumToBool(v[i]) ? "t" : "f";
        break;
      case TypeId::kInt32:
      case TypeId::kInt64:
      case TypeId::kDate:
        row += std::to_string(DatumToInt64(v[i]));
        break;
      case TypeId::kFloat64: {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.6g", DatumToFloat64(v[i]));
        row += buf;
        break;
      }
      case TypeId::kChar:
        row.append(DatumToPointer(v[i]), static_cast<size_t>(meta[i].attlen));
        break;
      case TypeId::kVarchar:
        row += VarlenaView(v[i]);
        break;
    }
  }
  uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (char c : row) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

Result<QueryResult> RunWithFingerprint(Database* db, int q) {
  auto ctx = db->MakeContext();
  MICROSPEC_ASSIGN_OR_RETURN(OperatorPtr plan, tpch::BuildTpchQuery(q, ctx.get()));
  QueryResult r;
  Operator* op = plan.get();
  MICROSPEC_RETURN_NOT_OK(ForEachRow(op, [&](const Datum* v, const bool* n) {
    ++r.rows;
    r.fingerprint += HashRow(op->output_meta(), v, n);
  }));
  return r;
}

Status LoadGoldens(const RunConfig& config, std::vector<QueryResult>* out) {
  std::ifstream in(GoldenPath(config));
  if (!in) return Status::IoError("missing goldens " + GoldenPath(config));
  out->assign(tpch::kNumTpchQueries + 1, QueryResult{});
  std::string line;
  int found = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    int q = 0;
    QueryResult r;
    std::string fp;
    if (!(fields >> q >> r.rows >> fp) || q < 1 ||
        q > tpch::kNumTpchQueries) {
      return Status::Corruption("bad golden line: " + line);
    }
    r.fingerprint = std::stoull(fp, nullptr, 16);
    (*out)[static_cast<size_t>(q)] = r;
    ++found;
  }
  if (found != tpch::kNumTpchQueries) {
    return Status::Corruption("goldens must list all 22 queries");
  }
  return Status::OK();
}

/// Inclusive minus children, per operator kind ("SeqScan(lineitem)" counts
/// as "SeqScan"): the self-time computation EXPLAIN ANALYZE's inclusive
/// figures need.
void AddSelfTimes(const QueryStats& qs, std::map<std::string, double>* out) {
  const auto& nodes = qs.nodes();
  for (const QueryStats::Node& n : nodes) {
    uint64_t children = 0;
    for (int c : n.children) children += nodes[static_cast<size_t>(c)].time_ns;
    const uint64_t self = n.time_ns > children ? n.time_ns - children : 0;
    (*out)[n.label.substr(0, n.label.find('('))] += Ms(self);
  }
}

}  // namespace

Status MakeTpchGoldens(const RunConfig& config) {
  const std::string dir = config.work_dir + "/goldens-db";
  RemoveTree(dir);
  DatabaseOptions opts;
  opts.dir = dir;
  auto db = OpenOrDie(opts, "stock database");
  MICROSPEC_RETURN_NOT_OK(tpch::CreateTpchTables(db.get()));
  MICROSPEC_RETURN_NOT_OK(tpch::LoadTpch(db.get(), kTpchScale, kTpchDataSeed));
  std::ofstream out(GoldenPath(config));
  if (!out) return Status::IoError("cannot write " + GoldenPath(config));
  out << "# TPC-H analog results at SF 0.05, data seed 42, from the stock\n"
         "# engine (bees off, scalar execution). Columns: query, rows,\n"
         "# order-insensitive fingerprint (perfbench/src/tpch.cc).\n";
  for (int q = 1; q <= tpch::kNumTpchQueries; ++q) {
    MICROSPEC_ASSIGN_OR_RETURN(QueryResult r, RunWithFingerprint(db.get(), q));
    char fp[24];
    std::snprintf(fp, sizeof(fp), "%016" PRIx64, r.fingerprint);
    out << q << " " << r.rows << " " << fp << "\n";
  }
  db.reset();
  RemoveTree(dir);
  return Status::OK();
}

Status RunTpch(const RunConfig& config, bool out_of_core, Report* report,
               TraceSink* traces) {
  using trace::SpanKind;
  using trace::SpanScope;
  std::vector<QueryResult> goldens;
  MICROSPEC_RETURN_NOT_OK(LoadGoldens(config, &goldens));

  // Set-up: open, schema, load, forge drain. Each call replaces `db`; the
  // queries run on the last one before them.
  const std::shared_ptr<trace::Trace> setup_trace = traces->NewTrace();
  Samples setup;
  std::unique_ptr<Database> db;
  std::string dir;
  int setups = 0;
  auto set_up = [&]() -> Status {
    if (db != nullptr) {
      db.reset();
      RemoveTree(dir);
    }
    dir = config.work_dir + "/tpch-" + std::to_string(setups++);
    RemoveTree(dir);
    SpanScope span(Root(setup_trace), SpanKind::kStatement, "setup");
    const uint64_t t0 = NowNs();
    DatabaseOptions opts = BeeDatabaseOptions(dir);
    opts.buffer_pool_frames = out_of_core ? kOutOfCoreFrames : kInMemFrames;
    opts.batch_rows = kMaxTuplesPerPage;
    {
      SpanScope s(span.context(), SpanKind::kStatement, "setup.open");
      db = OpenOrDie(opts, "tpch database");
    }
    {
      SpanScope s(span.context(), SpanKind::kDdl, "setup.schema");
      MICROSPEC_RETURN_NOT_OK(tpch::CreateTpchTables(db.get()));
    }
    {
      SpanScope s(span.context(), SpanKind::kStatement, "setup.load");
      MICROSPEC_RETURN_NOT_OK(
          tpch::LoadTpch(db.get(), kTpchScale, kTpchDataSeed));
    }
    {
      SpanScope s(span.context(), SpanKind::kStatement, "setup.forge_drain");
      db->QuiesceBees();
    }
    setup.Add(static_cast<double>(NowNs() - t0) / 1e9);
    return Status::OK();
  };
  for (int k = 0; k < kSetupsBefore; ++k) MICROSPEC_RETURN_NOT_OK(set_up());
  const bee::ForgeStats forge =
      db->bees() != nullptr ? db->bees()->stats().forge : bee::ForgeStats{};

  // One seeded order of q1..q22, repeated every pass.
  std::vector<int> order;
  for (int q = 1; q <= tpch::kNumTpchQueries; ++q) order.push_back(q);
  Rng rng(config.seed);
  for (size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[rng.Uniform(i + 1)]);
  }

  // Untimed warm-up pass that also checks every result against the stock
  // engine's golden.
  std::vector<bool> query_ok(tpch::kNumTpchQueries + 1, true);
  for (int q : order) {
    Result<QueryResult> r = RunWithFingerprint(db.get(), q);
    const QueryResult& g = goldens[static_cast<size_t>(q)];
    if (!r.ok() || r->rows != g.rows || r->fingerprint != g.fingerprint) {
      query_ok[static_cast<size_t>(q)] = false;
    }
  }

  const uint64_t passes = WorkFor(
      config.seconds,
      out_of_core ? kOutOfCorePassesPerSecond : kInMemPassesPerSecond, 2);
  std::vector<Samples> per_query(tpch::kNumTpchQueries + 1);
  Samples all, traced_ms;
  uint64_t traced_passes = 0, failed = 0;
  uint64_t plan_ns = 0, exec_ns = 0, io_wait_ns = 0;
  std::map<std::string, double> self_ms;
  const EngineCounters before = EngineCounters::Read(db.get());
  for (uint64_t pass = 0; pass < passes; ++pass) {
    // A traced run alternates traced and untraced passes: the untraced ones
    // give the latencies, the traced ones the breakdown and the overhead.
    const bool traced = config.trace && pass % 2 == 0;
    if (traced) ++traced_passes;
    for (int q : order) {
      auto ctx = db->MakeContext();
      QueryStats qs;
      std::shared_ptr<trace::Trace> tr;
      uint32_t root = 0;
      if (traced) {
        // The forced trace bench_tpch_warm --trace-gate installs, plus the
        // EXPLAIN ANALYZE collector that gives operators their spans. The
        // benchmark's plan and exec spans go in the same trace, so its id
        // identifies the operation.
        tr = db->tracer()->StartForced();
        root = tr->Begin(0, SpanKind::kStatement, "q" + std::to_string(q));
        tr->SetDefaultParent(root);
        ctx->set_trace(trace::TraceContext{tr.get(), root});
        ctx->set_analyze(&qs);
      }
      const trace::TraceContext tc{tr.get(), root};
      trace::ThreadTraceScope scope(tr.get(), root);
      const uint64_t t0 = NowNs();
      Result<OperatorPtr> plan = Status::Internal("unbuilt");
      {
        SpanScope s(tc, SpanKind::kPlan, "plan");
        plan = tpch::BuildTpchQuery(q, ctx.get());
      }
      Result<uint64_t> rows = Status::Internal("unrun");
      if (plan.ok()) {
        SpanScope s(tc, SpanKind::kExec, "exec");
        rows = CountRows(plan->get());
      }
      const uint64_t t1 = NowNs();
      // Executions of a query that failed its golden check are counted
      // below, with the check.
      if (query_ok[static_cast<size_t>(q)] &&
          (!rows.ok() || *rows != goldens[static_cast<size_t>(q)].rows)) {
        ++failed;
      }
      if (traced) {
        tr->End(root);
        traces->Add(tr);
        plan_ns += tr->TotalNs(SpanKind::kPlan);
        exec_ns += tr->TotalNs(SpanKind::kExec);
        for (const trace::Span& s : tr->Snapshot()) {
          if (s.wait == trace::WaitKind::kPageIo && s.end_ns > s.start_ns) {
            io_wait_ns += s.end_ns - s.start_ns;
          }
        }
        AddSelfTimes(qs, &self_ms);
        traced_ms.Add(Ms(t1 - t0));
      } else {
        per_query[static_cast<size_t>(q)].Add(Ms(t1 - t0));
        all.Add(Ms(t1 - t0));
      }
    }
  }
  const EngineCounters after = EngineCounters::Read(db.get());
  const uint64_t ops = passes * order.size();
  report->Ops(ops, failed);
  for (int q = 1; q <= tpch::kNumTpchQueries; ++q) {
    if (!query_ok[static_cast<size_t>(q)]) {
      report->CheckFailed("q" + std::to_string(q) +
                              " result differs from the stock-engine golden",
                          passes);
    }
  }

  // End-to-end. The typical latency is the geometric mean of the queries'
  // mean times, in the style of the TPC-H power metric. A query's median
  // over its 6-15 executions flips with the host's speed (13% spread over
  // five out-of-core seeds, against 3% for throughput); its mean does not.
  std::vector<double> means;
  for (int q = 1; q <= tpch::kNumTpchQueries; ++q) {
    means.push_back(per_query[static_cast<size_t>(q)].Mean());
  }
  const double tput = OpsPerSecond(all);
  (void)db->Checkpoint();  // so the on-disk size is the whole database
  report->EndToEnd("throughput_ops_s", "1/s", tput);
  report->EndToEnd("latency_p50_ms", "ms", GeoMean(means), &all);
  report->TailLatency(all);
  report->EndToEnd("peak_rss_mb", "MB", PeakRssMb());
  report->EndToEnd("db_size_mb", "MB", TreeSizeMb(dir));
  char note[160];
  std::snprintf(note, sizeof(note),
                "%s: %llu passes x 22 queries, pool %zu frames, %.0f pages "
                "on disk",
                out_of_core ? "tpch_outofcore" : "tpch_inmem",
                static_cast<unsigned long long>(passes),
                out_of_core ? kOutOfCoreFrames : kInMemFrames,
                TreeSizeMb(dir) * 1024 * 1024 / 8192);
  report->Note(note);

  // Per-layer.
  ReportCounters(before, after, ops, forge, report);
  for (int q = 1; q <= tpch::kNumTpchQueries; ++q) {
    report->Layer("tpch.q" + std::to_string(q) + "_p50_ms",
                  per_query[static_cast<size_t>(q)].Median());
  }
  if (traced_passes > 0) {
    const double traced_ops = static_cast<double>(traced_ms.size());
    report->Layer("exec.plan_ms", Ms(plan_ns) / traced_ops);
    report->Layer("exec.run_ms", Ms(exec_ns) / traced_ops);
    for (const auto& [op, ms] : self_ms) {
      const std::string name = "exec." + op + ".self_ms";
      if (IsLayerMetric(name)) {
        report->Layer(name, ms / static_cast<double>(traced_passes));
      }
    }
    report->Layer("storage.page_io_wait_ms", Ms(io_wait_ns) / traced_ops);
    const double traced_tput = OpsPerSecond(traced_ms);
    report->Layer("trace.overhead_pct", (tput - traced_tput) / tput * 100.0);
  }
  for (int k = 0; k < kSetupsAfter; ++k) MICROSPEC_RETURN_NOT_OK(set_up());
  report->EndToEnd("setup_s", "s", setup.Median(), &setup);
  db.reset();
  RemoveTree(dir);
  return Status::OK();
}

}  // namespace perfbench
