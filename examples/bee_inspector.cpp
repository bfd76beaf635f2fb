// Bee inspector: shows what the bee module actually builds for a relation —
// the compiled GCL deform program (the portable backend), the Listing-2-style
// C source lowered from it (the native backend), and the tuple-bee data
// sections after loading data.
//
//   ./build/examples/example_bee_inspector
//
// With --verify it instead runs the static bee verifier over every relation
// bee of the TPC-H and TPC-C schemas (both backends, tuple bees on) and
// reports per-relation results; the exit code is non-zero on any reject.
//
//   ./build/examples/example_bee_inspector --verify
//
// With --forge it opens a native-backend database, creates the TPC-H
// relations (native compilation runs asynchronously in the forge), drives a
// skewed scan workload to build up hotness, drains the forge, and prints the
// per-relation tier table: phase, per-tier invocation counts, and any pinned
// diagnostic.
//
//   ./build/examples/example_bee_inspector --forge
//
// With --metrics it runs a short TPC-H workload on a bee-enabled database
// with full instrumentation and prints the unified telemetry snapshot: a
// per-relation tier table, the background lane's span tree (forge and
// shared-cache lifecycle events), and the full Prometheus text exposition.
//
//   ./build/examples/example_bee_inspector --metrics
//
// With --fuzz it runs the mutation-fuzz proof harness: thousands of seeded
// single-step mutants across every verification family (GCL, SCL, EVP, EVJ,
// logapp), each of which must be rejected. Optional
// arguments pin the seed and per-family mutant count; the exit code is
// non-zero if any catalog-inconsistent mutant goes undetected.
//
//   ./build/examples/example_bee_inspector --fuzz [seed [count]]
//
// With --trace it runs a short SQL workload over TPC-H data with every
// statement sampled (trace_sample_n=1, dop 2), prints the span tree of each
// sampled query — session phases, operators, fragments, bee invocations,
// wait states — and, with a file argument, exports the whole trace ring as
// Chrome trace_event JSON for chrome://tracing / Perfetto.
//
//   ./build/examples/example_bee_inspector --trace [out.json]
//
// With --slow it runs the same workload with the slow-query threshold at
// zero so every statement qualifies, and prints the slow-query log: per-
// phase latency breakdown read from each entry's trace, plus the span tree
// of the slowest statement.
//
//   ./build/examples/example_bee_inspector --slow

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bee/bee_module.h"
#include "bee/mutation_fuzz.h"
#include "bee/native_jit.h"
#include "bee/verifier.h"
#include "common/telemetry.h"
#include "common/tracing.h"
#include "engine/database.h"
#include "exec/batch.h"
#include "exec/seq_scan.h"
#include "sqlfe/engine.h"
#include "workloads/tpcc/tpcc_schema.h"
#include "workloads/tpch/dbgen.h"
#include "workloads/tpch/tpch_schema.h"

using namespace microspec;

namespace {

/// Verifies every relation bee in `db`; prints one line per relation.
/// Returns the number of rejects.
int VerifyAll(Database* db, const char* label) {
  int rejects = 0;
  std::printf("--- %s ---\n", label);
  for (TableInfo* t : db->catalog()->AllTables()) {
    bee::RelationBeeState* state = db->bees()->StateFor(t->id());
    if (state == nullptr) {
      std::printf("  %-12s NO BEE\n", t->name().c_str());
      ++rejects;
      continue;
    }
    Status st = bee::BeeVerifier::VerifyDeform(
        state->gcl(), t->schema(), state->stored_schema(), state->spec_cols());
    if (st.ok()) {
      st = bee::BeeVerifier::VerifyForm(state->scl(), t->schema(),
                                        state->stored_schema(),
                                        state->spec_cols());
    }
    // The native source is lowered from the programs just verified, so
    // there is no separate native check to run.
    const bool native_lowered = !state->native_source().empty();
    if (st.ok()) {
      std::printf("  %-12s ok (%zu deform steps, %zu form steps%s%s)\n",
                  t->name().c_str(), state->gcl().steps().size(),
                  state->scl().steps().size(),
                  state->has_tuple_bees() ? ", tuple bees" : "",
                  native_lowered
                      ? ", native lowered from the verified program"
                      : "");
    } else {
      std::printf("  %-12s REJECTED: %s\n", t->name().c_str(),
                  st.ToString().c_str());
      ++rejects;
    }
  }
  return rejects;
}

int RunVerifyMode() {
  bee::BeeBackend backend = bee::NativeJit::CompilerAvailable()
                                ? bee::BeeBackend::kNative
                                : bee::BeeBackend::kProgram;
  int rejects = 0;
  {
    std::string dir = "/tmp/microspec_inspector_verify_tpch";
    (void)std::system(("rm -rf " + dir).c_str());
    DatabaseOptions options;
    options.dir = dir;
    options.enable_bees = true;
    options.enable_tuple_bees = true;
    options.backend = backend;
    auto db = Database::Open(std::move(options)).MoveValue();
    MICROSPEC_CHECK(tpch::CreateTpchTables(db.get()).ok());
    rejects += VerifyAll(db.get(), "TPC-H relation bees");
  }
  {
    std::string dir = "/tmp/microspec_inspector_verify_tpcc";
    (void)std::system(("rm -rf " + dir).c_str());
    DatabaseOptions options;
    options.dir = dir;
    options.enable_bees = true;
    options.enable_tuple_bees = true;
    options.backend = backend;
    auto db = Database::Open(std::move(options)).MoveValue();
    MICROSPEC_CHECK(tpcc::CreateTpccTables(db.get()).ok());
    rejects += VerifyAll(db.get(), "TPC-C relation bees");
  }
  std::printf("\n%s\n", rejects == 0 ? "all relation bees verified"
                                     : "REJECTS FOUND");
  return rejects == 0 ? 0 : 1;
}

/// Per-relation tier table rendered with the shared telemetry::TextTable —
/// the same helper --metrics uses, so the two modes cannot drift apart in
/// column-width logic.
std::string TierTable(Database* db) {
  telemetry::TextTable table;
  table.Header({"relation", "phase", "program-invs", "native-invs",
                "batch-calls(p/n)", "note"});
  for (TableInfo* t : db->catalog()->AllTables()) {
    bee::RelationBeeState* state = db->bees()->StateFor(t->id());
    if (state == nullptr) continue;
    table.Row({t->name(), bee::ForgePhaseName(state->forge_phase()),
               std::to_string(state->program_tier_invocations()),
               std::to_string(state->native_tier_invocations()),
               std::to_string(state->program_batch_calls()) + "/" +
                   std::to_string(state->native_batch_calls()),
               state->forge_phase() == bee::ForgePhase::kPinned
                   ? state->forge_error()
                   : ""});
  }
  return table.ToString();
}

/// --metrics: runs a short instrumented TPC-H workload and prints the
/// unified telemetry view — tier table, background lane, Prometheus text.
int RunMetricsMode() {
  telemetry::SetEnabled(true);
  std::string dir = "/tmp/microspec_inspector_metrics";
  (void)std::system(("rm -rf " + dir).c_str());
  DatabaseOptions options;
  options.dir = dir;
  options.enable_bees = true;
  options.enable_tuple_bees = true;
  if (bee::NativeJit::CompilerAvailable()) {
    options.backend = bee::BeeBackend::kNative;
  }
  auto db = Database::Open(std::move(options)).MoveValue();
  MICROSPEC_CHECK(tpch::CreateTpchTables(db.get()).ok());
  MICROSPEC_CHECK(tpch::LoadTpch(db.get(), 0.002).ok());
  for (TableInfo* t : db->catalog()->AllTables()) {
    auto ctx = db->MakeContext();
    SeqScan s(ctx.get(), t);
    MICROSPEC_CHECK(CountRows(&s).ok());
  }
  db->QuiesceBees();
  for (TableInfo* t : db->catalog()->AllTables()) {
    auto ctx = db->MakeContext();
    SeqScan s(ctx.get(), t);
    MICROSPEC_CHECK(CountRows(&s).ok());
  }
  // A page-granular batch pass per relation feeds the GCL-B batch-tier
  // counters, so the tier table and the batch-call metrics below show live
  // numbers.
  for (TableInfo* t : db->catalog()->AllTables()) {
    auto ctx = db->MakeContext();
    ctx->set_batch(kMaxTuplesPerPage);
    SeqScan s(ctx.get(), t);
    MICROSPEC_CHECK(s.Init().ok());
    RowBatch batch(static_cast<int>(s.output_meta().size()),
                   kMaxTuplesPerPage);
    for (;;) {
      MICROSPEC_CHECK(s.NextBatch(&batch).ok());
      if (batch.selected() == 0) break;
    }
    s.Close();
    batch.Reset();
  }

  std::printf("=== per-relation tiers ===\n\n%s", TierTable(db.get()).c_str());

  telemetry::TelemetrySnapshot snap = db->SnapshotTelemetry();

  std::printf("\n=== background lane ===\n");
  for (const auto& t : trace::Tracer::Background().Recent()) {
    std::printf("\n%s", trace::RenderTraceTree(*t).c_str());
  }

  std::printf("\n=== prometheus exposition ===\n\n%s",
              snap.ToPrometheusText().c_str());
  return 0;
}

/// --forge: live view of the tiered-compilation runtime. Creates the TPC-H
/// relations under the native backend (DDL returns immediately; compiles run
/// in the forge), drives a skewed scan workload so relations differ in
/// hotness, drains the forge, and prints the tier table.
int RunForgeMode() {
  if (!bee::NativeJit::CompilerAvailable()) {
    std::printf("--forge needs the native backend; no C compiler found\n");
    return 0;
  }
  std::string dir = "/tmp/microspec_inspector_forge";
  (void)std::system(("rm -rf " + dir).c_str());
  DatabaseOptions options;
  options.dir = dir;
  options.enable_bees = true;
  options.backend = bee::BeeBackend::kNative;
  auto db = Database::Open(std::move(options)).MoveValue();
  MICROSPEC_CHECK(tpch::CreateTpchTables(db.get()).ok());
  MICROSPEC_CHECK(tpch::LoadTpch(db.get(), 0.002).ok());

  // Skewed workload: lineitem is scanned often, orders occasionally, the
  // rest once — the forge promotes the hottest pending relation first.
  auto scan = [&](const char* name, int reps) {
    TableInfo* t = db->catalog()->GetTable(name);
    for (int i = 0; i < reps; ++i) {
      auto ctx = db->MakeContext();
      SeqScan s(ctx.get(), t);
      MICROSPEC_CHECK(CountRows(&s).ok());
    }
  };
  for (TableInfo* t : db->catalog()->AllTables()) scan(t->name().c_str(), 1);
  scan("lineitem", 8);
  scan("orders", 3);
  db->QuiesceBees();
  // One more scan per relation: everything promoted now runs natively.
  for (TableInfo* t : db->catalog()->AllTables()) scan(t->name().c_str(), 1);
  // And one page-granular batch pass per relation, so the GCL-B batch-tier
  // counters in the table below are live numbers, not dashes.
  for (TableInfo* t : db->catalog()->AllTables()) {
    auto ctx = db->MakeContext();
    ctx->set_batch(kMaxTuplesPerPage);
    SeqScan s(ctx.get(), t);
    MICROSPEC_CHECK(s.Init().ok());
    RowBatch batch(static_cast<int>(s.output_meta().size()),
                   kMaxTuplesPerPage);
    for (;;) {
      MICROSPEC_CHECK(s.NextBatch(&batch).ok());
      if (batch.selected() == 0) break;
    }
    s.Close();
    batch.Reset();
  }

  std::printf("=== forge tier table (after quiesce) ===\n\n");
  std::printf("%s", TierTable(db.get()).c_str());

  bee::ForgeStats fs = db->bees()->stats().forge;
  std::printf("\n--- forge stats ---\n");
  std::printf("enqueued %llu, promoted %llu, retries %llu, failures %llu, "
              "pinned %llu, cancelled %llu\n",
              static_cast<unsigned long long>(fs.enqueued),
              static_cast<unsigned long long>(fs.promotions),
              static_cast<unsigned long long>(fs.retries),
              static_cast<unsigned long long>(fs.failures),
              static_cast<unsigned long long>(fs.pinned),
              static_cast<unsigned long long>(fs.cancelled));
  std::printf("compile time: %.1f ms total, %.1f ms max\n",
              fs.compile_seconds_total * 1e3, fs.compile_seconds_max * 1e3);
  bee::BeeStats stats = db->bees()->stats();
  std::printf("tier invocations across all relations: program %llu, "
              "native %llu\n",
              static_cast<unsigned long long>(stats.program_tier_invocations),
              static_cast<unsigned long long>(stats.native_tier_invocations));
  std::printf("GCL-B batch calls across all relations: program %llu, "
              "native %llu\n",
              static_cast<unsigned long long>(
                  stats.program_batch_tier_invocations),
              static_cast<unsigned long long>(
                  stats.native_batch_tier_invocations));
  return fs.promotions > 0 ? 0 : 1;
}

/// Opens a bee-enabled TPC-H database with span tracing on (every statement
/// sampled) and runs a small SQL workload through the front end, so the
/// traces cover scans, EVP filters, an EVJ join, aggregation, and dop-2
/// fragments.
std::unique_ptr<Database> RunTracedTpchWorkload(uint64_t slow_query_ns) {
  std::string dir = "/tmp/microspec_inspector_trace";
  (void)std::system(("rm -rf " + dir).c_str());
  telemetry::SetEnabled(true);
  DatabaseOptions options;
  options.dir = dir;
  options.enable_bees = true;
  options.enable_tuple_bees = true;
  options.dop = 2;
  options.trace_sample_n = 1;
  options.slow_query_ns = slow_query_ns;
  if (bee::NativeJit::CompilerAvailable()) {
    options.backend = bee::BeeBackend::kNative;
  }
  auto db = Database::Open(std::move(options)).MoveValue();
  MICROSPEC_CHECK(tpch::CreateTpchTables(db.get()).ok());
  MICROSPEC_CHECK(tpch::LoadTpch(db.get(), 0.002).ok());
  db->QuiesceBees();

  const char* queries[] = {
      "SELECT count(*) AS n FROM lineitem WHERE l_quantity < 25",
      "SELECT l_returnflag, count(*) AS n, sum(l_quantity) AS qty "
      "FROM lineitem GROUP BY l_returnflag",
      "SELECT count(*) AS matched FROM orders JOIN lineitem "
      "ON o_orderkey = l_orderkey WHERE l_quantity < 10",
  };
  auto ctx = db->MakeContext();
  for (const char* sql : queries) {
    auto result = sqlfe::ExecuteSql(db.get(), ctx.get(), sql);
    MICROSPEC_CHECK(result.ok());
  }
  return db;
}

/// --trace [file]: span trees of every sampled query; optional Chrome JSON
/// export of the whole ring.
int RunTraceMode(int argc, char** argv) {
  std::unique_ptr<Database> db = RunTracedTpchWorkload(250'000'000);
  std::vector<std::shared_ptr<const trace::Trace>> recent =
      db->tracer()->Recent();
  std::printf("=== sampled query span trees (%zu traces) ===\n", recent.size());
  for (const auto& t : recent) {
    // The load's INSERT statements are sampled too; only show queries.
    if (t->sql().empty() || t->sql().rfind("SELECT", 0) != 0) continue;
    std::printf("\n%s", trace::RenderTraceTree(*t).c_str());
  }
  if (argc > 2) {
    const std::string json = db->tracer()->ChromeTraceJson();
    std::FILE* f = std::fopen(argv[2], "w");
    if (f == nullptr) {
      std::printf("\nerror: cannot open %s\n", argv[2]);
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("\nwrote %zu bytes of Chrome trace JSON to %s "
                "(open in chrome://tracing)\n",
                json.size(), argv[2]);
  }
  return 0;
}

/// --slow: the slow-query log with a zero threshold, so every statement of
/// the workload lands in it; phases and operators come from the referenced
/// traces.
int RunSlowMode() {
  std::unique_ptr<Database> db = RunTracedTpchWorkload(/*slow_query_ns=*/0);
  std::vector<trace::SlowQuery> log = db->tracer()->SlowLog();
  std::printf("=== slow-query log (threshold 0 ns; %zu entries) ===\n\n",
              log.size());
  telemetry::TextTable table;
  table.Header({"trace", "total(ms)", "parse(ms)", "plan(ms)", "exec(ms)",
                "sql"});
  char buf[32];
  auto ms = [&buf](uint64_t ns) {
    std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1e6);
    return std::string(buf);
  };
  const trace::SlowQuery* slowest = nullptr;
  for (const trace::SlowQuery& q : log) {
    const trace::Trace& t = *q.trace;
    const std::string sql = t.sql();
    table.Row({std::to_string(t.trace_id()), ms(q.total_ns),
               ms(t.TotalNs(trace::SpanKind::kParse)),
               ms(t.TotalNs(trace::SpanKind::kPlan)),
               ms(t.TotalNs(trace::SpanKind::kExec)),
               sql.size() > 48 ? sql.substr(0, 45) + "..." : sql});
    if (slowest == nullptr || q.total_ns > slowest->total_ns) slowest = &q;
  }
  std::printf("%s", table.ToString().c_str());
  if (slowest != nullptr) {
    std::printf("\n--- span tree of the slowest statement ---\n%s",
                trace::RenderTraceTree(*slowest->trace).c_str());
  }
  return log.empty() ? 1 : 0;
}

/// --fuzz: the mutation-fuzz proof harness as a standalone gate (CI runs it
/// through scripts/check.sh with a pinned seed).
int RunFuzzMode(int argc, char** argv) {
  uint64_t seed = 0xC0FFEE;
  int per_family = 400;
  if (argc > 2) seed = std::strtoull(argv[2], nullptr, 0);
  if (argc > 3) per_family = std::atoi(argv[3]);
  std::printf("mutation fuzz: seed 0x%llx, %d mutants per family\n\n",
              static_cast<unsigned long long>(seed), per_family);
  bee::FuzzReport rep = bee::RunMutationFuzz(seed, per_family);
  std::printf("%s", rep.ToString().c_str());
  if (rep.undetected() == 0) {
    std::printf("\nPASS: every catalog-inconsistent mutant was rejected\n");
    return 0;
  }
  std::printf("\nFAIL: %d mutants escaped verification\n", rep.undetected());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--verify") == 0) {
    return RunVerifyMode();
  }
  if (argc > 1 && std::strcmp(argv[1], "--fuzz") == 0) {
    return RunFuzzMode(argc, argv);
  }
  if (argc > 1 && std::strcmp(argv[1], "--forge") == 0) {
    return RunForgeMode();
  }
  if (argc > 1 && std::strcmp(argv[1], "--metrics") == 0) {
    return RunMetricsMode();
  }
  if (argc > 1 && std::strcmp(argv[1], "--trace") == 0) {
    return RunTraceMode(argc, argv);
  }
  if (argc > 1 && std::strcmp(argv[1], "--slow") == 0) {
    return RunSlowMode();
  }
  std::string dir = "/tmp/microspec_inspector";
  (void)std::system(("rm -rf " + dir).c_str());
  DatabaseOptions options;
  options.dir = dir;
  options.enable_bees = true;
  options.enable_tuple_bees = true;
  auto db = Database::Open(std::move(options)).MoveValue();
  MICROSPEC_CHECK(tpch::CreateTpchTables(db.get()).ok());
  MICROSPEC_CHECK(tpch::LoadTpchTable(db.get(), "orders", 0.002).ok());

  TableInfo* orders = db->catalog()->GetTable("orders");
  bee::RelationBeeState* state = db->bees()->StateFor(orders->id());
  MICROSPEC_CHECK(state != nullptr);

  std::printf("=== relation bee for 'orders' ===\n\n");
  std::printf("logical attributes: %d, stored attributes: %d\n",
              orders->schema().natts(), state->stored_schema().natts());
  std::printf("tuple-bee specialized columns:");
  for (int c : state->spec_cols()) {
    std::printf(" %s", orders->schema().column(c).name().c_str());
  }
  std::printf("\n\n--- GCL deform program (portable backend) ---\n%s",
              state->gcl().ToString().c_str());

  std::printf(
      "\n--- C source lowered from the programs (native backend, cf. "
      "Listing 2) ---\n");
  std::string src = bee::NativeJit::LowerRelationBee(
      state->gcl().steps(), state->log_applier().steps(), "bee_gcl_orders");
  std::printf("%s", src.c_str());

  bee::TupleBeeManager* bees = state->tuple_bees();
  std::printf("\n--- tuple bees ---\n");
  std::printf("%d data sections (max %d), %zu bytes of specialized values\n",
              bees->num_sections(), bee::kMaxTupleBees, bees->section_bytes());
  for (int i = 0; i < bees->num_sections() && i < 6; ++i) {
    const bee::DataSection* s = bees->section(static_cast<uint8_t>(i));
    std::printf("  beeID %d: o_orderstatus='%c' o_orderpriority='%.15s'\n", i,
                *DatumToPointer(s->datums[0]), DatumToPointer(s->datums[1]));
  }
  if (bees->num_sections() > 6) {
    std::printf("  ... and %d more\n", bees->num_sections() - 6);
  }

  bee::BeeStats stats = db->bees()->stats();
  std::printf("\n--- module stats ---\n");
  std::printf("relation bees: %d (native GCL: %d)\n", stats.relation_bees,
              stats.native_gcl_routines);
  std::printf("placement arena bytes: %zu (isolation %s)\n",
              db->bees()->placement()->bytes_used(),
              db->bees()->placement()->isolation() ? "on" : "off");
  return 0;
}
