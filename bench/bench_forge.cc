// Bee Forge: DDL latency and time-to-peak-throughput for synchronous vs
// asynchronous native bee compilation.
//
// The paper compiles the native relation bee inline at CREATE TABLE
// (Section III-B: "bee creation overhead is not critical"); under heavy
// traffic that stalls DDL behind the system compiler. The forge instead
// installs the program tier synchronously and promotes relations to native
// code in the background, ordered by observed hotness. This harness
// quantifies both halves of that trade:
//
//   part 1  per-CREATE TABLE latency: program backend, native with the
//           forge in sync mode (the paper baseline), native async.
//           Async DDL should be within 2x of the program backend.
//   part 2  a scan workload started immediately after DDL+load: time to
//           first result and time until the native tier serves the scans,
//           sync vs async.
//
//   MICROSPEC_FORGE_TABLES   tables created per config in part 1 (default 8)
//   MICROSPEC_FORGE_ROWS     rows loaded in part 2 (default 20000)
//
// Emits machine-readable results via --json out.json or BENCH_JSON.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "bench_util.h"
#include "exec/seq_scan.h"

namespace microspec {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

int EnvInt(const char* name, int dflt) {
  const char* v = std::getenv(name);
  if (v == nullptr) return dflt;
  int x = std::atoi(v);
  return x > 0 ? x : dflt;
}

/// A moderately wide all-NOT-NULL schema, so native codegen has real work
/// and the fast fixed-layout path applies.
Schema WideSchema() {
  std::vector<Column> cols;
  for (int i = 0; i < 6; ++i) {
    cols.push_back(
        Column("i" + std::to_string(i), TypeId::kInt32, /*not_null=*/true));
  }
  for (int i = 0; i < 4; ++i) {
    cols.push_back(
        Column("f" + std::to_string(i), TypeId::kFloat64, /*not_null=*/true));
  }
  for (int i = 0; i < 4; ++i) {
    cols.push_back(Column("c" + std::to_string(i), TypeId::kChar,
                          /*not_null=*/true, /*declared_length=*/16));
  }
  return Schema(std::move(cols));
}

struct DdlConfig {
  const char* name;
  bool enable_bees;
  bee::BeeBackend backend;
  bool async;
};

/// Creates `tables` relations in a fresh database, timing each CreateTable;
/// returns per-create seconds. For async, `quiesce_seconds` receives the
/// additional time until every relation was promoted.
std::vector<double> TimeDdl(const benchutil::BenchEnv& env,
                            const DdlConfig& cfg, int tables,
                            double* quiesce_seconds) {
  DatabaseOptions opts;
  opts.dir = env.scratch + "/ddl_" + cfg.name;
  opts.enable_bees = cfg.enable_bees;
  opts.backend = cfg.backend;
  opts.forge.async = cfg.async;
  auto db = Database::Open(std::move(opts)).MoveValue();

  std::vector<double> per_create;
  auto all0 = Clock::now();
  for (int t = 0; t < tables; ++t) {
    auto t0 = Clock::now();
    MICROSPEC_CHECK(
        db->CreateTable("t" + std::to_string(t), WideSchema()).ok());
    per_create.push_back(SecondsSince(t0));
  }
  double ddl_done = SecondsSince(all0);
  db->QuiesceBees();
  *quiesce_seconds = SecondsSince(all0) - ddl_done;
  return per_create;
}

uint64_t ScanOnce(ExecContext* ctx, TableInfo* table) {
  SeqScan scan(ctx, table);
  auto rows = CountRows(&scan);
  MICROSPEC_CHECK(rows.ok());
  return rows.value();
}

void LoadRows(Database* db, TableInfo* table, int nrows) {
  auto ctx = db->MakeContext();
  Database::BulkLoader loader(db, ctx.get(), table);
  Datum values[16];
  bool isnull[16] = {false};
  char pad[4][16] = {};
  for (int r = 0; r < nrows; ++r) {
    for (int i = 0; i < 6; ++i) values[i] = DatumFromInt32(r * 7 + i);
    for (int i = 0; i < 4; ++i) values[6 + i] = DatumFromFloat64(r * 0.5 + i);
    for (int i = 0; i < 4; ++i) {
      std::snprintf(pad[i], sizeof(pad[i]), "row%d_%d", r % 997, i);
      values[10 + i] = DatumFromPointer(pad[i]);
    }
    MICROSPEC_CHECK(loader.Append(values, isnull).ok());
  }
  MICROSPEC_CHECK(loader.Finish().ok());
}

/// Part 2: DDL + load + scan loop. Records time-to-first-result and time
/// until a scan runs fully on the native tier.
struct WorkloadResult {
  double ddl_seconds;
  double first_result_seconds;  // from before CREATE TABLE
  double native_ready_seconds;  // from before CREATE TABLE; 0 if never
  double program_scan_seconds;  // a scan served by the program tier
  double native_scan_seconds;   // a scan served by the native tier
};

WorkloadResult RunWorkload(const benchutil::BenchEnv& env, bool async,
                           int nrows) {
  DatabaseOptions opts;
  opts.dir = env.scratch + std::string("/wl_") + (async ? "async" : "sync");
  opts.enable_bees = true;
  opts.backend = bee::BeeBackend::kNative;
  opts.forge.async = async;
  auto db = Database::Open(std::move(opts)).MoveValue();

  WorkloadResult res{};
  auto t0 = Clock::now();
  TableInfo* table = db->CreateTable("events", WideSchema()).MoveValue();
  res.ddl_seconds = SecondsSince(t0);
  LoadRows(db.get(), table, nrows);

  bee::RelationBeeState* state = db->bees()->StateFor(table->id());
  auto ctx = db->MakeContext();

  // First scan: the program tier answers immediately under async; under
  // sync the compiler already ran during DDL.
  uint64_t before_native = state->native_tier_invocations();
  auto s0 = Clock::now();
  uint64_t rows = ScanOnce(ctx.get(), table);
  double first_scan = SecondsSince(s0);
  MICROSPEC_CHECK(rows == static_cast<uint64_t>(nrows));
  res.first_result_seconds = SecondsSince(t0);
  if (state->native_tier_invocations() == before_native) {
    res.program_scan_seconds = first_scan;
  } else {
    res.native_scan_seconds = first_scan;
  }

  // Keep scanning until one scan is served end-to-end by the native tier
  // (every deform bumped the native counter), bounded by a wall-clock cap.
  while (res.native_ready_seconds == 0 && SecondsSince(t0) < 30.0) {
    uint64_t nat0 = state->native_tier_invocations();
    auto si = Clock::now();
    ScanOnce(ctx.get(), table);
    double scan_s = SecondsSince(si);
    uint64_t served_native = state->native_tier_invocations() - nat0;
    if (served_native == static_cast<uint64_t>(nrows)) {
      res.native_ready_seconds = SecondsSince(t0);
      res.native_scan_seconds = scan_s;
    } else if (served_native == 0) {
      res.program_scan_seconds = scan_s;
    }
  }
  db->QuiesceBees();
  return res;
}

void Run(int argc, char** argv) {
  benchutil::BenchEnv env;
  benchutil::PrintHeader(
      "Bee Forge: DDL latency & time-to-native, sync vs async compilation",
      env);
  benchutil::BenchReport report("forge", env);
  if (!bee::NativeJit::CompilerAvailable()) {
    std::printf("no C compiler on this host; bench_forge needs kNative\n");
    return;
  }
  int tables = EnvInt("MICROSPEC_FORGE_TABLES", 8);
  int nrows = EnvInt("MICROSPEC_FORGE_ROWS", 20000);

  std::printf("--- part 1: CREATE TABLE latency (%d tables/config) ---\n",
              tables);
  std::printf("%-14s %14s %14s %16s\n", "config", "median(ms)", "max(ms)",
              "drain-after(ms)");
  const DdlConfig configs[] = {
      {"program", true, bee::BeeBackend::kProgram, true},
      {"native_sync", true, bee::BeeBackend::kNative, false},
      {"native_async", true, bee::BeeBackend::kNative, true},
  };
  double program_median = 0;
  double async_median = 0;
  for (const DdlConfig& cfg : configs) {
    double quiesce = 0;
    std::vector<double> per_create = TimeDdl(env, cfg, tables, &quiesce);
    double med = benchutil::Median(per_create);
    double mx = *std::max_element(per_create.begin(), per_create.end());
    if (std::string(cfg.name) == "program") program_median = med;
    if (std::string(cfg.name) == "native_async") async_median = med;
    std::printf("%-14s %14.3f %14.3f %16.3f\n", cfg.name, med * 1e3, mx * 1e3,
                quiesce * 1e3);
    report.Add(cfg.name, "ddl_median_seconds", med);
    report.Add(cfg.name, "ddl_max_seconds", mx);
    report.Add(cfg.name, "drain_after_ddl_seconds", quiesce);
  }
  if (program_median > 0) {
    std::printf("\nasync DDL / program DDL ratio: %.2fx  (target: <= 2x)\n",
                async_median / program_median);
    report.Add("native_async", "ddl_vs_program_ratio",
               async_median / program_median);
  }

  std::printf("\n--- part 2: scan workload after DDL+load (%d rows) ---\n",
              nrows);
  std::printf("%-14s %10s %14s %14s %13s %13s\n", "config", "ddl(ms)",
              "first-row(ms)", "native-at(ms)", "prog-scan(ms)",
              "nat-scan(ms)");
  for (bool async : {false, true}) {
    const char* name = async ? "native_async" : "native_sync";
    WorkloadResult r = RunWorkload(env, async, nrows);
    std::printf("%-14s %10.3f %14.3f %14.3f %13.3f %13.3f\n", name,
                r.ddl_seconds * 1e3, r.first_result_seconds * 1e3,
                r.native_ready_seconds * 1e3, r.program_scan_seconds * 1e3,
                r.native_scan_seconds * 1e3);
    report.Add(name, "workload_ddl_seconds", r.ddl_seconds);
    report.Add(name, "time_to_first_result_seconds", r.first_result_seconds);
    report.Add(name, "time_to_native_tier_seconds", r.native_ready_seconds);
    report.Add(name, "program_tier_scan_seconds", r.program_scan_seconds);
    report.Add(name, "native_tier_scan_seconds", r.native_scan_seconds);
  }
  std::printf(
      "\n(async serves first results from the program tier while the forge\n"
      " compiles; sync pays the compiler inside CREATE TABLE)\n");
  // Ship the registry metrics (forge counters and compile histograms) with
  // the JSON report.
  telemetry::TelemetrySnapshot snap;
  telemetry::Registry::Global().FillSnapshot(&snap);
  report.AttachTelemetry(snap);
  report.WriteIfRequested(argc, argv);
}

}  // namespace
}  // namespace microspec

int main(int argc, char** argv) {
  microspec::Run(argc, argv);
  return 0;
}
