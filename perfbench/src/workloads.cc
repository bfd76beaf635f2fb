#include "workloads.h"

#include <cstdio>
#include <cstdlib>

#include "bee/native_jit.h"
#include "common/counters.h"

namespace perfbench {

DatabaseOptions BeeDatabaseOptions(const std::string& dir) {
  DatabaseOptions opts;
  opts.dir = dir;
  opts.enable_bees = true;
  opts.enable_tuple_bees = true;
  opts.backend = microspec::bee::NativeJit::CompilerAvailable()
                     ? microspec::bee::BeeBackend::kNative
                     : microspec::bee::BeeBackend::kProgram;
  return opts;
}

std::unique_ptr<Database> OpenOrDie(DatabaseOptions options,
                                    const char* what) {
  auto db = Database::Open(std::move(options));
  if (!db.ok()) {
    std::fprintf(stderr, "perfbench: cannot open %s: %s\n", what,
                 db.status().ToString().c_str());
    std::exit(1);
  }
  return db.MoveValue();
}

EngineCounters EngineCounters::Read(Database* db) {
  EngineCounters c;
  microspec::IoStats* io = db->io_stats();
  c.hits = io->buffer_hits.Value();
  c.misses = io->buffer_misses.Value();
  c.pages_read = io->pages_read.Value();
  c.pages_written = io->pages_written.Value();
  c.wal_records = io->wal_records.Value();
  c.wal_bytes = io->wal_bytes.Value();
  c.wal_fsyncs = io->wal_fsyncs.Value();
  c.work_ops = microspec::workops::TotalAcrossThreads();
  if (db->bees() != nullptr) c.bees = db->bees()->stats();
  return c;
}

void ReportCounters(const EngineCounters& before, const EngineCounters& after,
                    uint64_t ops, const microspec::bee::ForgeStats& forge,
                    Report* report) {
  auto delta = [](uint64_t a, uint64_t b) { return static_cast<double>(b - a); };
  auto share = [](double part, double whole) {
    return whole == 0 ? 0 : part / whole;
  };
  const double n = static_cast<double>(ops);
  const double hits = delta(before.hits, after.hits);
  const double misses = delta(before.misses, after.misses);
  report->Layer("storage.buffer.hits", hits);
  report->Layer("storage.buffer.misses", misses);
  report->Layer("storage.buffer.miss_ratio", share(misses, hits + misses));
  report->Layer("storage.disk.pages_read",
                delta(before.pages_read, after.pages_read));
  report->Layer("storage.disk.pages_written",
                delta(before.pages_written, after.pages_written));
  report->Layer("storage.wal.records_per_txn",
                delta(before.wal_records, after.wal_records) / n);
  report->Layer("storage.wal.bytes_per_txn",
                delta(before.wal_bytes, after.wal_bytes) / n);
  report->Layer("storage.wal.fsyncs_per_txn",
                delta(before.wal_fsyncs, after.wal_fsyncs) / n);
  report->Layer("bee.work_ops_per_op",
                delta(before.work_ops, after.work_ops) / n);
  const microspec::bee::BeeStats& b0 = before.bees;
  const microspec::bee::BeeStats& b1 = after.bees;
  const double native =
      delta(b0.native_tier_invocations, b1.native_tier_invocations);
  const double program =
      delta(b0.program_tier_invocations, b1.program_tier_invocations);
  report->Layer("bee.native_tier_share", share(native, native + program));
  report->Layer("bee.batch_calls",
                delta(b0.native_batch_tier_invocations,
                      b1.native_batch_tier_invocations) +
                    delta(b0.program_batch_tier_invocations,
                          b1.program_batch_tier_invocations));
  report->Layer("bee.evp_created",
                delta(b0.evp_bees_created, b1.evp_bees_created));
  report->Layer("bee.evj_created",
                delta(b0.evj_bees_created, b1.evj_bees_created));
  report->Layer("bee.forge.compile_s_total", forge.compile_seconds_total);
  report->Layer("bee.forge.promotions", static_cast<double>(forge.promotions));
  report->Layer("bee.forge.pinned", static_cast<double>(forge.pinned));
}

}  // namespace perfbench
