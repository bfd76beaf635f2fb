// Section VI-C: TPC-C throughput under three transaction mixes, stock vs
// bee-enabled. Paper (10 warehouses, 100 terminals, 1h each):
//   default mix (NewOrder 45/Payment 43/...):        1898 vs 1760 tpm  (+7.3%)
//   query-only  (NewOrder 45/OrderStatus 27/SL 28):  3699 vs 3135 tpm  (+18%)
//   equal mix   (P+D 27, OS+SL 28):                  2220 vs 1998 tpm  (+11.1%)
// Scaled here via MICROSPEC_TPCC_* env vars; ratios are the reproduction
// target, not absolute tpm.
//
// A fourth scenario (not in the paper) runs the default mix on WAL-enabled
// databases with inline commits: every committed TPC-C transaction syncs
// the log once. It reports the WAL records, bytes and syncs per
// transaction next to the time.
//
// `--json out.json` (or BENCH_JSON) also writes a BenchReport: per scenario
// and engine the mean seconds per burst and tpmC, the time improvement, and
// the WAL counts of the durable scenario.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "bench_util.h"
#include "workloads/tpcc/tpcc_workload.h"

namespace microspec {
namespace {

using benchutil::BenchEnv;
using benchutil::ImprovementPct;

int EnvInt(const char* name, int dflt) {
  const char* v = std::getenv(name);
  if (v == nullptr) return dflt;
  int x = std::atoi(v);
  return x > 0 ? x : dflt;
}

struct Scenario {
  const char* name;
  const char* key;  // BenchReport config prefix
  tpcc::TpccMix mix;
  double paper_improvement;  // < 0: not a paper scenario
  bool durable;              // WAL on, inline commit
};

std::unique_ptr<Database> OpenTpccDb(const BenchEnv& env,
                                     const std::string& name, bool bees,
                                     bool durable) {
  if (!durable) return benchutil::OpenBenchDb(env, name, bees, bees);
  DatabaseOptions opts;
  opts.dir = env.scratch + "/" + name;
  opts.enable_bees = bees;
  opts.enable_tuple_bees = bees;
  opts.backend = env.backend;
  opts.buffer_pool_frames = 32768;
  opts.wal_enabled = true;
  opts.wal_group_commit = false;
  auto res = Database::Open(std::move(opts));
  MICROSPEC_CHECK(res.ok());
  return res.MoveValue();
}

/// Log records, bytes and syncs so far.
struct WalCounts {
  uint64_t records = 0;
  uint64_t bytes = 0;
  uint64_t syncs = 0;

  static WalCounts Read(Database* db) {
    IoStats* io = db->io_stats();
    return WalCounts{io->wal_records.Value(), io->wal_bytes.Value(),
                     io->wal_fsyncs.Value()};
  }
};

/// One engine's database and its totals over a scenario's rounds.
struct Engine {
  Engine(const char* n, bool b) : name(n), bees(b) {}

  const char* name;
  bool bees;
  std::unique_ptr<Database> db;
  std::unique_ptr<tpcc::TpccWorkload> wl;
  WalCounts wal0;  // after the load
  double secs = 0;
  uint64_t neworder = 0;
  uint64_t txns = 0;
  uint64_t ops = 0;

  double Tpm() const { return static_cast<double>(neworder) / secs * 60.0; }
};


void Run(int argc, char** argv) {
  BenchEnv env;
  benchutil::PrintHeader(
      "Section VI-C: TPC-C throughput (three mixes, plus WAL on)", env);
  benchutil::BenchReport report("tpcc", env);

  tpcc::TpccConfig cfg;
  cfg.warehouses = EnvInt("MICROSPEC_TPCC_WAREHOUSES", 2);
  cfg.customers_per_district = EnvInt("MICROSPEC_TPCC_CUSTOMERS", 300);
  cfg.items = EnvInt("MICROSPEC_TPCC_ITEMS", 10000);
  cfg.initial_orders_per_district = cfg.customers_per_district;
  int terminals = EnvInt("MICROSPEC_TPCC_TERMINALS", 1);
  uint64_t burst = static_cast<uint64_t>(EnvInt("MICROSPEC_TPCC_BURST", 2000));
  int rounds = EnvInt("MICROSPEC_TPCC_ROUNDS", 6);

  std::printf(
      "%d warehouses, %d customers/district, %d terminals,\n"
      "%d interleaved rounds of %llu txns/terminal (identical deterministic\n"
      "transaction sequences on both engines)\n\n",
      cfg.warehouses, cfg.customers_per_district, terminals, rounds,
      static_cast<unsigned long long>(burst));

  const Scenario scenarios[] = {
      {"default (modification-heavy)", "default", tpcc::TpccMix::Default(),
       7.3, false},
      {"query-only", "query_only", tpcc::TpccMix::QueryOnly(), 18.0, false},
      {"equal mix", "equal_mix", tpcc::TpccMix::EqualMix(), 11.1, false},
      {"default, WAL inline commit", "durable_default",
       tpcc::TpccMix::Default(), -1, true},
  };

  std::printf("%-30s %12s %12s %8s %8s %8s\n", "scenario", "stock tpmC",
              "bees tpmC", "time+", "work+", "paper");
  for (const Scenario& s : scenarios) {
    // Fresh databases per scenario so modification history does not leak
    // across scenarios.
    Engine engines[] = {{"stock", false}, {"bees", true}};
    for (Engine& e : engines) {
      e.db = OpenTpccDb(env, std::string(e.name) + "_" + s.key, e.bees,
                        s.durable);
      MICROSPEC_CHECK(tpcc::CreateTpccTables(e.db.get()).ok());
      e.wl = std::make_unique<tpcc::TpccWorkload>(e.db.get(), cfg);
      MICROSPEC_CHECK(e.wl->Load().ok());
      e.wal0 = WalCounts::Read(e.db.get());
    }
    for (int r = 0; r < rounds; ++r) {
      for (Engine& e : engines) {
        double es = 0;
        uint64_t ops = 0;
        auto c = e.wl->RunFixed(s.mix, terminals, burst, r, &es, &ops);
        MICROSPEC_CHECK(c.ok() && c->failed == 0);
        e.secs += es;
        e.neworder += c->new_order;
        e.txns += c->total();
        e.ops += ops;
      }
    }
    const Engine& stock = engines[0];
    const Engine& bee = engines[1];
    // Identical transaction counts on both sides: the throughput ratio is
    // the inverse time ratio.
    double imp = (stock.secs / bee.secs - 1.0) * 100.0;
    double work_imp = stock.ops == 0
                          ? 0
                          : (1.0 - static_cast<double>(bee.ops) /
                                       static_cast<double>(stock.ops)) *
                                100.0;
    char paper[16] = "-";
    if (s.paper_improvement >= 0) {
      std::snprintf(paper, sizeof(paper), "%.1f%%", s.paper_improvement);
    }
    std::printf("%-30s %12.0f %12.0f %7.1f%% %7.1f%% %8s\n", s.name,
                stock.Tpm(), bee.Tpm(), imp, work_imp, paper);

    const std::string key = s.key;
    report.Add(key, "time_improvement_pct", imp);
    for (const Engine& e : engines) {
      const std::string config = key + "_" + e.name;
      report.Add(config, "burst_seconds", e.secs / rounds);
      report.Add(config, "tpmc", e.Tpm());
      if (!s.durable) continue;
      const WalCounts w1 = WalCounts::Read(e.db.get());
      const double txns = static_cast<double>(e.txns);
      const double records = static_cast<double>(w1.records - e.wal0.records);
      const double bytes = static_cast<double>(w1.bytes - e.wal0.bytes);
      const double syncs = static_cast<double>(w1.syncs - e.wal0.syncs);
      std::printf("  %-5s %.1f WAL records, %.0f bytes, %.2f syncs per "
                  "transaction\n",
                  e.name, records / txns, bytes / txns, syncs / txns);
      report.Add(config, "wal_records_per_txn", records / txns);
      report.Add(config, "wal_bytes_per_txn", bytes / txns);
      report.Add(config, "wal_syncs_per_txn", syncs / txns);
    }
  }
  report.WriteIfRequested(argc, argv);
}

}  // namespace
}  // namespace microspec

int main(int argc, char** argv) {
  microspec::Run(argc, argv);
  return 0;
}
