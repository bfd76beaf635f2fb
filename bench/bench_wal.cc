// WAL group commit: commit throughput and latency at N concurrent
// committers, inline-fsync baseline vs group-commit windows. The flusher
// thread batches every durability request that arrives while an fdatasync
// is in flight, so at high concurrency the sync cost is amortized across
// the whole batch — the classic group-commit win.
//
// Restart recovery sweep: a WAL database whose data stays fixed while its
// log grows (in-place updates of the same rows) is crashed at three log
// lengths, each 4x the last, with one transaction left open. A child
// process that only reopens the database reports the recovery's time,
// records scanned and its own peak RSS. Recovery streams the log, so the
// peak should not follow the log's length.
//
// `--gate` enforces two bars: >= 5x commits/s over fsync-per-commit at 32
// committers, and a recovery peak RSS at the longest log within 10% of the
// shortest's.
//
//   MICROSPEC_WAL_COMMITS   commits per thread per configuration (default 25)
//   bench_wal --reopen DIR  the sweep's child: reopen DIR, print one line

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "storage/wal.h"

namespace microspec {
namespace {

using Clock = std::chrono::steady_clock;

int CommitsPerThread() {
  const char* v = std::getenv("MICROSPEC_WAL_COMMITS");
  if (v == nullptr) return 25;
  long x = std::atol(v);
  return x > 0 ? static_cast<int>(x) : 25;
}

struct RunResult {
  double commits_per_sec = 0;
  double p50_us = 0;
  double p99_us = 0;
};

RunResult RunCommitters(const std::string& path, bool group_commit,
                        int window_us, int threads, int commits_per_thread) {
  IoStats stats;
  Wal::Options opts;
  opts.group_commit = group_commit;
  opts.group_commit_window_us = window_us;
  opts.stats = &stats;
  auto wal_res = Wal::Open(path, opts);
  MICROSPEC_CHECK(wal_res.ok());
  std::unique_ptr<Wal> wal = wal_res.MoveValue();

  const std::string payload(96, 'w');  // a small txn's worth of log
  std::vector<std::vector<double>> latencies(
      static_cast<size_t>(threads));
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      auto& lat = latencies[static_cast<size_t>(t)];
      lat.reserve(static_cast<size_t>(commits_per_thread));
      while (!go.load(std::memory_order_acquire)) {
      }
      uint64_t txn = static_cast<uint64_t>(t) * 1000000 + 1;
      for (int i = 0; i < commits_per_thread; ++i) {
        Wal::AppendResult ar =
            wal->Append(WalRecordType::kCommit, txn++, 0, payload);
        Clock::time_point start = Clock::now();
        Status st = wal->Commit(ar.end_lsn);
        MICROSPEC_CHECK(st.ok());
        lat.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - start)
                .count());
      }
    });
  }
  Clock::time_point start = Clock::now();
  go.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
  double wall = std::chrono::duration<double>(Clock::now() - start).count();

  std::vector<double> all;
  for (auto& lat : latencies) all.insert(all.end(), lat.begin(), lat.end());
  std::sort(all.begin(), all.end());
  RunResult r;
  r.commits_per_sec =
      static_cast<double>(threads) * commits_per_thread / wall;
  r.p50_us = all[all.size() / 2];
  r.p99_us = all[std::min(all.size() - 1, all.size() * 99 / 100)];
  return r;
}

// --- Restart recovery sweep -------------------------------------------------

constexpr int kSweepRows = 1000;
constexpr int kUpdatesPerTxn = 100;
// The shortest log's in-place updates; each later point has 4x the last.
constexpr int kSweepBaseUpdates = 25'000;

// The program tier compiles nothing, so the child's time and memory are the
// recovery's; a small pool holds the fixed data set with room to spare.
DatabaseOptions SweepOptions(const std::string& dir) {
  DatabaseOptions opts;
  opts.dir = dir;
  opts.enable_bees = true;
  opts.backend = bee::BeeBackend::kProgram;
  opts.buffer_pool_frames = 256;
  opts.wal_enabled = true;
  return opts;
}

// Loads kSweepRows rows, updates them in place `updates` times in committed
// transactions, leaves one more transaction open with its records durable,
// and crashes.
void BuildCrashedLog(const std::string& dir, int updates) {
  auto res = Database::Open(SweepOptions(dir));
  MICROSPEC_CHECK(res.ok());
  std::unique_ptr<Database> db = res.MoveValue();
  auto table_res = db->CreateTable(
      "kv", Schema({Column("k", TypeId::kInt32, true),
                    Column("n", TypeId::kInt64, true)}));
  MICROSPEC_CHECK(table_res.ok());
  TableInfo* table = table_res.value();
  auto ctx = db->MakeContext();
  std::vector<TupleId> tids;
  bool isnull[2] = {false, false};
  for (int k = 0; k < kSweepRows; ++k) {
    Datum values[2] = {DatumFromInt32(k), DatumFromInt64(0)};
    auto tid = db->Insert(ctx.get(), table, values, isnull);
    MICROSPEC_CHECK(tid.ok());
    tids.push_back(tid.value());
  }
  auto update = [&](int i, WalTxn* txn) {
    const size_t row = static_cast<size_t>(i % kSweepRows);
    Datum values[2] = {DatumFromInt32(i % kSweepRows), DatumFromInt64(i)};
    auto moved = db->Update(ctx.get(), table, tids[row], values, isnull,
                            /*keys_changed=*/false, txn);
    MICROSPEC_CHECK(moved.ok());
    tids[row] = moved.value();
  };
  for (int done = 0; done < updates; done += kUpdatesPerTxn) {
    auto txn = db->BeginTxn();
    MICROSPEC_CHECK(txn.ok());
    for (int i = done; i < done + kUpdatesPerTxn; ++i) update(i, &txn.value());
    MICROSPEC_CHECK(db->CommitTxn(&txn.value()).ok());
  }
  auto loser = db->BeginTxn();
  MICROSPEC_CHECK(loser.ok());
  for (int i = 0; i < kUpdatesPerTxn; ++i) update(updates + i, &loser.value());
  MICROSPEC_CHECK(db->wal()->Flush().ok());
  db->SimulateCrashForTests();
}

// The child: reopens `dir` (restart recovery runs inside Open) and prints
// what it did. VmHWM is this process image's own peak, unlike ru_maxrss,
// which also carries the parent's peak across fork and exec.
int ReopenChild(const std::string& dir) {
  auto start = Clock::now();
  auto res = Database::Open(SweepOptions(dir));
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  if (!res.ok()) {
    std::fprintf(stderr, "reopen %s: %s\n", dir.c_str(),
                 res.status().ToString().c_str());
    return 1;
  }
  long hwm_kb = -1;
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) hwm_kb = std::atol(line.c_str() + 6);
  }
  const RecoveryStats& rec = res.value()->last_recovery();
  std::printf("records_scanned=%" PRIu64 " undone=%" PRIu64
              " seconds=%.6f peak_rss_kb=%ld\n",
              rec.records_scanned, rec.txns_undone, seconds, hwm_kb);
  return 0;
}

struct RecoveryPoint {
  uint64_t records_scanned = 0;
  uint64_t txns_undone = 0;
  double seconds = 0;
  double peak_rss_mb = 0;
};

RecoveryPoint RunReopenChild(const std::string& dir) {
  char self[4096];
  ssize_t n = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
  MICROSPEC_CHECK(n > 0);
  self[n] = '\0';
  std::string cmd = std::string(self) + " --reopen " + dir;
  FILE* child = ::popen(cmd.c_str(), "r");
  MICROSPEC_CHECK(child != nullptr);
  RecoveryPoint p;
  long hwm_kb = -1;
  int fields = std::fscanf(child,
                           "records_scanned=%" SCNu64 " undone=%" SCNu64
                           " seconds=%lf peak_rss_kb=%ld",
                           &p.records_scanned, &p.txns_undone, &p.seconds,
                           &hwm_kb);
  const int rc = ::pclose(child);
  MICROSPEC_CHECK(fields == 4 && rc == 0 && hwm_kb > 0);
  p.peak_rss_mb = static_cast<double>(hwm_kb) / 1024.0;
  return p;
}

}  // namespace
}  // namespace microspec

int main(int argc, char** argv) {
  using namespace microspec;

  bool gate = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--gate") gate = true;
    if (std::string(argv[i]) == "--reopen" && i + 1 < argc) {
      return ReopenChild(argv[i + 1]);
    }
  }

  benchutil::BenchEnv env;
  benchutil::PrintHeader("WAL commit latency: group commit vs inline fsync",
                         env);
  const int commits = CommitsPerThread();
  benchutil::BenchReport report("wal", env);

  struct Config {
    const char* name;
    bool group;
    int window_us;
  };
  const Config configs[] = {
      {"inline_fsync", false, 0}, {"group_w0", true, 0},
      {"group_w100", true, 100},  {"group_w500", true, 500},
      {"group_w1000", true, 1000},
  };

  double inline_32 = 0;
  double best_group_32 = 0;
  int run = 0;
  for (int threads : {1, 8, 32}) {
    for (const Config& cfg : configs) {
      std::string path = env.scratch + "/wal_" + std::to_string(run++) +
                         ".log";
      RunResult r =
          RunCommitters(path, cfg.group, cfg.window_us, threads, commits);
      std::printf(
          "  %-13s threads=%-3d  %9.0f commits/s   p50 %8.1f us   p99 "
          "%8.1f us\n",
          cfg.name, threads, r.commits_per_sec, r.p50_us, r.p99_us);
      std::string label =
          std::string(cfg.name) + "_t" + std::to_string(threads);
      report.Add(label, "commits_per_sec", r.commits_per_sec);
      report.Add(label, "commit_p50_us", r.p50_us);
      report.Add(label, "commit_p99_us", r.p99_us);
      if (threads == 32) {
        if (!cfg.group) inline_32 = r.commits_per_sec;
        else best_group_32 = std::max(best_group_32, r.commits_per_sec);
      }
    }
  }

  const double speedup = inline_32 > 0 ? best_group_32 / inline_32 : 0;
  std::printf("\n  group-commit speedup at 32 committers: %.1fx\n", speedup);
  report.Add("speedup_32", "x_vs_inline_fsync", speedup);

  std::printf("\n  restart recovery, %d rows, history grows 4x per point:\n",
              kSweepRows);
  std::vector<RecoveryPoint> points;
  for (int updates = kSweepBaseUpdates; updates <= 16 * kSweepBaseUpdates;
       updates *= 4) {
    const std::string label = "recovery_u" + std::to_string(updates);
    const std::string dir = env.scratch + "/" + label;
    BuildCrashedLog(dir, updates);
    RecoveryPoint p = RunReopenChild(dir);
    MICROSPEC_CHECK(p.txns_undone == 1);
    std::printf(
        "  %-16s %9" PRIu64 " records  %7.3f s  peak RSS %7.1f MB\n",
        label.c_str(), p.records_scanned, p.seconds, p.peak_rss_mb);
    report.Add(label, "recovery_seconds", p.seconds);
    report.Add(label, "records_scanned",
               static_cast<double>(p.records_scanned));
    report.Add(label, "recovery_peak_rss_mb", p.peak_rss_mb);
    points.push_back(p);
  }
  const double rss_growth =
      points.back().peak_rss_mb / points.front().peak_rss_mb;
  std::printf("  recovery peak RSS, longest vs shortest log: %.3fx\n",
              rss_growth);

  std::string path = report.WriteIfRequested(argc, argv);
  if (!path.empty()) std::printf("wrote %s\n", path.c_str());

  int failed = 0;
  if (gate && speedup < 5.0) {
    std::fprintf(stderr,
                 "GATE FAILED: group commit %.1fx vs inline at 32 "
                 "committers (need >= 5x)\n",
                 speedup);
    failed = 1;
  }
  if (gate && rss_growth > 1.10) {
    std::fprintf(stderr,
                 "GATE FAILED: recovery peak RSS %.1f MB at %" PRIu64
                 " records vs %.1f MB at %" PRIu64 " (need <= 1.10x)\n",
                 points.back().peak_rss_mb, points.back().records_scanned,
                 points.front().peak_rss_mb, points.front().records_scanned);
    failed = 1;
  }
  return failed;
}
