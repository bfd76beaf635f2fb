// The repo benchmark's program: runs one workload per process.
//
//   perfbench --workload <tpch_inmem|tpch_outofcore|tpcc_durable|sql_wire>
//             --seed N --seconds S --trace 0|1 --work-dir DIR
//             --golden-dir DIR
//   perfbench --make-goldens --work-dir DIR --golden-dir DIR
//
// perfbench/run.py builds this binary and is the command to run; see
// perfbench/README.md for the workloads and the metrics.

#include <fcntl.h>
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "workloads.h"

// Flush policy: fdatasync/fsync behave as on tmpfs, where the kernel's
// fsync is a no-op (noop_fsync) after validating the descriptor. The
// database directories live inside the benchmark's checkout, on whatever
// disk that is; without this the durable workload would time that disk's
// write cache (back-to-back bench_wal runs on the reference host differed
// by up to 3x) instead of the engine. The WAL still issues every sync and
// counts it, so storage.wal.fsyncs_per_txn is unchanged. Both sides of any
// comparison run this same policy.
extern "C" int fdatasync(int fd) { return fcntl(fd, F_GETFD) == -1 ? -1 : 0; }
extern "C" int fsync(int fd) { return fcntl(fd, F_GETFD) == -1 ? -1 : 0; }

namespace perfbench {
namespace {

/// Confines the process, and every thread and compiler it starts later, to
/// the highest-numbered CPU it may use. On the reference VM a wake-up of a
/// thread on another CPU costs tens of microseconds, and that cost drifts by
/// 2x over minutes: unpinned, one TPC-C seed ran at 2,160 and then 930
/// txn/s a minute apart (each commit hands off to the WAL flusher thread
/// 17 times). On one CPU the hand-off is a local context switch and the
/// same runs repeat within a few percent.
void PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    (void)sched_setaffinity(0, sizeof(one), &one);
    return;
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR --golden-dir DIR\n"
               "       perfbench --make-goldens --work-dir DIR "
               "--golden-dir DIR\n");
  return 2;
}

int Run(int argc, char** argv) {
  RunConfig config;
  bool make_goldens = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--make-goldens") {
      make_goldens = true;
      continue;
    }
    if (value == nullptr) return Usage();
    ++i;
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::atof(value);
    } else if (arg == "--trace") {
      config.trace = std::strcmp(value, "1") == 0;
    } else if (arg == "--work-dir") {
      config.work_dir = value;
    } else if (arg == "--golden-dir") {
      config.golden_dir = value;
    } else {
      return Usage();
    }
  }
  if (config.work_dir.empty() || config.golden_dir.empty()) return Usage();
  std::filesystem::create_directories(config.work_dir);

  if (make_goldens) {
    Status st = MakeTpchGoldens(config);
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
      return 1;
    }
    return 0;
  }
  if (config.seconds <= 0) return Usage();
  PinToOneCpu();

  Report report(config);
  TraceSink traces(config.trace);
  Status st;
  if (config.workload == "tpch_inmem") {
    st = RunTpch(config, /*out_of_core=*/false, &report, &traces);
  } else if (config.workload == "tpch_outofcore") {
    st = RunTpch(config, /*out_of_core=*/true, &report, &traces);
  } else if (config.workload == "tpcc_durable") {
    st = RunTpcc(config, &report, &traces);
  } else if (config.workload == "sql_wire") {
    st = RunSqlWire(config, &report, &traces);
  } else {
    return Usage();
  }
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", config.workload.c_str(),
                 st.ToString().c_str());
    return 1;
  }
  if (config.trace) {
    const std::string path = config.work_dir + "/" + config.workload +
                             "-seed" + std::to_string(config.seed) +
                             ".trace.json";
    Status w = traces.WriteChromeJson(path);
    report.Note(w.ok() ? "chrome trace: " + path : w.ToString());
  }
  report.Finish();
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Run(argc, argv); }
