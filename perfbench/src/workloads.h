#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>

#include "harness.h"

namespace perfbench {

/// TPC-H scale factor and data seed shared by the TPC-H workloads and the
/// result goldens; the workload seed only orders the query stream.
inline constexpr double kTpchScale = 0.05;
inline constexpr uint64_t kTpchDataSeed = 42;

/// Set-ups per run, timed before and after the workload's operations (the
/// operations use the last database set up before them); setup_s is the
/// median of all of them. The host's speed drifts over seconds, so set-ups
/// at both ends of a run blend two speeds where back-to-back ones see one.
inline constexpr int kSetupsBefore = 3;
inline constexpr int kSetupsAfter = 3;

/// Operations one run executes. A run does a fixed amount of work, sized
/// to take about `seconds` on the reference host (README.md), rather than
/// stopping at a deadline: that is what makes every count repeat exactly
/// at a fixed seed and run length.
inline uint64_t WorkFor(double seconds, double ops_per_second,
                        uint64_t min_ops) {
  const double ops = seconds * ops_per_second;
  return ops < static_cast<double>(min_ops) ? min_ops
                                            : static_cast<uint64_t>(ops);
}

/// Options every workload's database shares: the bee-enabled engine with
/// tuple bees on the native backend (the program backend when no C
/// compiler exists), its directory under `dir`.
DatabaseOptions BeeDatabaseOptions(const std::string& dir);

/// Opens a database, failing the run with `what` on error.
std::unique_ptr<Database> OpenOrDie(DatabaseOptions options,
                                    const char* what);

/// The engine's counters, read before and after a workload's timed
/// operations.
struct EngineCounters {
  uint64_t hits = 0, misses = 0, pages_read = 0, pages_written = 0;
  uint64_t wal_records = 0, wal_bytes = 0, wal_fsyncs = 0;
  uint64_t work_ops = 0;  // process-wide, every thread
  microspec::bee::BeeStats bees;

  static EngineCounters Read(Database* db);
};

/// Reports the storage, WAL and bee layers: the counter deltas over `ops`
/// operations, plus the forge's set-up work.
void ReportCounters(const EngineCounters& before, const EngineCounters& after,
                    uint64_t ops, const microspec::bee::ForgeStats& forge,
                    Report* report);

/// The four workloads. Each fills `report` and returns non-OK only when the
/// run could not execute at all; failed output checks are reported, not
/// returned.
Status RunTpch(const RunConfig& config, bool out_of_core, Report* report,
               TraceSink* traces);
Status RunTpcc(const RunConfig& config, Report* report, TraceSink* traces);
Status RunSqlWire(const RunConfig& config, Report* report, TraceSink* traces);

/// Writes the TPC-H result goldens with the stock engine (bees off, scalar
/// execution) at kTpchScale and kTpchDataSeed.
Status MakeTpchGoldens(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
