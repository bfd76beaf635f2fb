#ifndef MICROSPEC_BEE_FORGE_H_
#define MICROSPEC_BEE_FORGE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/thread_pool.h"

namespace microspec::bee {

class NativeJit;
class RelationBeeState;

/// Where a relation bee currently executes and what the forge is doing (or
/// has concluded) about promoting it. Published with release semantics by
/// whoever advances the phase; readers pair with an acquire load, so e.g.
/// `forge_error()` is stable once kPinned is observed.
enum class ForgePhase : uint8_t {
  kProgram,    // program tier only; no native compile requested
  kPending,    // native compile queued, waiting for a forge worker
  kCompiling,  // a forge worker is compiling right now
  kPromoted,   // native routines compiled and published
  kPinned,     // compilation failed permanently; program tier forever
};

const char* ForgePhaseName(ForgePhase phase);

struct ForgeOptions {
  /// When false, native compilation happens inline on the DDL thread (the
  /// paper's Section III-B behaviour, kept as the sync baseline measured by
  /// bench_forge). Default: hand it to background workers.
  bool async = true;
  /// Forge worker threads; 0 picks a small automatic default.
  int workers = 0;
  /// Compile attempts per relation before pinning it to the program tier.
  int max_attempts = 3;
  /// Retry backoff: base * 2^(attempt-1), capped. Milliseconds.
  int backoff_base_ms = 10;
  int backoff_cap_ms = 200;
};

/// Counters describing forge activity (a snapshot; part of BeeStats).
struct ForgeStats {
  uint64_t enqueued = 0;    // jobs ever submitted
  uint64_t promotions = 0;  // native routines published
  uint64_t retries = 0;     // failed attempts that were re-queued
  uint64_t failures = 0;    // attempts that failed (including final ones)
  uint64_t pinned = 0;      // relations pinned to the program tier
  uint64_t cancelled = 0;   // jobs dropped because the relation was dropped
  int queue_depth = 0;      // jobs currently waiting (incl. backoff waits)
  int in_flight = 0;        // jobs currently on a worker
  double compile_seconds_total = 0;  // successful-compile wall time
  double compile_seconds_max = 0;
};

/// --- The bee forge ----------------------------------------------------------
/// A background compilation service owned by BeeModule. CREATE TABLE installs
/// the portable program-backend bee synchronously and enqueues native GCL
/// compilation here; worker threads pick the *hottest* pending relation
/// (by its observed deform/form invocation count — re-read at dispatch time,
/// so priorities track the workload as it shifts), compile its lowered
/// source off-thread, and publish the routines with an atomic store. The
/// source is lowered from programs the verifier checked at CREATE TABLE,
/// so the forge has nothing left to verify. Scans racing a promotion keep
/// running on the program tier and pick up native code on their next tuple.
///
/// Failures retry with capped exponential backoff; after
/// ForgeOptions::max_attempts the relation is pinned to the program tier and
/// the last diagnostic (including captured compiler stderr) is kept on the
/// RelationBeeState for inspection.
class Forge {
 public:
  Forge(NativeJit* jit, std::string cache_dir, ForgeOptions options);
  /// Cancels pending jobs, waits for in-flight compiles, joins the workers.
  ~Forge();
  MICROSPEC_DISALLOW_COPY_AND_MOVE(Forge);

  /// Schedules native compilation for `state` (sync mode compiles inline
  /// instead). The shared_ptr keeps the state alive even if the relation is
  /// dropped mid-compile; the publish then lands on a dead state and is
  /// simply never observed.
  void Enqueue(std::shared_ptr<RelationBeeState> state);

  /// Drains the forge: returns once every job enqueued so far has been
  /// promoted, pinned, or cancelled (riding through retry backoffs), so
  /// inspection and shutdown are deterministic.
  void Quiesce();

  ForgeStats stats() const;
  const ForgeOptions& options() const { return options_; }

 private:
  struct Job {
    std::shared_ptr<RelationBeeState> state;
    int attempts = 0;  // failed attempts so far
    std::chrono::steady_clock::time_point not_before;  // backoff gate
  };

  /// Worker-task body: picks the hottest eligible pending job and runs it.
  /// One such task is submitted per pending job, so tasks ≥ jobs always.
  void RunOne();

  /// Compile + publish for one job; handles retry/pin bookkeeping.
  void ProcessJob(Job job);

  NativeJit* jit_;
  const std::string cache_dir_;
  const ForgeOptions options_;

  mutable std::mutex mutex_;
  std::condition_variable pending_cv_;  // new/eligible pending work
  std::condition_variable idle_cv_;     // Quiesce: queue empty, none in flight
  std::vector<Job> pending_;
  int in_flight_ = 0;
  bool stop_ = false;
  ForgeStats stats_;  // queue_depth/in_flight filled at snapshot time

  std::unique_ptr<ThreadPool> pool_;  // absent in sync mode
};

}  // namespace microspec::bee

#endif  // MICROSPEC_BEE_FORGE_H_
