#ifndef MICROSPEC_COMMON_COUNTERS_H_
#define MICROSPEC_COMMON_COUNTERS_H_

#include <atomic>
#include <cstdint>

namespace microspec {

/// --- Software work-operation counter ---------------------------------------
/// The paper quantifies micro-specialization by dynamic instruction counts
/// collected with callgrind (Figure 6). callgrind is not available here, so
/// the engine instruments its hot loops with a thread-local "work op" counter:
/// one bump per metadata consultation, per alignment computation, per
/// expression-tree node visited, per dispatch branch — i.e., per unit of the
/// generic work that a bee removes. The specialized bee paths bump it only for
/// the straight-line work they actually perform, so the counter is a faithful
/// software proxy of relative instruction counts. When the kernel permits
/// perf_event_open, InstructionCounter below reports true retired
/// instructions instead; harnesses label which source was used.
///
/// Each thread owns an atomic cell registered with a process-wide (leaked)
/// registry, so TotalAcrossThreads() also sees work done by forge/ThreadPool
/// workers — a plain thread_local would silently drop it. The hot path is
/// single-writer: store(load+n, relaxed) compiles to plain load/add/store
/// with no lock prefix, and cross-thread readers stay TSan-clean because the
/// cell is an atomic. Bump reads the cell through a constant-initialized
/// thread_local pointer, inline and with no init guard; only a thread's
/// first use takes the out-of-line registration call.
namespace workops {

struct ThreadCell {
  ThreadCell();
  ~ThreadCell();
  std::atomic<uint64_t> ops{0};
  /// Value of `ops` at the last per-thread Reset(); Read() subtracts it so
  /// harness deltas keep their old thread-local semantics while the global
  /// total stays monotonic.
  uint64_t reset_base = 0;
};

/// This thread's registered cell; null until the thread's first use.
inline constinit thread_local ThreadCell* t_cell = nullptr;

/// Creates and registers this thread's cell, points t_cell at it and
/// returns it. Out of line: it runs once per thread.
ThreadCell& RegisterCell();

inline ThreadCell& Cell() {
  ThreadCell* cell = t_cell;
  return cell != nullptr ? *cell : RegisterCell();
}

inline void Bump(uint64_t n = 1) {
  std::atomic<uint64_t>& c = Cell().ops;
  c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}

/// This thread's ops since its last Reset() (single-measurement-thread
/// harness semantics, unchanged from the plain thread_local days).
inline uint64_t Read() {
  ThreadCell& cell = Cell();
  return cell.ops.load(std::memory_order_relaxed) - cell.reset_base;
}

inline void Reset() {
  ThreadCell& cell = Cell();
  cell.reset_base = cell.ops.load(std::memory_order_relaxed);
}

/// Sum over every thread that ever bumped: live cells plus the accumulated
/// total of exited threads. Monotonic; unaffected by per-thread Reset().
uint64_t TotalAcrossThreads();

}  // namespace workops

/// Hardware retired-instruction counter via perf_event_open, with graceful
/// degradation: if the syscall is unavailable or denied (common in
/// containers), hardware() returns false and Stop() reports the software
/// work-op delta instead.
class InstructionCounter {
 public:
  InstructionCounter();
  ~InstructionCounter();

  InstructionCounter(const InstructionCounter&) = delete;
  InstructionCounter& operator=(const InstructionCounter&) = delete;

  /// True if a hardware instruction counter is active.
  bool hardware() const { return fd_ >= 0; }

  /// Resets and starts counting.
  void Start();

  /// Stops counting and returns the count since Start().
  uint64_t Stop();

 private:
  int fd_ = -1;
  uint64_t soft_start_ = 0;
};

}  // namespace microspec

#endif  // MICROSPEC_COMMON_COUNTERS_H_
