#include "common/counters.h"

#include <cstring>
#include <mutex>
#include <unordered_set>

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace microspec {

namespace workops {

namespace {

/// Tracks live per-thread cells and banks the totals of exited threads.
/// Leaked so cells destructing during static teardown still have a registry
/// to report to.
struct CellRegistry {
  std::mutex mutex;
  std::unordered_set<ThreadCell*> live;
  uint64_t retired = 0;

  static CellRegistry& Get() {
    static CellRegistry* r = new CellRegistry();
    return *r;
  }
};

}  // namespace

ThreadCell::ThreadCell() {
  CellRegistry& reg = CellRegistry::Get();
  std::lock_guard<std::mutex> guard(reg.mutex);
  reg.live.insert(this);
}

ThreadCell::~ThreadCell() {
  CellRegistry& reg = CellRegistry::Get();
  std::lock_guard<std::mutex> guard(reg.mutex);
  reg.live.erase(this);
  reg.retired += ops.load(std::memory_order_relaxed);
}

ThreadCell& RegisterCell() {
  thread_local ThreadCell cell;
  t_cell = &cell;
  return cell;
}

uint64_t TotalAcrossThreads() {
  CellRegistry& reg = CellRegistry::Get();
  std::lock_guard<std::mutex> guard(reg.mutex);
  uint64_t total = reg.retired;
  for (ThreadCell* c : reg.live) {
    total += c->ops.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace workops

InstructionCounter::InstructionCounter() {
#if defined(__linux__)
  struct perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.type = PERF_TYPE_HARDWARE;
  attr.size = sizeof(attr);
  attr.config = PERF_COUNT_HW_INSTRUCTIONS;
  attr.disabled = 1;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  fd_ = static_cast<int>(
      syscall(SYS_perf_event_open, &attr, 0 /* this thread */, -1, -1, 0));
#endif
}

InstructionCounter::~InstructionCounter() {
#if defined(__linux__)
  if (fd_ >= 0) close(fd_);
#endif
}

void InstructionCounter::Start() {
#if defined(__linux__)
  if (fd_ >= 0) {
    ioctl(fd_, PERF_EVENT_IOC_RESET, 0);
    ioctl(fd_, PERF_EVENT_IOC_ENABLE, 0);
    return;
  }
#endif
  soft_start_ = workops::Read();
}

uint64_t InstructionCounter::Stop() {
#if defined(__linux__)
  if (fd_ >= 0) {
    ioctl(fd_, PERF_EVENT_IOC_DISABLE, 0);
    uint64_t count = 0;
    if (read(fd_, &count, sizeof(count)) != sizeof(count)) count = 0;
    return count;
  }
#endif
  return workops::Read() - soft_start_;
}

}  // namespace microspec
