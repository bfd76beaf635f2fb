#include "bee/forge.h"

#include <algorithm>
#include <cstdio>

#include "bee/bee_module.h"
#include "bee/native_jit.h"
#include "common/telemetry.h"
#include "common/tracing.h"

namespace microspec::bee {

namespace {

/// One background-lane span per lifecycle transition, ending now and
/// covering `duration_ns` (the compile time of a success). Events are
/// per-compile (rare), so every forge in the process shares the one lane.
void Trace(const char* event, const std::string& relation,
           uint64_t duration_ns = 0) {
  const uint64_t now = telemetry::NowNs();
  trace::RecordEvent(event, relation, now - duration_ns, now);
}

int AutoWorkers() {
  unsigned hw = std::thread::hardware_concurrency();
  if (hw <= 2) return 1;
  return 2;
}

}  // namespace

const char* ForgePhaseName(ForgePhase phase) {
  switch (phase) {
    case ForgePhase::kProgram:   return "program";
    case ForgePhase::kPending:   return "pending";
    case ForgePhase::kCompiling: return "compiling";
    case ForgePhase::kPromoted:  return "promoted";
    case ForgePhase::kPinned:    return "pinned";
  }
  return "?";
}

Forge::Forge(NativeJit* jit, std::string cache_dir, ForgeOptions options)
    : jit_(jit),
      cache_dir_(std::move(cache_dir)),
      options_(options) {
  if (options_.async) {
    int workers =
        options_.workers > 0 ? options_.workers : AutoWorkers();
    pool_ = std::make_unique<ThreadPool>(workers);
  }
}

Forge::~Forge() {
  {
    std::lock_guard<std::mutex> guard(mutex_);
    stop_ = true;
    stats_.cancelled += pending_.size();
    for (const Job& job : pending_) {
      Trace("cancelled", job.state->table_name());
    }
    pending_.clear();
  }
  pending_cv_.notify_all();
  idle_cv_.notify_all();
  pool_.reset();  // joins workers; an in-flight compile finishes first
}

void Forge::Enqueue(std::shared_ptr<RelationBeeState> state) {
  state->SetForgePhase(ForgePhase::kPending);
  Trace("queued", state->table_name());
  if (!options_.async) {
    // Sync (paper Section III-B) mode: one attempt on the DDL thread — the
    // baseline bench_forge measures async DDL latency against. Starting at
    // the final attempt makes any failure pin immediately; retry/backoff is
    // an async-tier concern.
    {
      std::lock_guard<std::mutex> guard(mutex_);
      ++stats_.enqueued;
    }
    Job job;
    job.state = std::move(state);
    job.attempts = options_.max_attempts - 1;
    ProcessJob(std::move(job));
    return;
  }
  {
    std::lock_guard<std::mutex> guard(mutex_);
    if (stop_) return;
    ++stats_.enqueued;
    Job job;
    job.state = std::move(state);
    job.not_before = std::chrono::steady_clock::now();
    pending_.push_back(std::move(job));
  }
  // One pool task per pending job, so a task can always either claim a job
  // or exit knowing another task covers the remainder.
  pool_->Submit([this] { RunOne(); });
  pending_cv_.notify_one();
}

void Forge::Quiesce() {
  std::unique_lock<std::mutex> guard(mutex_);
  idle_cv_.wait(guard, [this] {
    return stop_ || (pending_.empty() && in_flight_ == 0);
  });
}

ForgeStats Forge::stats() const {
  std::lock_guard<std::mutex> guard(mutex_);
  ForgeStats s = stats_;
  s.queue_depth = static_cast<int>(pending_.size());
  s.in_flight = in_flight_;
  return s;
}

void Forge::RunOne() {
  std::unique_lock<std::mutex> guard(mutex_);
  for (;;) {
    if (stop_ || pending_.empty()) return;
    // Hotness-driven dispatch: claim the eligible (backoff elapsed) job
    // whose relation has served the most deform/form calls. Hotness is
    // re-read here, at claim time, so the order tracks a shifting workload
    // rather than the enqueue order.
    auto now = std::chrono::steady_clock::now();
    size_t best = pending_.size();
    uint64_t best_hotness = 0;
    auto earliest = std::chrono::steady_clock::time_point::max();
    for (size_t i = 0; i < pending_.size(); ++i) {
      if (pending_[i].not_before > now) {
        earliest = std::min(earliest, pending_[i].not_before);
        continue;
      }
      uint64_t hotness = pending_[i].state->invocations();
      if (best == pending_.size() || hotness > best_hotness) {
        best = i;
        best_hotness = hotness;
      }
    }
    if (best == pending_.size()) {
      // Everything pending is in a backoff window; sleep until the first
      // window closes (or new work / shutdown wakes us).
      pending_cv_.wait_until(guard, earliest);
      continue;
    }
    Job job = std::move(pending_[best]);
    pending_.erase(pending_.begin() + static_cast<ptrdiff_t>(best));
    ++in_flight_;
    guard.unlock();
    ProcessJob(std::move(job));
    guard.lock();
    --in_flight_;
    if (pending_.empty() && in_flight_ == 0) idle_cv_.notify_all();
    return;
  }
}

void Forge::ProcessJob(Job job) {
  RelationBeeState* state = job.state.get();
  if (state->collected()) {
    Trace("cancelled", state->table_name());
    std::lock_guard<std::mutex> guard(mutex_);
    ++stats_.cancelled;
    return;
  }
  state->SetForgePhase(ForgePhase::kCompiling);
  Trace("started", state->table_name());

  auto t0 = std::chrono::steady_clock::now();
  // One compile covers all three routines: the scalar GCL entry point, its
  // GCL-B page-batch sibling, and the log-bee applier live in the same
  // translation unit, lowered from programs the verifier already checked at
  // CREATE TABLE, and promote together.
  Result<NativeGclTriple> fn = jit_->Compile(
      state->native_source(), cache_dir_, state->native_symbol());
  double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  if (fn.ok()) {
    state->PublishNative(fn.value().scalar, fn.value().batch,
                         fn.value().log_apply);
    Trace("succeeded", state->table_name(),
          static_cast<uint64_t>(seconds * 1e9));
    std::lock_guard<std::mutex> guard(mutex_);
    ++stats_.promotions;
    stats_.compile_seconds_total += seconds;
    stats_.compile_seconds_max = std::max(stats_.compile_seconds_max, seconds);
    return;
  }

  std::unique_lock<std::mutex> guard(mutex_);
  ++stats_.failures;
  ++job.attempts;
  if (job.attempts >= options_.max_attempts || stop_ || !options_.async) {
    ++stats_.pinned;
    guard.unlock();
    state->PinToProgram(fn.status().message());
    Trace("pinned", state->table_name());
    return;
  }
  // Capped exponential backoff before the next attempt; transient failures
  // (compiler farm hiccups, disk pressure) get another chance, persistent
  // ones converge on the pin above.
  ++stats_.retries;
  Trace("retried", state->table_name());
  int64_t backoff_ms = static_cast<int64_t>(options_.backoff_base_ms)
                       << (job.attempts - 1);
  backoff_ms = std::min<int64_t>(backoff_ms, options_.backoff_cap_ms);
  job.not_before = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(backoff_ms);
  job.state->SetForgePhase(ForgePhase::kPending);
  pending_.push_back(std::move(job));
  guard.unlock();
  pool_->Submit([this] { RunOne(); });
  pending_cv_.notify_one();
}

}  // namespace microspec::bee
