#!/usr/bin/env bash
# Static-analysis and test gate for microspec — the CI entry point.
#
#   scripts/check.sh                 # -Werror build + static analysis + ctest
#   SANITIZE=1 scripts/check.sh      # additionally test under ASan/UBSan
#   SANITIZE=thread scripts/check.sh # additionally test under TSan (the
#                                    # forge gate: async compilation races)
#
# Steps (each must pass):
#   1. Configure + build with -Werror, so every warning is a failure. Then
#      configure + build the perfbench package (the repo benchmark, its own
#      CMake project over ../src) into $BUILD_DIR/perfbench-build, so an
#      engine change that breaks the benchmark's use of the engine API fails
#      here rather than at benchmark time. Build only: nothing runs and no
#      file is written under perfbench/.
#   2. cppcheck over src/ if installed (error-level findings fail the gate);
#      clang-tidy over all of src/ (via the build tree's
#      compile_commands.json) if installed. Both are optional tools: the
#      gate degrades gracefully when they are absent.
#   3. ctest (the full suite; the bee verifier runs in enforce mode there).
#   4. Mutation-fuzz proof harness: bee_inspector --fuzz with a pinned seed
#      generates thousands of catalog-inconsistent single-step mutants
#      across every verification family (GCL, SCL, EVP, EVJ, and the log
#      applier; the native tier is lowered from the same verified steps)
#      and fails if any mutant escapes.
#   5. With SANITIZE=1, rebuild with -DMICROSPEC_SANITIZE="address;undefined"
#      and run the suite again under the sanitizers. With SANITIZE=thread,
#      rebuild with -DMICROSPEC_SANITIZE=thread instead (TSan cannot share a
#      build with ASan). Run both modes for full coverage. The telemetry
#      concurrency tests (sharded counters/histograms + snapshot readers)
#      are part of the suite, so TSan covers the lock-free paths.
#   6. Execution-variant sanitizer gate, run unconditionally: targeted
#      sanitizer builds of the standalone TPC-H differential test (every
#      query, batch 0/1/64/page × dop 1/4 plus dop 2/7/16 with random
#      morsel sizes, × bees off/program/native, against the scalar serial
#      engine) run once under ASan/UBSan and once under TSan, and the forge
#      stress test under TSan. These are the binaries whose whole point is
#      racing workers against each other and against the forge (batches
#      cross the Gather queue between threads carrying page pins), so they
#      never ship without sanitizer coverage, even on plain runs.
#   7. Batch-execution gate, run unconditionally: bench_tpch_warm
#      --batch-gate, which fails if the page-batched warm scan is slower
#      than the scalar pipeline (step 6 already covers batch correctness).
#      Unlike the dop-scaling checks, the batch gate runs even on 1-CPU
#      machines: batching must win (or at worst tie) without any
#      parallelism.
#   8. Server front-door gate, run unconditionally: the server test suite
#      (wire protocol, one write per request cycle, the latency floor, the
#      seeded wire-frame fuzz, admission control, statement-cache sharing
#      with exact forge accounting, concurrent differential, shutdown drain)
#      under ASan/UBSan and under TSan, then bench_server --smoke from the
#      plain build: an ephemeral-port server, 32 concurrent clients mixing
#      simple and prepared execution of the TPC-H statement set, rows
#      diffed against the library path, a /metrics scrape, and a clean
#      drain on shutdown.
#   9. Tracing gate, run unconditionally: the tracing suite under
#      ASan/UBSan and under TSan (fragment spans append from worker threads
#      while the driver opens phase spans — the exact race surface), then
#      the one instrumentation-overhead gate, bench_tpch_warm --trace-gate:
#      it times the TPC-H suite with telemetry off vs on, then with tracing
#      off (trace_sample_n=0, the default every figure harness runs) vs full
#      span trees, and fails if either off path is measurably slower than
#      its on path. Tiny scale factor, so it's fast.
#  10. WAL & recovery gate, run unconditionally: the WAL unit suite, the
#      restart recovery suite (streamed redo, undo, the redo pin-skip, a
#      malformed record failing Open cleanly) and the kill-and-replay
#      differential harness (fork a child per crash point, SIGKILL it
#      mid-flush via MICROSPEC_FAILPOINT, recover, diff against a
#      never-crashed twin of the committed prefix) under ASan/UBSan; the WAL
#      and recovery suites plus a reduced-config differential sweep under
#      TSan (group commit's flusher thread vs concurrent committers vs kill,
#      redo's evictions calling the flush hook); then bench_wal --gate, which
#      fails unless group commit sustains >= 5x commits/s over
#      fsync-per-commit at 32 concurrent committers, and unless a reopen's
#      peak RSS at the longest of three log lengths (4x apart) stays within
#      10% of the shortest's.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-$ROOT/build-check}"
JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== 1/10: -Werror build =="
# -Wno-restrict: GCC 12's -O2 restrict analysis false-positives inside
# libstdc++'s std::string append paths; everything else stays fatal.
cmake -B "$BUILD_DIR" -S "$ROOT" \
  -DCMAKE_CXX_FLAGS="-Werror -Wno-restrict" >/dev/null
cmake --build "$BUILD_DIR" -j "$JOBS"
# Default warning flags: the gate is about the API perfbench compiles
# against, not about warnings in the benchmark's own sources.
cmake -B "$BUILD_DIR/perfbench-build" -S "$ROOT/perfbench" \
  -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_DIR/perfbench-build" -j "$JOBS" --target perfbench

echo "== 2/10: static analysis =="
if command -v cppcheck >/dev/null 2>&1; then
  cppcheck --quiet --error-exitcode=1 \
    --enable=warning,portability \
    --inline-suppr \
    --suppress=internalAstError \
    -I "$ROOT/src" "$ROOT/src"
  echo "cppcheck: clean"
else
  echo "cppcheck: not installed, skipped"
fi
if command -v clang-tidy >/dev/null 2>&1; then
  # All of src/, driven by the build tree's compile_commands.json
  # (CMAKE_EXPORT_COMPILE_COMMANDS is on in CMakeLists.txt); .clang-tidy at
  # the repo root selects the check set.
  find "$ROOT/src" -name '*.cc' -print0 |
    xargs -0 clang-tidy --quiet -p "$BUILD_DIR" || exit 1
  echo "clang-tidy: clean"
else
  echo "clang-tidy: not installed, skipped"
fi

echo "== 3/10: tests =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

echo "== 4/10: mutation-fuzz proof harness =="
# Fixed seed so any escape reproduces locally; 400 mutants per family x 5
# families clears the 2000-mutant floor and runs in well under a second.
"$BUILD_DIR"/examples/example_bee_inspector --fuzz 0xC0FFEE 400

case "${SANITIZE:-0}" in
  1)
    echo "== 5/10: ASan/UBSan build + tests =="
    SAN_DIR="$BUILD_DIR-asan"
    cmake -B "$SAN_DIR" -S "$ROOT" \
      -DMICROSPEC_SANITIZE="address;undefined" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
    cmake --build "$SAN_DIR" -j "$JOBS"
    ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=halt_on_error=1 \
      ctest --test-dir "$SAN_DIR" --output-on-failure -j "$JOBS"
    ;;
  thread)
    echo "== 5/10: TSan build + tests =="
    SAN_DIR="$BUILD_DIR-tsan"
    cmake -B "$SAN_DIR" -S "$ROOT" \
      -DMICROSPEC_SANITIZE="thread" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
    cmake --build "$SAN_DIR" -j "$JOBS"
    TSAN_OPTIONS=halt_on_error=1 \
      ctest --test-dir "$SAN_DIR" --output-on-failure -j "$JOBS"
    ;;
  *)
    echo "== 5/10: sanitizers skipped (SANITIZE=1 for ASan/UBSan," \
         "SANITIZE=thread for TSan) =="
    ;;
esac

echo "== 6/10: execution-variant sanitizer gate =="
# Targeted builds: only the standalone test binaries (plus their
# dependencies) are compiled in the sanitizer trees, so this stays cheap
# even when SANITIZE is unset and the full sanitized suites did not run.
# Batched and parallel plans must be row-identical to the scalar serial
# engine under both sanitizer families.
ASAN_DIR="$BUILD_DIR-asan"
cmake -B "$ASAN_DIR" -S "$ROOT" \
  -DMICROSPEC_SANITIZE="address;undefined" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "$ASAN_DIR" -j "$JOBS" --target tpch_differential_test
ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=halt_on_error=1 \
  "$ASAN_DIR"/tests/tpch_differential_test

TSAN_DIR="$BUILD_DIR-tsan"
cmake -B "$TSAN_DIR" -S "$ROOT" \
  -DMICROSPEC_SANITIZE="thread" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "$TSAN_DIR" -j "$JOBS" \
  --target tpch_differential_test parallel_forge_stress_test
TSAN_OPTIONS=halt_on_error=1 "$TSAN_DIR"/tests/parallel_forge_stress_test
TSAN_OPTIONS=halt_on_error=1 "$TSAN_DIR"/tests/tpch_differential_test

echo "== 7/10: batch-execution gate =="
# The throughput gate: page-granular batching must not lose to the
# scalar pipeline. This runs unconditionally — the 1-CPU skip applies only
# to dop-scaling checks, never here, since batching needs no parallelism.
MICROSPEC_SF="${MICROSPEC_GATE_SF:-0.005}" \
MICROSPEC_REPS="${MICROSPEC_GATE_REPS:-3}" \
  "$BUILD_DIR"/bench/bench_tpch_warm --batch-gate

echo "== 8/10: server front-door gate =="
# Sessions, the statement cache, the shared query-bee cache, and the forge
# all race each other by design; the server suite never ships without both
# sanitizer families.
cmake --build "$ASAN_DIR" -j "$JOBS" --target server_test
ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=halt_on_error=1 \
  "$ASAN_DIR"/tests/server_test
cmake --build "$TSAN_DIR" -j "$JOBS" --target server_test
TSAN_OPTIONS=halt_on_error=1 "$TSAN_DIR"/tests/server_test

# End-to-end smoke through a real socket: 32 concurrent clients, mixed
# simple/prepared TPC-H statements, rows diffed against the library path,
# /metrics scraped, then a clean drain.
MICROSPEC_SF="${MICROSPEC_GATE_SF:-0.005}" \
  "$BUILD_DIR"/bench/bench_server --smoke

echo "== 9/10: tracing gate =="
# Span buffers are appended from every executor worker of a sampled query;
# the tracing suite runs under both sanitizer families before anything
# ships.
cmake --build "$ASAN_DIR" -j "$JOBS" --target tracing_test
ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=halt_on_error=1 \
  "$ASAN_DIR"/tests/tracing_test
cmake --build "$TSAN_DIR" -j "$JOBS" --target tracing_test
TSAN_OPTIONS=halt_on_error=1 "$TSAN_DIR"/tests/tracing_test

# The overhead contract: telemetry off and tracing off (the defaults) must
# each cost nothing measurable against their on paths. Small scale + few
# reps keep this quick; the gate retries internally to damp scheduler noise
# and exits nonzero only on a consistent regression.
MICROSPEC_SF="${MICROSPEC_GATE_SF:-0.005}" \
MICROSPEC_REPS="${MICROSPEC_GATE_REPS:-3}" \
  "$BUILD_DIR"/bench/bench_tpch_warm --trace-gate

echo "== 10/10: WAL & recovery gate =="
# Crash recovery is exactly the code that only runs after something went
# wrong, so it never ships without sanitizer coverage: the WAL and recovery
# unit suites and the full kill-and-replay differential sweep under
# ASan/UBSan, then under TSan a reduced sweep (one config per bee tier — the
# TSan-relevant surface is flusher-vs-committer-vs-kill, not the config
# matrix) plus the WAL suite for the commit/crash race test and the
# recovery suite.
cmake --build "$ASAN_DIR" -j "$JOBS" \
  --target wal_test recovery_test recovery_differential_test
ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=halt_on_error=1 \
  "$ASAN_DIR"/tests/wal_test
ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=halt_on_error=1 \
  "$ASAN_DIR"/tests/recovery_test
ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=halt_on_error=1 \
  "$ASAN_DIR"/tests/recovery_differential_test
cmake --build "$TSAN_DIR" -j "$JOBS" \
  --target wal_test recovery_test recovery_differential_test
TSAN_OPTIONS=halt_on_error=1 "$TSAN_DIR"/tests/wal_test
TSAN_OPTIONS=halt_on_error=1 "$TSAN_DIR"/tests/recovery_test
MICROSPEC_DIFF_CONFIGS=off,program_batch \
TSAN_OPTIONS=halt_on_error=1 "$TSAN_DIR"/tests/recovery_differential_test

# Two bars: group commit >= 5x commits/s over fsync-per-commit at 32
# concurrent committers, and restart recovery's peak RSS flat (<= 1.10x) as
# the log grows 16x over fixed data; also emits BENCH_wal.json when
# BENCH_JSON is set.
"$BUILD_DIR"/bench/bench_wal --gate

echo "check.sh: all gates passed"
