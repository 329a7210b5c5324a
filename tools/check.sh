#!/usr/bin/env bash
# Repo-wide correctness gate: build + tests (serial and MSOPDS_THREADS=4),
# graph verifier + registry gradcheck, the serving (`serve`) and
# overload/chaos (`serve_fault`) suites at 1 and 4 kernel threads,
# the quantized-serving (`quant`) suite with the vector backends on and
# forced off plus the quant_check parity CLI (DESIGN.md §15),
# the million-user substrate (`scale`) suite plus a real 2-worker
# sweep_runner smoke sweep (DESIGN.md §17),
# the determinism linter and the parallel write-overlap sweep
# (DESIGN.md §13), a Clang -Wthread-safety build of the library,
# sanitizer matrix (MSOPDS_SANITIZE=address/undefined,
# each with a multi-threaded pass over the `parallel` suite, plus a
# ThreadSanitizer build running the `serve` and `serve_fault` labels so
# the engine's hot-swap and overload paths are race-checked when the
# toolchain ships TSan),
# clang-tidy over src/, and the Python-free lint. Prints a per-stage
# summary table and exits non-zero if any stage fails. Stages whose
# toolchain is missing (e.g. clang-tidy or clang++ not installed) are
# reported SKIP, not FAIL.
#
# Usage:
#   tools/check.sh                 full matrix (three builds; slow)
#   tools/check.sh --smoke         script self-checks + lint only (fast;
#                                  run by ctest so script rot fails tier-1)
#   tools/check.sh --no-sanitizers release build + tests + tidy + lint
set -u

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$ROOT"

SMOKE=0
SANITIZERS=1
for arg in "$@"; do
  case "$arg" in
    --smoke) SMOKE=1 ;;
    --no-sanitizers) SANITIZERS=0 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

STAGE_NAMES=()
STAGE_RESULTS=()
STAGE_SECONDS=()
overall=0

run_stage() {
  # run_stage <name> <command...>
  local name="$1"; shift
  local start end rc
  echo "=== stage: $name ==="
  start=$(date +%s)
  "$@"
  rc=$?
  end=$(date +%s)
  STAGE_NAMES+=("$name")
  STAGE_SECONDS+=($((end - start)))
  if [ $rc -eq 0 ]; then
    STAGE_RESULTS+=("PASS")
  else
    STAGE_RESULTS+=("FAIL")
    overall=1
  fi
  return $rc
}

skip_stage() {
  STAGE_NAMES+=("$1")
  STAGE_RESULTS+=("SKIP")
  STAGE_SECONDS+=(0)
  echo "=== stage: $1 (skipped: $2) ==="
}

summary() {
  echo
  echo "===================== check.sh summary ====================="
  printf '%-28s %-6s %8s\n' "stage" "result" "seconds"
  local i
  for i in "${!STAGE_NAMES[@]}"; do
    printf '%-28s %-6s %8s\n' "${STAGE_NAMES[$i]}" "${STAGE_RESULTS[$i]}" \
           "${STAGE_SECONDS[$i]}"
  done
  echo "============================================================"
  if [ $overall -eq 0 ]; then
    echo "check.sh: all stages passed"
  else
    echo "check.sh: FAILURES above"
  fi
}

# run_stage_table <skip-reason> <name> <function> [<name> <function>]...
# Walks one ordered list of (stage name, function) pairs: runs each stage
# when <skip-reason> is empty, otherwise records each as SKIP with that
# reason. The run path and the skip path therefore always cover the same
# stages, so no stage can drop out of the summary when its build fails.
run_stage_table() {
  local reason="$1"; shift
  while [ $# -ge 2 ]; do
    if [ -z "$reason" ]; then
      run_stage "$1" "$2"
    else
      skip_stage "$1" "$reason"
    fi
    shift 2
  done
}

# build_then <build-name> <build-function> <name> <function>...
# Runs the build stage, then the table after it, or skips that table with
# "build failed".
build_then() {
  local name="$1" build="$2"; shift 2
  run_stage "$name" "$build"
  if [ "${STAGE_RESULTS[-1]}" = "PASS" ]; then
    run_stage_table "" "$@"
  else
    run_stage_table "build failed" "$@"
  fi
}

# --- release build: stage functions and their table --------------------------
build_release() {
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release && cmake --build build -j
}
release_ctest() { ctest --test-dir build "$@" --output-on-failure -j; }
# Same suite on the multi-threaded kernels: the parallel runtime's
# contract is bit-identical results, so every expectation must hold
# unchanged at MSOPDS_THREADS=4.
ctest_mt() { MSOPDS_THREADS=4 release_ctest; }
# Same suite with the vector backends forced off at runtime: the
# scalar/SIMD bit-exactness contract (DESIGN.md §14) means every
# expectation must hold unchanged on the scalar reference kernels.
ctest_simd_off() { MSOPDS_SIMD=0 release_ctest; }
# SIMD parity label on the probed (vector) backend: the scalar-vs-vector
# bit contract, kept as a named stage so the gate is visible and
# runnable on its own.
ctest_simd_parity() { release_ctest -L simd; }
# Quantized-serving suite on the probed (vector) backend and with the
# vector paths forced off: the per-precision bit-identity and ranking
# parity bounds (DESIGN.md §15) must hold on both arms.
ctest_quant() { release_ctest -L quant; }
ctest_quant_simd_off() { MSOPDS_SIMD=0 release_ctest -L quant; }
# Standalone quantization parity CLI: kernel dispatch bit parity over
# every vector-tail remainder class, round-trip bounds, and end-to-end
# top-K backend/thread parity.
quant_parity() { ./build/tools/quant_check; }
# Serving suite pinned to both thread counts: the engine's lists must
# be bit-identical to the offline reference at any pool size, so the
# label runs once serial and once multi-threaded.
ctest_serve_t1() { MSOPDS_THREADS=1 release_ctest -L serve; }
ctest_serve_t4() { MSOPDS_THREADS=4 release_ctest -L serve; }
# Overload/chaos suite pinned to both thread counts: the chaos replay
# contract is identical shed/reject/degraded traces at any pool size.
# (`-L serve` above matches the serve_fault label too — regex match —
# but the explicit stages keep the robustness gate visible and runnable
# on its own.)
ctest_serve_fault_t1() { MSOPDS_THREADS=1 release_ctest -L serve_fault; }
ctest_serve_fault_t4() { MSOPDS_THREADS=4 release_ctest -L serve_fault; }
# Million-user substrate suite (DESIGN.md §17): shard-merge and
# out-of-core training bit-identity, streaming-ingest equivalence, and
# the orchestrator's SIGKILL-a-worker recovery contract.
ctest_scale() { release_ctest -L scale; }
# Crash-safe sweep smoke: a real 2-worker subprocess sweep over a
# 4-cell toy grid, exercising dispatch, segment merge, and clean
# shutdown outside the test harness.
sweep_smoke() {
  local dir
  dir=$(mktemp -d) || return 1
  ./build/tools/sweep_runner --mode=master --workers=2 \
    --work_dir="$dir" --cells=4 --users=32 --items=24 --epochs=2
  local rc=$?
  [ $rc -eq 0 ] && [ -s "$dir/sweep.ckpt" ]
  rc=$?
  rm -rf "$dir"
  return $rc
}
verify_graph() { ./build/tools/verify_graph; }
# Determinism/concurrency linter over the whole source tree: raw sync
# primitives outside util/sync.h, ambient RNG, unordered iteration
# feeding output order, unguarded members of mutex-owning classes
# (DESIGN.md §13).
determinism_lint() { ./build/tools/determinism_lint; }
# Write-overlap pass alone (also part of verify-graph above): every
# registered parallel kernel's chunk grid proven disjoint, plus the
# checker's planted-violation self-test.
overlap_verify() { ./build/tools/verify_graph --overlap-only; }

RELEASE_STAGES=(
  ctest-release            release_ctest
  ctest-release-mt4        ctest_mt
  ctest-release-simd-off   ctest_simd_off
  ctest-simd-parity        ctest_simd_parity
  ctest-quant              ctest_quant
  ctest-quant-simd-off     ctest_quant_simd_off
  quant-parity             quant_parity
  ctest-serve-t1           ctest_serve_t1
  ctest-serve-t4           ctest_serve_t4
  ctest-serve-fault-t1     ctest_serve_fault_t1
  ctest-serve-fault-t4     ctest_serve_fault_t4
  ctest-scale              ctest_scale
  sweep-smoke              sweep_smoke
  verify-graph             verify_graph
  determinism-lint         determinism_lint
  overlap-verify           overlap_verify
)

# --- sanitizer legs: Debug builds so MSOPDS_CHECK/auto-verify stay in --------
# Each sanitizer also gets one multi-threaded pass over the parallel suite,
# so races in the runtime are caught even without a TSan toolchain. The
# functions read the leg's build tree from $san_dir.
build_san() {
  cmake -B "$san_dir" -S . -DCMAKE_BUILD_TYPE=Debug \
        -DMSOPDS_SANITIZE="$san" \
    && cmake --build "$san_dir" -j
}
san_ctest() { ctest --test-dir "$san_dir" "$@" --output-on-failure -j; }
ctest_san_mt() { MSOPDS_THREADS=4 san_ctest -L parallel; }
# Memory suite under the sanitizer: recycled-buffer misuse (the arena's
# poisoned free lists) must fault, not pass silently.
ctest_san_memory() { san_ctest -L memory; }
# SIMD suite under the sanitizer: intrinsic loads past a buffer's end are
# exactly the class ASan/UBSan catch.
ctest_san_simd() { san_ctest -L simd; }
# Quantized-serving suite under the sanitizer: the int8/fp16 tail loads
# and the quantize-time buffer sizing are exactly the class ASan/UBSan
# catch (plus UB from any out-of-range rounding).
ctest_san_quant() { san_ctest -L quant; }
# Scale suite under the sanitizer: mmap'd shard payload reads, the
# ingest spill buffers, and the orchestrator's fork/pipe lifetime
# handling are exactly the class ASan/UBSan catch.
ctest_san_scale() { san_ctest -L scale; }

# san_stage_table <san>: sets SAN_STAGES to the leg's table.
san_stage_table() {
  SAN_STAGES=(
    "ctest-$1"         san_ctest
    "ctest-$1-mt4"     ctest_san_mt
    "ctest-$1-memory"  ctest_san_memory
    "ctest-$1-simd"    ctest_san_simd
    "ctest-$1-quant"   ctest_san_quant
    "ctest-$1-scale"   ctest_san_scale
  )
}

# ThreadSanitizer leg: the serving engine is the repo's first
# reader/writer-concurrent code path, so its hot-swap must be checked by a
# race detector, not only by assertions. TSan and ASan cannot share a
# build, hence a dedicated tree running the `serve` label.
build_thread() {
  cmake -B build-thread -S . -DCMAKE_BUILD_TYPE=Debug \
        -DMSOPDS_SANITIZE=thread \
    && cmake --build build-thread -j
}
ctest_thread_serve() {
  MSOPDS_THREADS=4 ctest --test-dir build-thread -L serve \
    --output-on-failure -j
}
# Overload/chaos suite under TSan: rejection, shedding, degraded routing,
# and retry/backoff all cross the queue mutex and the snapshot/fallback
# slots concurrently — race-check them explicitly.
ctest_thread_serve_fault() {
  MSOPDS_THREADS=4 ctest --test-dir build-thread -L serve_fault \
    --output-on-failure -j
}

THREAD_STAGES=(
  ctest-thread-serve        ctest_thread_serve
  ctest-thread-serve-fault  ctest_thread_serve_fault
)

# --- script self-checks (always run; catches rot in the scripts) ------------
# Besides parsing both scripts, every stage-table row must name a defined
# function, and no stage name may appear twice across the tables (the
# summary would be ambiguous).
stage_tables() {
  local rc=0 i san duplicates
  local -a rows=("${RELEASE_STAGES[@]}" "${THREAD_STAGES[@]}")
  for san in address undefined; do
    san_stage_table "$san"
    rows+=("${SAN_STAGES[@]}")
  done
  for ((i = 1; i < ${#rows[@]}; i += 2)); do
    if ! declare -F "${rows[i]}" > /dev/null; then
      echo "stage ${rows[i - 1]}: no function ${rows[i]}" >&2
      rc=1
    fi
  done
  duplicates=$(for ((i = 0; i < ${#rows[@]}; i += 2)); do
                 echo "${rows[i]}"
               done | sort | uniq -d)
  if [ -n "$duplicates" ]; then
    echo "duplicate stage name(s): $duplicates" >&2
    rc=1
  fi
  return $rc
}
shell_syntax() {
  bash -n tools/check.sh && bash -n tools/lint.sh && stage_tables
}
run_stage "shell-syntax" shell_syntax

# --- lint (always run; no build needed) -------------------------------------
run_stage "lint" bash tools/lint.sh

if [ $SMOKE -eq 1 ]; then
  summary
  exit $overall
fi

# --- release build + tests + graph verifier ---------------------------------
build_then build-release build_release "${RELEASE_STAGES[@]}"

# --- clang-tidy over src/ ----------------------------------------------------
if command -v clang-tidy > /dev/null 2>&1; then
  tidy_src() {
    # compile_commands.json is exported by the release configure above.
    find src -name '*.cc' -print0 \
      | xargs -0 -n 8 -P "$(nproc)" clang-tidy -p build --quiet
  }
  run_stage "clang-tidy" tidy_src
else
  skip_stage "clang-tidy" "clang-tidy not installed"
fi

# --- Clang thread-safety analysis --------------------------------------------
# Compiles the library with -Wthread-safety -Werror=thread-safety so the
# util/sync.h annotations (DESIGN.md §13) are enforced, not decorative.
# Clang-only: gcc ignores the attributes, so the stage SKIPs without a
# clang++ on PATH.
if command -v clang++ > /dev/null 2>&1; then
  build_thread_safety() {
    cmake -B build-tsafety -S . -DCMAKE_BUILD_TYPE=Release \
          -DCMAKE_CXX_COMPILER=clang++ -DMSOPDS_THREAD_SAFETY=ON \
      && cmake --build build-tsafety -j --target msopds
  }
  run_stage "thread-safety" build_thread_safety
else
  skip_stage "thread-safety" "clang++ not installed (-Wthread-safety is Clang-only)"
fi

# --- sanitizer matrix ---------------------------------------------------------
if [ $SANITIZERS -eq 1 ]; then
  for san in address undefined; do
    san_dir="build-$san"
    san_stage_table "$san"
    build_then "build-$san" build_san "${SAN_STAGES[@]}"
  done
  if echo 'int main(){return 0;}' | g++ -x c++ -fsanitize=thread - \
       -o /tmp/msopds_tsan_probe$$ > /dev/null 2>&1; then
    rm -f /tmp/msopds_tsan_probe$$
    build_then build-thread build_thread "${THREAD_STAGES[@]}"
  else
    run_stage_table "toolchain has no TSan runtime" \
      build-thread build_thread "${THREAD_STAGES[@]}"
  fi
else
  skip_stage "sanitizers" "--no-sanitizers"
fi

summary
exit $overall
