#!/usr/bin/env bash
# Tier-1 verify, executable form. Runs the exact ROADMAP recipe from a clean
# tree, then the bench driver's regression gates against the committed
# baseline.
#
#   ./ci.sh                  # plain: configure + build + ctest + bench gates
#   ./ci.sh --sanitize       # analysis matrix: ASan+UBSan leg, TSan leg,
#                            #   clang -Wthread-safety + clang-tidy when a
#                            #   suitable clang is installed (version-guarded)
#   ./ci.sh --sanitize=asan  # one sanitizer leg only (CI matrix jobs)
#   ./ci.sh --sanitize=tsan
#   ./ci.sh --coverage       # instrumented build + ctest + per-module line
#                            #   coverage floors (scripts/coverage_floors.txt)
#   ZZ_KEEP_BUILD=1 ./ci.sh  # reuse existing build directories
#
# The PLAIN run stays authoritative for the bench drift gate: sanitizer legs
# run the full test suite plus a fast deterministic bench subset with scaled
# wall budgets (--wall-scale), but never the stdout drift-diff — the
# instrumentation measures the tool, not the decoder. See docs/ANALYSIS.md.
set -euo pipefail
cd "$(dirname "$0")"

MODE="plain"
case "${1:-}" in
  "") ;;
  --sanitize) MODE="matrix" ;;
  --sanitize=asan) MODE="asan" ;;
  --sanitize=tsan) MODE="tsan" ;;
  --coverage) MODE="coverage" ;;
  *) echo "usage: $0 [--sanitize | --sanitize=asan | --sanitize=tsan |" \
          "--coverage]" >&2
     exit 2 ;;
esac

SUPP_DIR="$PWD/scripts/sanitizers"
# Fast deterministic benches, cheap enough that 2-10x sanitizer overhead
# still finishes inside the (scaled) budgets. fig_5_6_loss_cdf is the one
# that reaches the §4.2.4 link re-estimation (its timing-grid climb).
SAN_BENCHES="error_propagation,fig_4_2_correlation,fig_5_2_tracking_isi,fig_5_6_loss_cdf,lemma_4_4_1_ack"
SAN_WALL_SCALE=12

# --- one sanitizer leg: configure, build, ctest, fast bench subset -------
run_sanitizer_leg() {  # $1 = asan|tsan
  local leg="$1" build_dir san jobs
  build_dir="build-$1"
  if [[ "$leg" == "asan" ]]; then
    san="address;undefined"
  else
    san="thread"
  fi
  # Sanitizer runtimes fail hard (halt_on_error) so a finding is a red
  # build, never a console note; suppressions live in scripts/sanitizers/
  # (policy: docs/ANALYSIS.md §2 — every entry carries a justification).
  export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1:check_initialization_order=1:strict_init_order=1:suppressions=$SUPP_DIR/asan.supp"
  export LSAN_OPTIONS="suppressions=$SUPP_DIR/lsan.supp"
  export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1:suppressions=$SUPP_DIR/ubsan.supp"
  export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1:suppressions=$SUPP_DIR/tsan.supp"

  # Cap parallelism: the suites spin their own 1/2/4-thread pools, and
  # instrumented threads are far heavier than plain ones — `ctest -j
  # $(nproc)` oversubscribes into wall-budget timeouts. TSan serializes
  # worst, so it gets the tighter cap.
  if [[ "$leg" == "tsan" ]]; then
    jobs=$(( $(nproc) / 4 ))
  else
    jobs=$(( $(nproc) / 2 ))
  fi
  (( jobs >= 1 )) || jobs=1

  if [[ -z "${ZZ_KEEP_BUILD:-}" ]]; then
    rm -rf "$build_dir"
  fi
  cmake -B "$build_dir" -S . -DZZ_SANITIZE="$san"
  cmake --build "$build_dir" -j "$(nproc)"
  (cd "$build_dir" && ctest --output-on-failure -j "$jobs")

  # Fast bench subset: exit codes (the benches' own gates) + scaled wall
  # budgets, no drift diff.
  "./$build_dir/bench/run_all" --check \
    --only "$SAN_BENCHES" --wall-scale "$SAN_WALL_SCALE" \
    --out "$build_dir/BENCH_sanitize.json"
  # Streaming route and AP farm under sanitizers: the sample-in →
  # packet-out pipeline (ring ingest, online framing, chunk decode) and
  # the farm's concurrent machinery (work-stealing shards, per-worker
  # arena hand-off across pool batches) are exactly the kind of
  # stateful/racy code sanitizers exist for, but at default scale they
  # are too heavy for 2-10x instrumentation — run them at --quick scale
  # in their own invocation (one run_all run carries one scale).
  "./$build_dir/bench/run_all" --quick --check \
    --only streaming_pipeline,ap_farm --wall-scale "$SAN_WALL_SCALE" \
    --out "$build_dir/BENCH_sanitize_streaming.json"
  echo "ci.sh: $leg leg green ($build_dir)"
}

# --- clang-only static analysis: thread-safety contract + clang-tidy -----
run_clang_static() {
  if ! command -v clang++ >/dev/null 2>&1; then
    echo "ci.sh: clang++ not found — skipping -Wthread-safety leg" \
         "(the contract is still enforced by the GitHub Actions matrix)"
  else
    local build_dir="build-tsa"
    if [[ -z "${ZZ_KEEP_BUILD:-}" ]]; then
      rm -rf "$build_dir"
    fi
    # Compile-only leg: -Wthread-safety violations are errors
    # (ZZ_THREAD_SAFETY), so a clean build IS the machine-checked proof of
    # the ThreadPool/DecodeCache locking contracts.
    cmake -B "$build_dir" -S . -DCMAKE_CXX_COMPILER=clang++ \
      -DZZ_THREAD_SAFETY=ON
    cmake --build "$build_dir" -j "$(nproc)"
    echo "ci.sh: clang -Wthread-safety leg green ($build_dir)"
  fi
  ./scripts/run_clang_tidy.sh || exit 1
}

# --- coverage leg: instrumented tests + per-module line-coverage floors --
# The test suite (not the benches) defines covered; benches/examples are
# skipped — at -O0 with instrumentation they are slow and their coverage
# is the same decode paths the tests already pin. Floors ratchet: pinned
# at last-measured minus 2 points, only ever raised (docs/ANALYSIS.md §9).
if [[ "$MODE" == "coverage" ]]; then
  build_dir="build-cov"
  if [[ -z "${ZZ_KEEP_BUILD:-}" ]]; then
    rm -rf "$build_dir"
  fi
  cmake -B "$build_dir" -S . -DZZ_COVERAGE=ON \
    -DZZ_BUILD_BENCH=OFF -DZZ_BUILD_EXAMPLES=OFF
  cmake --build "$build_dir" -j "$(nproc)"
  (cd "$build_dir" && ctest --output-on-failure -j "$(nproc)")
  python3 scripts/coverage_report.py "$build_dir" \
    --floors scripts/coverage_floors.txt
  echo "ci.sh: coverage leg green ($build_dir)"
  exit 0
fi

if [[ "$MODE" == "asan" || "$MODE" == "tsan" ]]; then
  run_sanitizer_leg "$MODE"
  exit 0
fi
if [[ "$MODE" == "matrix" ]]; then
  run_sanitizer_leg asan
  run_sanitizer_leg tsan
  run_clang_static
  echo "ci.sh: sanitizer matrix green"
  exit 0
fi

# ------------------------------------------------------------- plain tier-1
if [[ -z "${ZZ_KEEP_BUILD:-}" ]]; then
  rm -rf build
fi

# --- Tier-1 (ROADMAP.md recipe; -j given a value for older ctest) ---
cmake -B build -S .
cmake --build build -j "$(nproc)"
(cd build && ctest --output-on-failure -j "$(nproc)")

# --- Bench gates, at the committed baseline's (default) scale: the driver
# runs EVERY deterministic paper bench (headline subset + the folded
# fig_*/lemma_* sweeps). Each bench checks its own paper claims (detector
# operating point, Fig 5-3 BER monotonicity, fair share, head-to-head
# ordering, streaming identity, farm determinism/soak) and exits 1 when one
# breaks; the driver fails on a non-zero exit, a per-bench wall-time budget
# blowout, and ANY stdout drift from bench/baselines (every bench is
# sharded-RNG reproducible, so a changed digit means changed behavior;
# regenerate the baseline deliberately when that is intended). ---
./build/bench/run_all --check \
  --baseline bench/baselines/BENCH_decoder.json \
  --out build/BENCH_decoder.json
test -s build/BENCH_decoder.json

# --- Kernel microbench smoke: one short pass of bench/complexity's kernel
# benches (FFT, correlation, matching, chunk decode, render, block
# interpolation), so they keep building and running.
# Timings are printed, not gated. The target needs Google Benchmark; without
# it CMake skips the target and this step with it.
if [[ -x build/bench/complexity ]]; then
  ./build/bench/complexity --benchmark_filter='Render|AtBatch|Fft|Correlate|MatchScore|ChunkDecode|Schedule|Plan' \
    --benchmark_min_time=0.01
else
  echo "ci.sh: Google Benchmark not found — skipping the complexity smoke"
fi

# --- Docs/conventions consistency: every src/<module> must appear in the
# README module map and docs/PAPER_MAP.md, every bench target in
# docs/PAPER_MAP.md, and the mechanical source conventions (include
# hygiene, RNG discipline, bench registration) must hold — so neither the
# paper-to-code map nor the code conventions silently rot.
docs_fail=0
for d in src/*/; do
  m="$(basename "$d")"
  grep -q "| \`$m\`" README.md || {
    echo "docs-consistency: README.md module map is missing \`$m\`"
    docs_fail=1
  }
  grep -q "src/$m/" docs/PAPER_MAP.md || {
    echo "docs-consistency: docs/PAPER_MAP.md does not mention module src/$m/"
    docs_fail=1
  }
done
benches="$(sed -n '/^set(ZZ_BENCHES$/,/)$/p' bench/CMakeLists.txt \
  | sed -e 's/set(ZZ_BENCHES//' -e 's/)//' ) run_all complexity"
for b in $benches; do
  grep -q "\`$b\`" docs/PAPER_MAP.md || {
    echo "docs-consistency: docs/PAPER_MAP.md does not mention bench \`$b\`"
    docs_fail=1
  }
done
# Selftest first: prove every lint rule can fire before trusting its
# "clean" (a gate that cannot fail is not a gate), then lint the tree.
./scripts/lint_conventions.sh --selftest || docs_fail=1
./scripts/lint_conventions.sh || docs_fail=1
if [[ "$docs_fail" -ne 0 ]]; then
  echo "ci.sh: docs-consistency check FAILED"
  exit 1
fi

echo "ci.sh: tier-1 green, bench gates green, docs consistent, baseline at build/BENCH_decoder.json"
