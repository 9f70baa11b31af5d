#!/usr/bin/env bash
# Fixture suite for the zz clang-tidy plugin (tools/tidy): one positive
# (diagnostic expected) and one negative (must stay clean) case per check.
#
# Needs a clang-tidy binary plus the built plugin (libzz_tidy_checks.so);
# both are auto-discovered, overridable via
#   CLANG_TIDY=/path/to/clang-tidy ZZ_TIDY_PLUGIN=/path/to/libzz_tidy_checks.so
# When either is missing the suite SKIPs (exit 0) with a notice — unless
# ZZ_REQUIRE_TIDY_PLUGIN=1, mirroring the CMake option of the same name.
#
# The plugin binds clang/llvm symbols from the loading binary at -load
# time, so it only works inside the clang-tidy it was built against
# (same LLVM major); scripts/run_clang_tidy.sh applies the same guard.
set -euo pipefail

HERE="$(cd "$(dirname "$0")" && pwd)"
ROOT="$(cd "$HERE/../../.." && pwd)"
cd "$ROOT"  # zz-layering resolves tools/tidy/layering.dag cwd-relative

TIDY="${CLANG_TIDY:-}"
if [ -z "$TIDY" ]; then
  for cand in clang-tidy clang-tidy-21 clang-tidy-20 clang-tidy-19 \
              clang-tidy-18 clang-tidy-17 clang-tidy-16 clang-tidy-15 \
              clang-tidy-14; do
    if command -v "$cand" >/dev/null 2>&1; then TIDY="$cand"; break; fi
  done
fi

PLUGIN="${ZZ_TIDY_PLUGIN:-}"
if [ -z "$PLUGIN" ]; then
  PLUGIN="$(ls "$ROOT"/build*/tools/tidy/libzz_tidy_checks.so 2>/dev/null \
            | head -n1 || true)"
fi

if [ -z "$TIDY" ] || [ -z "$PLUGIN" ] || [ ! -f "$PLUGIN" ]; then
  msg="clang-tidy=${TIDY:-<none>} plugin=${PLUGIN:-<none>}"
  if [ "${ZZ_REQUIRE_TIDY_PLUGIN:-0}" = "1" ]; then
    echo "FAIL: tidy plugin fixtures need both pieces ($msg) and" \
         "ZZ_REQUIRE_TIDY_PLUGIN=1 forbids skipping" >&2
    exit 1
  fi
  echo "SKIP: tidy plugin fixtures ($msg)"
  exit 0
fi

echo "tidy fixtures: $TIDY + $PLUGIN"
fails=0

# run_case <name> <check> <diag|clean> <pattern> <file> [compile flags...]
#   diag:  output must contain a line matching <pattern>
#   clean: output must contain no "[<check>]" diagnostic at all
run_case() {
  local name="$1" check="$2" expect="$3" pattern="$4" file="$5"
  shift 5
  local out
  # --header-filter: fingerprint diags anchor on the struct definition,
  # which lives in a fixture header, not the main file.
  out="$("$TIDY" --load "$PLUGIN" --quiet --checks="-*,$check" \
           --header-filter='.*' "$file" -- -std=c++17 "$@" 2>&1 || true)"
  case "$expect" in
    diag)
      if grep -q "$pattern" <<<"$out"; then
        echo "PASS $name"
      else
        echo "FAIL $name: expected a diagnostic matching /$pattern/, got:"
        sed 's/^/  | /' <<<"$out"
        fails=$((fails + 1))
      fi
      ;;
    clean)
      if grep -q "\[$check\]" <<<"$out"; then
        echo "FAIL $name: expected no $check diagnostics, got:"
        sed 's/^/  | /' <<<"$out"
        fails=$((fails + 1))
      else
        echo "PASS $name"
      fi
      ;;
  esac
}

T="tools/tidy/test"

run_case fingerprint-bad zz-decodecache-fingerprint-complete diag \
  "fields but DecodeCache's fingerprint hashes" \
  "$T/fingerprint_bad.cpp" -I "$T/stubs_bad"
run_case fingerprint-ok zz-decodecache-fingerprint-complete clean - \
  "$T/fingerprint_ok.cpp" -I "$T/stubs_ok"

run_case arena-return-bad zz-arena-slot-escape diag \
  "slot reference escapes the arena scope" \
  "$T/arena_bad.cpp" -I "$T/stubs"
run_case arena-capture-bad zz-arena-slot-escape diag \
  "captures ScratchArena 'arena' by reference" \
  "$T/arena_bad.cpp" -I "$T/stubs"
run_case arena-ok zz-arena-slot-escape clean - \
  "$T/arena_ok.cpp" -I "$T/stubs"

run_case nondet-rd-bad zz-nondeterminism diag \
  "random_device draws hardware entropy" \
  "$T/nondet_bad.cpp"
run_case nondet-time-bad zz-nondeterminism diag \
  "reads wall-clock or hidden-state randomness" \
  "$T/nondet_bad.cpp"
run_case nondet-clock-bad zz-nondeterminism diag \
  "only .*steady_clock is allowed" \
  "$T/nondet_bad.cpp"
run_case nondet-ok zz-nondeterminism clean - \
  "$T/nondet_ok.cpp"

run_case memorder-default-bad zz-memory-order diag \
  "relies on the implicit seq_cst default" \
  "$T/memorder_bad.cpp"
run_case memorder-explicit-bad zz-memory-order diag \
  "seq_cst is outside the repo's ordering convention table" \
  "$T/memorder_bad.cpp"
run_case memorder-ok zz-memory-order clean - \
  "$T/memorder_ok.cpp"

run_case layering-bad zz-layering diag \
  "module 'mac' must not include" \
  "$T/tree/src/mac/layering_bad.cpp" -I "$T/tree/include"
run_case layering-ok zz-layering clean - \
  "$T/tree/src/mac/layering_ok.cpp" -I "$T/tree/include"

if [ "$fails" -ne 0 ]; then
  echo "tidy fixtures: $fails FAILURE(S)" >&2
  exit 1
fi
echo "tidy fixtures: all green"
