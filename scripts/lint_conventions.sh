#!/usr/bin/env bash
# Repo-convention lint (wired into ci.sh's docs-consistency block).
#
# Mechanical conventions that -Wall cannot see and reviews forget:
#   1. Header guards: every committed header uses `#pragma once` — no
#      ad-hoc #ifndef guards drifting out of sync with file moves.
#   2. Include-path hygiene: src/ code includes project headers by their
#      installed `zz/...` name, never by relative path, so the module
#      boundaries in the CMake graph stay real.
#   3. RNG discipline: no rand()/srand()/random() outside zz/common/rng —
#      every stochastic element must flow from a seeded zz::Rng or the
#      sharded-seed plumbing, or bit-exact reproducibility dies quietly.
#   4. Bench registration: every bench/*.cpp is registered in ZZ_BENCHES
#      (run_all.cpp and complexity.cpp are the two intentional exceptions),
#      so a new bench cannot exist outside the build/docs/baseline gates.
#   5. Module layering: src/<m>/ may only include zz/<dep>/ for deps the
#      DAG in tools/tidy/layering.dag grants <m>. Grep fallback for the
#      clang-tidy zz-layering check — same DAG file, so the rule holds on
#      hosts where the plugin cannot be built (docs/ANALYSIS.md §6).
#   6. Nondeterminism: bench-reachable code (src/ + bench/) must replay
#      bit-identically — no hardware entropy, no wall clocks as data
#      (steady_clock is fine: wall budgets only). Grep fallback for the
#      clang-tidy zz-nondeterminism check.
#
#   ./scripts/lint_conventions.sh             # lint the repo
#   ./scripts/lint_conventions.sh --selftest  # prove every rule can fire
set -uo pipefail
cd "$(dirname "$0")/.."

# --selftest re-invokes this script against a synthetic tree carrying one
# violation per rule and asserts each fires; a gate that cannot fail is
# not a gate. ZZ_LINT_ROOT is the selftest hook, not a user feature.
if [[ "${1:-}" == "--selftest" ]]; then
  self="$(pwd)/scripts/lint_conventions.sh"
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT
  mkdir -p "$tmp"/src/foo "$tmp"/bench "$tmp"/tests "$tmp"/examples \
           "$tmp"/tools/tidy

  # Rule 1: header with a classic guard and no pragma once.
  printf '#ifndef FOO_BAD_H\n#define FOO_BAD_H\n#endif\n' \
    > "$tmp"/src/foo/bad_guard.h
  # Rule 2: relative quoted include.
  printf '#include "../other/x.h"\n' > "$tmp"/src/foo/rel_include.cpp
  # Rule 3: raw C rand.
  printf '#include <cstdlib>\nint f() { return rand(); }\n' \
    > "$tmp"/src/foo/raw_rand.cpp
  # Rule 4: bench TU missing from ZZ_BENCHES.
  printf 'set(ZZ_BENCHES\n  listed\n)\n' > "$tmp"/bench/CMakeLists.txt
  printf 'int main() {}\n' > "$tmp"/bench/rogue.cpp
  # Rule 5: foo may only see common, but includes zz/testbed/.
  printf 'foo: common\n' > "$tmp"/tools/tidy/layering.dag
  printf '#include "zz/testbed/scenario.h"\n' > "$tmp"/src/foo/layer.cpp
  # Rule 6: hardware entropy in src/.
  printf '#include <random>\nstd::random_device g_rd;\n' \
    > "$tmp"/src/foo/entropy.cpp

  out="$(ZZ_LINT_ROOT="$tmp" "$self" 2>&1)"
  status=$?
  selffail=0
  if [[ "$status" -eq 0 ]]; then
    echo "selftest: lint PASSED a tree with known violations"
    selffail=1
  fi
  for pat in "missing '#pragma once'" \
             "classic #ifndef include guard" \
             "non-zz/ quoted include" \
             "raw C rand" \
             "not registered in ZZ_BENCHES" \
             "layering violation" \
             "nondeterminism in bench-reachable code"; do
    if ! grep -qF "$pat" <<<"$out"; then
      echo "selftest: rule \"$pat\" did not fire; output was:"
      sed 's/^/  | /' <<<"$out"
      selffail=1
    fi
  done
  if [[ "$selffail" -ne 0 ]]; then
    echo "lint_conventions --selftest: FAILED"
    exit 1
  fi
  echo "lint_conventions --selftest: every rule fires"
  exit 0
fi

if [[ -n "${ZZ_LINT_ROOT:-}" ]]; then
  cd "$ZZ_LINT_ROOT"
fi

fail=0
note() {
  echo "lint_conventions: $1"
  fail=1
}

# --- 1. pragma-once consistency ------------------------------------------
while IFS= read -r h; do
  grep -q '^#pragma once$' "$h" || note "$h: missing '#pragma once'"
  if grep -qE '^#ifndef +[A-Z0-9_]*_H' "$h"; then
    note "$h: classic #ifndef include guard (use #pragma once)"
  fi
done < <(find src bench tests -name '*.h' | sort)

# --- 2. zz/ include-path hygiene in src/ ---------------------------------
# Quoted includes in src/ must name an installed zz/ header; relative
# escapes ("../", "include/zz/...") bypass the module dependency graph.
while IFS= read -r line; do
  note "non-zz/ quoted include in src/: $line"
done < <(grep -rn '#include "' src --include='*.h' --include='*.cpp' \
           | grep -v '#include "zz/')

# --- 3. RNG discipline ----------------------------------------------------
# \brand( does not match operand( / uniform_rand( etc.; common/rng.* and
# this script are the only places allowed to say rand.
while IFS= read -r line; do
  note "raw C rand in non-rng code (use zz::Rng): $line"
done < <(grep -rnE '\b(std::)?(rand|srand|random)\(' \
           src bench tests examples \
           --include='*.h' --include='*.cpp' \
           | grep -v '^src/common/rng\.' \
           | grep -v '^src/common/include/zz/common/rng\.h')

# --- 4. bench registration ------------------------------------------------
benches="$(sed -n '/^set(ZZ_BENCHES$/,/)$/p' bench/CMakeLists.txt)"
for f in bench/*.cpp; do
  [[ -e "$f" ]] || continue
  b="$(basename "$f" .cpp)"
  case "$b" in
    run_all|complexity) continue ;;  # driver / Google-Benchmark binary
  esac
  grep -qE "^  $b\)?\$" <<<"$benches" || \
    note "$f not registered in ZZ_BENCHES (bench/CMakeLists.txt)"
done

# --- 5. module layering (grep fallback for zz-layering) -------------------
# Parses the same DAG the clang-tidy plugin consumes. Deps are spelled
# transitively in the file, so membership is a flat lookup — no closure.
declare -A dag_deps
dag_ok=0
if [[ -f tools/tidy/layering.dag ]]; then
  while IFS= read -r line; do
    line="${line%%#*}"
    [[ "$line" =~ ^[[:space:]]*$ ]] && continue
    mod="$(tr -d '[:space:]' <<<"${line%%:*}")"
    deps="$(xargs <<<"${line#*:}" 2>/dev/null || true)"
    dag_deps["$mod"]=" $mod $deps "
    dag_ok=1
  done < tools/tidy/layering.dag
fi
if [[ "$dag_ok" -eq 0 ]]; then
  # Loud by design: a missing DAG must not look like a clean layering pass.
  note "tools/tidy/layering.dag missing or empty — layering NOT enforced"
else
  while IFS= read -r hit; do
    f="${hit%%:*}"
    from="${f#src/}"
    from="${from%%/*}"
    to="$(sed -n 's|.*#include "zz/\([^/"]*\)/.*|\1|p' <<<"$hit")"
    [[ -z "$to" || "$from" == "$to" ]] && continue
    if [[ -z "${dag_deps[$from]:-}" ]]; then
      note "layering violation: module '$from' absent from tools/tidy/layering.dag ($f)"
    elif [[ "${dag_deps[$from]}" != *" $to "* ]]; then
      note "layering violation: $hit ('$from' may not depend on '$to' — move the code down the stack or extend the DAG deliberately)"
    fi
  done < <(grep -rn '#include "zz/' src --include='*.h' --include='*.cpp')
fi

# --- 6. nondeterminism discipline (grep fallback for zz-nondeterminism) ---
# steady_clock deliberately not matched: monotonic wall budgets are fine,
# wall TIME as data is not. The plugin's zz-nondeterminism covers the same
# surface structurally (through typedefs etc.) where it can run.
while IFS= read -r line; do
  note "nondeterminism in bench-reachable code: $line"
done < <(grep -rnE 'std::random_device|system_clock|high_resolution_clock|\bgettimeofday\b|\bclock_gettime\b|\btime\(NULL\)|\btime\(nullptr\)|\bdrand48\b' \
           src bench --include='*.h' --include='*.cpp')

if [[ "$fail" -ne 0 ]]; then
  echo "lint_conventions: FAILED"
  exit 1
fi
echo "lint_conventions: clean"
