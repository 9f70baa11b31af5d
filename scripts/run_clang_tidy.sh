#!/usr/bin/env bash
# clang-tidy over the FULL compile database — the 9 src/ modules AND the
# tests/bench/examples leaves (each leaf directory carries its own
# .clang-tidy profile scoping which checks apply there).
#
# Version-guarded: the committed profiles use check names that need
# clang-tidy >= 14; older or missing tools skip with a notice instead of
# failing, so the plain gcc tier-1 recipe stays runnable on lean machines.
# CI provides a suitable clang-tidy, which makes the pass enforcing there.
# WarningsAsErrors is '*' in every profile — any finding is a hard failure;
# fix it or NOLINT it with a justification (policy: docs/ANALYSIS.md §4).
#
# The zz-* domain checks (tools/tidy) ride along via --load when the plugin
# is built. The plugin resolves clang/llvm symbols from the loading binary,
# so it only works inside the same LLVM major it was built against; the
# stamp file written next to the .so encodes that major and mismatches
# demote to the lint_conventions.sh grep fallback. ZZ_REQUIRE_TIDY_PLUGIN=1
# (the CI clang-plugin job) turns that demotion into a hard failure.
#
#   ./scripts/run_clang_tidy.sh [build-dir]   # default: build-tidy
set -euo pipefail
cd "$(dirname "$0")/.."

MIN_MAJOR=14
if ! command -v clang-tidy >/dev/null 2>&1; then
  if [[ "${ZZ_REQUIRE_TIDY_PLUGIN:-0}" == "1" ]]; then
    echo "run_clang_tidy: clang-tidy not found but ZZ_REQUIRE_TIDY_PLUGIN=1"
    exit 1
  fi
  echo "run_clang_tidy: clang-tidy not found — skipping (enforced in CI)"
  exit 0
fi
major="$(clang-tidy --version | sed -n 's/.*version \([0-9]*\).*/\1/p' | head -1)"
if [[ -z "$major" || "$major" -lt "$MIN_MAJOR" ]]; then
  echo "run_clang_tidy: clang-tidy ${major:-?} < $MIN_MAJOR — skipping (enforced in CI)"
  exit 0
fi

BUILD_DIR="${1:-build-tidy}"
# Full configure (tests, examples, bench all default ON) so the compile
# database covers every TU any build compiles, not just the libraries.
if [[ ! -f "$BUILD_DIR/compile_commands.json" ]]; then
  cmake -B "$BUILD_DIR" -S . >/dev/null
fi

# Enumerate TUs from the database itself — find(1) would silently include
# files the build doesn't compile and miss generated ones.
mapfile -t sources < <(python3 - "$BUILD_DIR/compile_commands.json" <<'PY'
import json, os, sys

with open(sys.argv[1]) as fh:
    db = json.load(fh)
root = os.getcwd()
seen = set()
for entry in db:
    path = os.path.normpath(os.path.join(entry["directory"], entry["file"]))
    rel = os.path.relpath(path, root)
    if rel.startswith(".."):
        continue  # out-of-tree TU (none expected)
    seen.add(rel)
print("\n".join(sorted(seen)))
PY
)
if [[ ${#sources[@]} -eq 0 ]]; then
  echo "run_clang_tidy: empty compile database in $BUILD_DIR — broken configure"
  exit 1
fi

# Completeness gate: a checked-in TU absent from the database would dodge
# the pass without anyone noticing. Every .cpp under the four source roots
# must appear (there are no conditionally-compiled TUs in this tree).
missing=0
while IFS= read -r f; do
  if ! printf '%s\n' "${sources[@]}" | grep -qxF "$f"; then
    echo "run_clang_tidy: $f is not in the compile database — unparseable/unbuilt TU"
    missing=1
  fi
done < <(find src tests bench examples -name '*.cpp' | sort)
if [[ "$missing" -ne 0 ]]; then
  echo "run_clang_tidy: FAILED (compile database incomplete)"
  exit 1
fi

PLUGIN="${ZZ_TIDY_PLUGIN:-}"
if [[ -z "$PLUGIN" ]]; then
  PLUGIN="$(ls build*/tools/tidy/libzz_tidy_checks.so 2>/dev/null | head -n1 || true)"
fi
LOAD=()
if [[ -n "$PLUGIN" && -f "$PLUGIN" ]]; then
  built_major="$(cat "${PLUGIN%.so}.llvm-major" 2>/dev/null || echo "$major")"
  if [[ "$built_major" == "$major" ]]; then
    LOAD=(--load "$PLUGIN")
    echo "run_clang_tidy: zz-* checks loaded from $PLUGIN"
  else
    echo "run_clang_tidy: plugin built against LLVM $built_major, clang-tidy" \
         "is $major — zz-* demoted to the lint_conventions.sh fallback"
  fi
else
  echo "run_clang_tidy: plugin not built — zz-* via lint_conventions.sh fallback only"
fi
if [[ "${ZZ_REQUIRE_TIDY_PLUGIN:-0}" == "1" && ${#LOAD[@]} -eq 0 ]]; then
  echo "run_clang_tidy: ZZ_REQUIRE_TIDY_PLUGIN=1 but the zz plugin is not loadable"
  exit 1
fi

echo "run_clang_tidy: clang-tidy $major over ${#sources[@]} TUs (full database)"
fail=0
for f in "${sources[@]}"; do
  # Any nonzero exit — findings (WarningsAsErrors) or a TU clang cannot
  # parse — fails the pass; unparseable files are bugs, not skips.
  clang-tidy -p "$BUILD_DIR" --quiet "${LOAD[@]}" "$f" || {
    echo "run_clang_tidy: $f failed"
    fail=1
  }
done
if [[ "$fail" -ne 0 ]]; then
  echo "run_clang_tidy: FAILED"
  exit 1
fi
echo "run_clang_tidy: clean"
