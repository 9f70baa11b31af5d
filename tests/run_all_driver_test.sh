#!/bin/sh
# Driver tests for bench/run_all. A stub script stands in for the
# lemma_4_4_1_ack bench, so each case runs in milliseconds.
#
#   run_all_driver_test.sh <case> <path to run_all> <scratch dir>
#
# Cases:
#   round_trip    --out then --check --baseline on that file passes; the
#                 stub's quotes, backslash, tab and perf: line survive the
#                 JSON escape and the baseline reader.
#   failed_bench  a stub that writes a gate line to stderr and exits 1, as
#                 a bench whose gate failed does, fails the run; against a
#                 baseline of its unchanged stdout that is exactly one
#                 failure (the exit code), and the gate line is echoed.
#   drift         one changed non-perf: line fails the drift diff.
#   perf_only     a changed perf: line alone passes.
#   unknown_only  an unknown --only name exits 2.
set -u

case_name=$1
run_all=$2
dir=$3
rm -rf "$dir"
mkdir -p "$dir"

# The stub prints stdout.txt, stderr.txt to stderr, and exits with the
# code in exit_code.
stub="$dir/lemma_4_4_1_ack"
cat > "$stub" <<'EOF'
#!/bin/sh
here=$(dirname "$0")
cat "$here/stdout.txt"
cat "$here/stderr.txt" >&2
exit "$(cat "$here/exit_code")"
EOF
chmod +x "$stub"

# stub_prints <perf value> <last line> [exit code [stderr line]]
stub_prints() {
  {
    printf '%s\n' '| n | value |' 'a "quoted" word, a \ backslash'
    printf 'tab\there\n'
    printf 'perf: wall_ms=%s\n' "$1"
    printf '%s\n' "$2"
  } > "$dir/stdout.txt"
  echo "${3:-0}" > "$dir/exit_code"
  if [ $# -ge 4 ]; then
    printf '%s\n' "$4" > "$dir/stderr.txt"
  else
    : > "$dir/stderr.txt"
  fi
}

# drive <args...>: run the driver on the stub; its exit code lands in rc.
drive() {
  "$run_all" --bin-dir "$dir" --only lemma_4_4_1_ack "$@" > "$dir/log" 2>&1
  rc=$?
}

fail() {
  echo "FAIL ($case_name): $*"
  cat "$dir/log"
  exit 1
}

expect_rc() {
  [ "$rc" -eq "$1" ] || fail "exit code $rc, expected $1"
}

case "$case_name" in
  round_trip)
    stub_prints 10 'last line'
    drive --out "$dir/base.json"
    expect_rc 0
    for escaped in '\"quoted\"' '\\ backslash' 'tab\there' '"perf: wall_ms=10"'; do
      grep -qF -- "$escaped" "$dir/base.json" ||
        fail "base.json lacks $escaped"
    done
    drive --check --baseline "$dir/base.json" --out "$dir/run.json"
    expect_rc 0
    grep -q 'all gates green' "$dir/log" || fail "no green summary"
    ;;
  failed_bench)
    stub_prints 10 'last line'
    drive --out "$dir/base.json"
    expect_rc 0
    stub_prints 10 'last line' 1 'gate FAILED: a claim broke'
    drive --out "$dir/run.json"
    expect_rc 1
    drive --check --baseline "$dir/base.json" --out "$dir/run.json"
    expect_rc 1
    grep -q 'lemma_4_4_1_ack exited with 1' "$dir/log" ||
      fail "no exit-code failure reported"
    [ "$(grep -c 'run_all --check FAILED' "$dir/log")" -eq 1 ] ||
      fail "one failed gate reported other than once"
    grep -q 'lemma_4_4_1_ack| gate FAILED: a claim broke' "$dir/log" ||
      fail "the bench's gate line was not echoed"
    grep -q 'gate FAILED' "$dir/run.json" &&
      fail "the bench's stderr reached the JSON stdout"
    ;;
  drift)
    stub_prints 10 'last line'
    drive --out "$dir/base.json"
    expect_rc 0
    stub_prints 10 'last line, changed'
    drive --check --baseline "$dir/base.json" --out "$dir/run.json"
    expect_rc 1
    grep -q 'lemma_4_4_1_ack drifted from baseline' "$dir/log" ||
      fail "no drift reported"
    ;;
  perf_only)
    stub_prints 10 'last line'
    drive --out "$dir/base.json"
    expect_rc 0
    stub_prints 99 'last line'
    drive --check --baseline "$dir/base.json" --out "$dir/run.json"
    expect_rc 0
    ;;
  unknown_only)
    "$run_all" --bin-dir "$dir" --only no_such_bench > "$dir/log" 2>&1
    rc=$?
    expect_rc 2
    grep -q "unknown bench 'no_such_bench'" "$dir/log" ||
      fail "unknown name not reported"
    ;;
  *)
    echo "unknown case $case_name"
    exit 2
    ;;
esac
echo "PASS ($case_name)"
