// Bench driver: runs the paper-reproduction benches that live next to this
// binary and emits a machine-readable BENCH_decoder.json baseline.
//
// Usage:
//   run_all [--quick | --full] [--check] [--baseline <file>]
//           [--bin-dir <dir>] [--out <file>] [--only <name,name,...>]
//           [--wall-scale <x>]
//
// The committed baseline covers EVERY deterministic paper bench: the
// headline subset the ROADMAP's perf/accuracy trajectory tracks
// (table_5_1_micro, fig_5_3_ber, n_sender_sweep, baseline_comparison,
// streaming_pipeline, ap_farm) plus the remaining fig_*/lemma_* benches,
// all sharded-RNG reproducible. Each bench's stdout is captured verbatim
// into the JSON together with its wall-clock time; its stderr is captured
// apart and kept out of the JSON and the drift diff.
//
// Each bench checks the paper claims it reproduces on the values it
// computes (bench::gate in bench_util.h, which writes to stderr) and exits
// 1 when one breaks; the driver reads no table. A bench that exits
// non-zero fails the run, and its stderr (the gate messages, or a crash or
// sanitizer report) is echoed to the driver's stderr.
//
// --check adds the gates only the driver can apply: each bench's wall time
// against its budget (~2.5x measured cost) and, with --baseline, a
// verbatim diff of every bench's stdout against the committed baseline.
//
// --only restricts the run to a comma-separated subset of the baseline
// benches (ci.sh --sanitize uses it for a fast deterministic subset sized
// for sanitizer overhead). --wall-scale multiplies every wall-time budget —
// sanitizer instrumentation slows the benches 2-10x, and without the
// multiplier --check would hard-fail budgets that measure the tool, not a
// regression.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace {

struct BenchRun {
  std::string name;
  int exit_code = -1;
  double wall_ms = 0.0;
  std::vector<std::string> stdout_lines;
  std::vector<std::string> stderr_lines;
};

// The committed baseline: the headline perf/accuracy subset first, then
// the remaining deterministic fig_*/lemma_* benches (folded into the
// baseline + drift gate once the decode hot path made them cheap enough to
// run gated in CI). complexity is excluded: it is a Google Benchmark
// binary with its own JSON emitter.
const char* const kBaselineBenches[] = {
    "table_5_1_micro",      "fig_5_3_ber",
    "n_sender_sweep",       "baseline_comparison",
    "error_propagation",    "fig_4_2_correlation",
    "fig_4_7_greedy_failure", "fig_5_2_tracking_isi",
    "fig_5_4_capture",      "fig_5_5_throughput_cdf",
    "fig_5_6_loss_cdf",     "fig_5_7_scatter",
    "fig_5_8_hidden_loss",  "fig_5_9_three_senders",
    "lemma_4_4_1_ack",      "streaming_pipeline",
    "ap_farm"};

// Every bench's stdout is fully deterministic (sharded RNG, thread-count
// independent — test-pinned for the sweeps), so --check --baseline diffs
// every bench verbatim against the committed baseline.

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// Append every line of `f` to `lines`, without the newlines.
void read_lines(FILE* f, std::vector<std::string>& lines) {
  std::string line;
  char buf[4096];
  while (std::fgets(buf, sizeof buf, f)) {
    line += buf;
    if (!line.empty() && line.back() == '\n') {
      line.pop_back();
      lines.push_back(line);
      line.clear();
    }
  }
  if (!line.empty()) lines.push_back(line);
}

BenchRun run_bench(const std::string& bin_dir, const std::string& name) {
  BenchRun r;
  r.name = name;
  // stdout comes through the pipe; stderr goes to a temporary file, so a
  // failed gate's message is reported once, as the exit code, and never
  // as a stdout drift. bin_dir and the temporary path are single-quoted
  // so spaces/metacharacters in them survive the shell.
  const char* tmpdir = std::getenv("TMPDIR");
  std::string err_path =
      std::string(tmpdir && *tmpdir ? tmpdir : "/tmp") + "/run_all_XXXXXX";
  const int err_fd = mkstemp(err_path.data());
  if (err_fd < 0) {
    r.exit_code = 127;
    r.stderr_lines.push_back("run_all: cannot create " + err_path);
    return r;
  }
  close(err_fd);
  const std::string cmd =
      "'" + bin_dir + "/" + name + "' 2>'" + err_path + "'";
  const auto t0 = std::chrono::steady_clock::now();
  FILE* pipe = popen(cmd.c_str(), "r");
  if (!pipe) {
    r.exit_code = 127;
    r.stderr_lines.push_back("run_all: failed to spawn " + cmd);
    std::remove(err_path.c_str());
    return r;
  }
  read_lines(pipe, r.stdout_lines);
  const int status = pclose(pipe);
  const auto t1 = std::chrono::steady_clock::now();
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  if (FILE* err = std::fopen(err_path.c_str(), "r")) {
    read_lines(err, r.stderr_lines);
    std::fclose(err);
  }
  std::remove(err_path.c_str());
  if (status < 0) {
    r.exit_code = status;
  } else if (WIFEXITED(status)) {
    r.exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    // Shell convention: a bench killed by a signal must not read as a pass.
    r.exit_code = 128 + WTERMSIG(status);
  } else {
    r.exit_code = -1;
  }
  return r;
}

void write_json(const std::string& path, const std::string& scale,
                const std::vector<BenchRun>& runs) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "run_all: cannot open %s for writing\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": \"zz-bench-baseline-v1\",\n");
  std::fprintf(f, "  \"scale\": \"%s\",\n", scale.c_str());
  std::fprintf(f, "  \"benches\": [\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& r = runs[i];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"name\": \"%s\",\n", json_escape(r.name).c_str());
    std::fprintf(f, "      \"exit_code\": %d,\n", r.exit_code);
    std::fprintf(f, "      \"wall_ms\": %.1f,\n", r.wall_ms);
    std::fprintf(f, "      \"stdout\": [\n");
    for (std::size_t j = 0; j < r.stdout_lines.size(); ++j) {
      std::fprintf(f, "        \"%s\"%s\n", json_escape(r.stdout_lines[j]).c_str(),
                   j + 1 < r.stdout_lines.size() ? "," : "");
    }
    std::fprintf(f, "      ]\n");
    std::fprintf(f, "    }%s\n", i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
}

std::string dir_of(const char* argv0) {
  std::string s(argv0);
  const auto slash = s.find_last_of('/');
  return slash == std::string::npos ? std::string(".") : s.substr(0, slash);
}

// ------------------------------------------------------------------ checks

int check_failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "run_all --check FAILED: %s\n", what.c_str());
    ++check_failures;
  }
}

// Multiplier applied to every wall budget (--wall-scale); 1.0 in plain
// runs, >1 under sanitizer instrumentation.
double wall_scale = 1.0;

// Wall-time guard: ~2.5x the recorded cost of each bench at the given
// scale; a regression to the old O(N·M) correlation path or per-symbol
// interpolation route trips this. Budgets were tightened to the batched
// decode-engine numbers (PR 5); tiny benches get a 2 s floor so machine
// noise cannot flake them. --full runs 4x the samples (bench_util
// run_scale), so its budgets scale.
void check_wall_time(const BenchRun& r, bool quick, bool full) {
  double budget_ms = 0.0;
  // Headline subset (measured single-core: 5.9 s / 2.2 s / 8.8 s / 9.0 s).
  if (r.name == "table_5_1_micro") budget_ms = quick ? 8000.0 : 15000.0;
  if (r.name == "fig_5_3_ber") budget_ms = quick ? 4000.0 : 6000.0;
  if (r.name == "n_sender_sweep") budget_ms = quick ? 5000.0 : 22000.0;
  if (r.name == "baseline_comparison") budget_ms = quick ? 10000.0 : 25000.0;
  // Measured 25 s single-core: every identity row runs its scenario twice
  // (Live then Streaming), plus the streaming-route sweep.
  if (r.name == "streaming_pipeline") budget_ms = quick ? 15000.0 : 60000.0;
  // The saturation grid runs 11x (1/2/4/8-worker sweep) plus three decoded
  // soak runs; oversubscribed worker counts cost scheduler time on small
  // machines.
  if (r.name == "ap_farm") budget_ms = quick ? 20000.0 : 60000.0;
  if (budget_ms == 0.0) {
    // Folded fig_*/lemma_* benches (measured 0.01-9.1 s single-core).
    // Quick runs quarter the samples, so their budgets scale to 0.4x with
    // the same 2 s machine-noise floor.
    if (r.name == "fig_4_7_greedy_failure") budget_ms = 25000.0;
    if (r.name == "fig_5_4_capture") budget_ms = 20000.0;
    if (r.name == "fig_5_8_hidden_loss") budget_ms = 20000.0;
    if (r.name == "fig_5_5_throughput_cdf") budget_ms = 5000.0;
    if (r.name == "fig_5_6_loss_cdf") budget_ms = 4000.0;
    if (r.name == "fig_5_7_scatter") budget_ms = 6000.0;
    if (r.name == "fig_5_9_three_senders") budget_ms = 7000.0;
    if (r.name == "error_propagation" || r.name == "fig_4_2_correlation" ||
        r.name == "fig_5_2_tracking_isi" || r.name == "lemma_4_4_1_ack")
      budget_ms = 2000.0;
    if (quick && budget_ms > 0.0)
      budget_ms = std::max(2000.0, 0.4 * budget_ms);
  }
  if (full) budget_ms *= 4.0;
  budget_ms *= wall_scale;
  if (budget_ms > 0.0)
    check(r.wall_ms <= budget_ms,
          r.name + " took " + std::to_string(r.wall_ms) + " ms (budget " +
              std::to_string(budget_ms) + " ms)");
}

// ------------------------------------------------- baseline drift (--check)

// Minimal reader for the committed baseline: the per-bench "stdout" arrays
// in their escaped on-disk form, plus the recorded scale.
struct Baseline {
  std::string scale;
  std::vector<std::pair<std::string, std::vector<std::string>>> benches;
};

std::string strip(const std::string& s) {
  std::size_t a = 0, b = s.size();
  while (a < b && (s[a] == ' ' || s[a] == '\t')) ++a;
  while (b > a && (s[b - 1] == ' ' || s[b - 1] == '\t' || s[b - 1] == '\r' ||
                   s[b - 1] == '\n'))
    --b;
  return s.substr(a, b - a);
}

// Extract the value of a `"key": "value"` line (escaped form, no unescape).
bool quoted_value(const std::string& line, const std::string& key,
                  std::string* out) {
  const std::string prefix = "\"" + key + "\": \"";
  const auto at = line.find(prefix);
  if (at == std::string::npos) return false;
  const auto start = at + prefix.size();
  auto end = line.rfind('"');
  if (end == std::string::npos || end <= start) return false;
  *out = line.substr(start, end - start);
  return true;
}

bool load_baseline(const std::string& path, Baseline* out) {
  FILE* f = std::fopen(path.c_str(), "r");
  if (!f) return false;
  char buf[1 << 16];
  std::string cur_name;
  bool in_stdout = false;
  while (std::fgets(buf, sizeof buf, f)) {
    const std::string line = strip(buf);
    std::string v;
    if (quoted_value(line, "scale", &v)) {
      out->scale = v;
    } else if (quoted_value(line, "name", &v)) {
      cur_name = v;
      out->benches.push_back({cur_name, {}});
    } else if (line.rfind("\"stdout\":", 0) == 0) {
      // A malformed file can present a stdout array before any bench
      // name; there is nowhere to attach those lines, so skip the array.
      in_stdout = !out->benches.empty();
    } else if (in_stdout) {
      if (line == "]" || line == "],") {
        in_stdout = false;
      } else if (line.size() >= 2 && line.front() == '"') {
        std::string s = line;
        if (!s.empty() && s.back() == ',') s.pop_back();
        if (s.size() >= 2 && s.front() == '"' && s.back() == '"')
          out->benches.back().second.push_back(s.substr(1, s.size() - 2));
      }
    }
  }
  std::fclose(f);
  return true;
}

// Diff a deterministic bench's captured stdout against the committed
// baseline (both sides in escaped form). Only meaningful when the run's
// scale matches the baseline's — the caller guards that. Lines prefixed
// "perf:" are wall-clock measurements (ap_farm's throughput sweep) — they
// are recorded in the baseline for the trajectory but excluded from the
// diff on both sides, since they measure the machine, not the code.
void check_drift(const BenchRun& r, const Baseline& base) {
  const auto is_perf = [](const std::string& escaped) {
    return escaped.rfind("perf:", 0) == 0;
  };
  for (const auto& [name, lines] : base.benches) {
    if (name != r.name) continue;
    std::vector<std::string> want_lines, got_lines;
    for (const auto& l : lines)
      if (!is_perf(l)) want_lines.push_back(l);
    for (const auto& l : r.stdout_lines) {
      std::string e = json_escape(l);
      if (!is_perf(e)) got_lines.push_back(std::move(e));
    }
    std::size_t n = std::max(want_lines.size(), got_lines.size());
    for (std::size_t i = 0; i < n; ++i) {
      const std::string want = i < want_lines.size() ? want_lines[i]
                                                     : "<missing>";
      const std::string got =
          i < got_lines.size() ? got_lines[i] : "<missing>";
      if (want != got) {
        check(false, r.name + " drifted from baseline at line " +
                         std::to_string(i + 1) + ": baseline \"" + want +
                         "\" vs run \"" + got + "\"");
        return;  // first divergence is enough
      }
    }
    return;
  }
  check(false, r.name + " not present in baseline file");
}

void run_checks(const std::vector<BenchRun>& runs, const std::string& scale,
                const std::string& baseline_path) {
  const bool quick = scale == "quick";
  const bool full = scale == "full";

  Baseline base;
  bool have_base = false;
  if (!baseline_path.empty()) {
    have_base = load_baseline(baseline_path, &base);
    check(have_base, "cannot read baseline file " + baseline_path);
    if (have_base && base.scale != scale) {
      std::printf(
          "run_all --check: baseline scale \"%s\" != run scale \"%s\", "
          "skipping drift diff\n",
          base.scale.c_str(), scale.c_str());
      have_base = false;
    }
  }

  for (const auto& r : runs) {
    check(r.exit_code == 0, r.name + " exited with " +
                                std::to_string(r.exit_code));
    check_wall_time(r, quick, full);
    if (have_base) check_drift(r, base);
  }
  if (check_failures == 0)
    std::printf("run_all --check: all gates green\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool do_check = false;
  std::string scale = "default";
  std::string bin_dir = dir_of(argv[0]);
  std::string out = "BENCH_decoder.json";
  std::string baseline_path;
  std::vector<std::string> only;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--check") {
      do_check = true;
    } else if (a == "--quick") {
      scale = "quick";
    } else if (a == "--full") {
      scale = "full";
    } else if (a == "--bin-dir" && i + 1 < argc) {
      bin_dir = argv[++i];
    } else if (a == "--out" && i + 1 < argc) {
      out = argv[++i];
    } else if (a == "--baseline" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (a == "--only" && i + 1 < argc) {
      std::string list = argv[++i];
      std::size_t pos = 0;
      while (pos <= list.size()) {
        const auto comma = list.find(',', pos);
        const auto end = comma == std::string::npos ? list.size() : comma;
        if (end > pos) only.push_back(list.substr(pos, end - pos));
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else if (a == "--wall-scale" && i + 1 < argc) {
      wall_scale = std::strtod(argv[++i], nullptr);
      if (!(wall_scale > 0.0)) {
        std::fprintf(stderr, "run_all: --wall-scale must be > 0\n");
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick|--full] [--check] "
                   "[--baseline <file>] [--bin-dir <dir>] [--out <file>] "
                   "[--only <name,...>] [--wall-scale <x>]\n",
                   argv[0]);
      return 2;
    }
  }

  // The benches read ZZ_QUICK / ZZ_FULL themselves (bench_util.h); the
  // driver just forwards the requested scale through the environment.
  if (scale == "quick") setenv("ZZ_QUICK", "1", 1);
  if (scale == "full") setenv("ZZ_FULL", "1", 1);

  std::vector<std::string> names(std::begin(kBaselineBenches),
                                 std::end(kBaselineBenches));
  if (!only.empty()) {
    // Subset runs keep baseline order and reject unknown names loudly — a
    // typo in a CI matrix leg must not silently run nothing.
    std::vector<std::string> subset;
    for (const auto& name : names)
      if (std::find(only.begin(), only.end(), name) != only.end())
        subset.push_back(name);
    if (subset.size() != only.size()) {
      for (const auto& o : only)
        if (std::find(names.begin(), names.end(), o) == names.end())
          std::fprintf(stderr, "run_all: --only names unknown bench '%s'\n",
                       o.c_str());
      return 2;
    }
    names = std::move(subset);
  }

  std::vector<BenchRun> runs;
  int failures = 0;
  for (const auto& name : names) {
    std::printf("run_all: %s ...\n", name.c_str());
    std::fflush(stdout);
    runs.push_back(run_bench(bin_dir, name));
    const auto& r = runs.back();
    std::printf("run_all: %s exit=%d wall=%.0f ms\n", name.c_str(), r.exit_code,
                r.wall_ms);
    if (r.exit_code != 0) {
      ++failures;
      // The bench's gate messages, or a crash or sanitizer report.
      for (const auto& l : r.stderr_lines)
        std::fprintf(stderr, "%s| %s\n", name.c_str(), l.c_str());
    }
  }

  write_json(out, scale, runs);
  std::printf("run_all: wrote %s (%zu benches, %d failed)\n", out.c_str(),
              runs.size(), failures);
  if (do_check) run_checks(runs, scale, baseline_path);
  return failures == 0 && check_failures == 0 ? 0 : 1;
}
