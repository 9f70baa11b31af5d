// zzperf: the repository benchmark.
//
//   zzperf --workload stream_pair|joint_nway|farm_cells --seed N
//          --seconds S --trace 0|1 [--trace-out FILE]
//
// --trace 0 runs the named workload untraced and reports its end-to-end
// metrics. --trace 1 runs the traced layer replays of all three workloads
// at reduced scale, reports every per-layer metric, and writes the spans to
// --trace-out. The last line of stdout is the JSON result; the exit code is
// nonzero when a correctness check failed.
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: zzperf --workload stream_pair|joint_nway|farm_cells "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perf::Args a;
  std::string trace_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stoi(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--trace-out") trace_out = v;
    else return usage();
  }
  if (argc % 2 == 0 || a.seconds < 1 ||
      (a.workload != "stream_pair" && a.workload != "joint_nway" &&
       a.workload != "farm_cells"))
    return usage();

  perf::Report rep;
  perf::Tally t;
  try {
    if (!a.trace) {
      if (a.workload == "stream_pair") perf::stream_pair(a, rep, t);
      if (a.workload == "joint_nway") perf::joint_nway(a, rep, t);
      if (a.workload == "farm_cells") perf::farm_cells(a, rep, t);
    } else {
      perf::Tracer tr(true);
      perf::stream_pair_layers(a, rep, tr, t, a.workload == "stream_pair");
      perf::joint_nway_layers(a, rep, tr, t, a.workload == "joint_nway");
      perf::farm_cells_layers(a, rep, tr, t, a.workload == "farm_cells");
      if (!trace_out.empty()) tr.write(trace_out);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "zzperf: %s\n", e.what());
    return 1;
  }
  return rep.finish(t.attempted, t.failed);
}
