// The three workloads. Each has an untraced end-to-end run (the numbers the
// benchmark is judged on) and a traced layer replay (the per-layer numbers).
#pragma once

#include <cstddef>
#include <vector>

#include "harness.h"

namespace perf {

/// Offered packets and failed operations of a run, for the result line.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
};


void stream_pair(const Args& a, Report& rep, Tally& t);
void joint_nway(const Args& a, Report& rep, Tally& t);
void farm_cells(const Args& a, Report& rep, Tally& t);

/// Traced replays. Every traced run executes all three at reduced scale so
/// it prints every per-layer metric; `overhead` asks the named workload to
/// also time its loop untraced and report traced ÷ untraced.
void stream_pair_layers(const Args& a, Report& rep, Tracer& tr, Tally& t,
                        bool overhead);
void joint_nway_layers(const Args& a, Report& rep, Tracer& tr, Tally& t,
                       bool overhead);
void farm_cells_layers(const Args& a, Report& rep, Tracer& tr, Tally& t,
                       bool overhead);

}  // namespace perf
