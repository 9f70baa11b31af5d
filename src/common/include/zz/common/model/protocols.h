// The repo's four lock-free protocols (pool deque + ticket, DecodeCache
// publish, alloc-hook peak gauge, reentry/confinement guards) expressed
// as model-check explorations (one or more per protocol, pinning its
// contract), shared between the gtest suites (tests/model/) and the CLI
// runner (tools/model/model_check_runner.cpp) so CI logs the
// interleaving counts the acceptance gate requires. Compiled only under
// ZZ_MODEL_CHECK — the explorations drive the exact production kernels
// (zz/common/steal_range.h, atomic.h guards, farm/alloc_hook shapes)
// through the instrumented façade.
//
// `expect_failure` entries are intentionally-broken variants (relaxed
// confinement counter): the explorer CATCHING them is the regression test
// that the memory model has teeth.
#pragma once

#include <vector>

#include "zz/common/model/explorer.h"

namespace zz::model {

struct ProtocolRun {
  const char* name;      ///< stable id, e.g. "deque-steal"
  const char* contract;  ///< one-line statement of the pinned invariant
  bool expect_failure;   ///< true for intentionally-broken variants
  Result result;
};

// The protocol explorations (all must pass: result.failed == false).
Result run_deque_steal();         ///< pool deque: pop/steal claim-once
Result run_ticket_generation();   ///< pool ticket: per-gen claim-once
Result run_cache_publish();       ///< DecodeCache first-writer-wins (Mutex)
Result run_peak_gauge();          ///< alloc_hook live/peak fetch_max
Result run_reentry_flag();        ///< AtomicFlagGuard mutual exclusion
Result run_confinement_handoff(); ///< EntryCounter serial hand-off (acq_rel)

// Broken variant the explorer must catch (result.failed == true).
Result run_confinement_broken_relaxed();

/// Every exploration above, in a stable order, for the runner and the
/// suites' count gates.
std::vector<ProtocolRun> run_protocol_suite();

}  // namespace zz::model
