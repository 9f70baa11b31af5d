// One Live/Streaming scenario as a resumable stream of contention rounds.
//
// run_scenario's Live and Streaming modes are a loop: while any sender is
// backlogged, play one contention round (clean slot, separated backoffs or
// a collision) through the AP. EpisodeStream is that loop exposed one
// round at a time, so a caller can interleave many independent episodes —
// the AP-farm (src/farm) runs one EpisodeStream per (cell, episode) and
// multiplexes thousands of them over a worker pool. run_scenario itself is
// a thin wrapper (construct, step to completion, finish), so the stream
// consumes the scenario RNG draw-for-draw like the historical loop and
// every committed baseline is reproduced bit for bit.
#pragma once

#include <memory>

#include "zz/common/rng.h"
#include "zz/testbed/scenario.h"

namespace zz::testbed {

/// Borrowed decode resources threaded into the episode's AP (ZigZag
/// receiver kinds only; ignored by the others). `cache` becomes the
/// receiver's chunk-decode memo for the whole episode — persistent across
/// receptions, so a chunk the AP decodes twice hits the second time; the
/// farm gives every episode a fresh one. `arena` supplies the decoder's
/// scratch buffers, reused across episodes so their capacity plateaus.
/// Both are thread-confined by their own contracts: one resource set must
/// never be inside two concurrently-stepped episodes (the farm keys an
/// arena by the pool's stable worker id). Results are bit-identical with
/// or without them.
struct EpisodeResources {
  zigzag::DecodeCache* cache = nullptr;
  sig::ScratchArena* arena = nullptr;
};

class EpisodeStream {
 public:
  /// Builds the senders and the AP, consuming the scenario's opening RNG
  /// draws (sender channels and profiles). Valid for CollectMode::Live and
  /// CollectMode::Streaming under the same receiver-kind rules as
  /// run_scenario; throws std::invalid_argument otherwise.
  EpisodeStream(const Scenario& scenario, Rng& rng,
                const EpisodeResources& res = {});
  ~EpisodeStream();
  EpisodeStream(const EpisodeStream&) = delete;
  EpisodeStream& operator=(const EpisodeStream&) = delete;

  /// True once every sender's backlog is drained; step() is then a no-op.
  bool done() const;

  /// Play one contention round: pick the transmitting sender(s), run the
  /// waveforms through the AP, and account deliveries/retries — exactly
  /// one iteration of the historical run_scenario loop, consuming the
  /// identical RNG draws.
  void step(Rng& rng);

  /// Airtime rounds elapsed so far (collision rounds that separated into
  /// k clean transmissions count k, as in ScenarioStats).
  std::size_t rounds() const;

  /// Flush the streaming tail and compute the final ScenarioStats. Call
  /// once, after done(); further step()/finish() calls are invalid.
  ScenarioStats finish();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace zz::testbed
