// The greedy chunk-scheduling algorithm of §4.5, on abstract collision
// patterns.
//
//   Step 1: decode all overhanging interference-free chunks.
//   Step 2: subtract the known chunks wherever they appear in all collisions.
//   Step 3: decode the new chunks that became interference-free.
//   Repeat until all chunks of all packets are decoded.
//
// This module works on pure geometry (packet lengths + per-collision
// offsets), with no waveforms: it answers "is this set of collisions
// decodable, and in what order?" — the question behind Fig 4-7's failure
// probability curves and Assertion 4.5.1. The waveform decoder
// (zz::zigzag::ZigZagDecoder) applies the same greedy rule to real samples.
//
// Packet starts and ends bound the chunks (§4.3), so the planner keeps each
// packet's unknown symbols as a list of intervals. A chunk is decodable
// when it lies outside every unknown interval of the other packets in its
// collision, dilated by the guard; each step solves one maximal such run.
// The same planner, visiting equations best-conditioned-first and adding
// 2x2 eliminations, makes message_passing_plan (zz/zigzag/equation_system.h),
// which the same waveform engine runs as AlgebraicMpDecoder.
#pragma once

#include <cstddef>
#include <vector>

namespace zz::zigzag {

/// An abstract collision pattern: which packets appear in which collisions
/// at which symbol offsets.
struct Pattern {
  /// Length, in symbols, of each packet.
  std::vector<std::size_t> lengths;

  struct Placement {
    std::size_t packet = 0;      ///< index into `lengths`
    std::ptrdiff_t offset = 0;   ///< symbol offset within the collision
  };
  /// collisions[c] lists the packets present in collision c.
  std::vector<std::vector<Placement>> collisions;
};

/// One decode action: symbols [k0, k1) of `packet` from `collision`.
struct ScheduleStep {
  std::size_t collision = 0;
  std::size_t packet = 0;
  std::size_t k0 = 0;
  std::size_t k1 = 0;
};

struct ScheduleResult {
  bool complete = false;              ///< every symbol of every packet decoded
  std::vector<ScheduleStep> steps;    ///< greedy decode order
  std::vector<std::size_t> undecoded_packets;  ///< ids with missing symbols
  std::size_t rounds = 0;             ///< greedy iterations used
};

/// Run the §4.5 greedy algorithm. `guard` is the number of symbols of
/// separation a decodable symbol needs from any *unknown* symbol of another
/// packet (0 reproduces the paper's idealized chunk model; the waveform
/// engine uses a small guard for pulse tails). Throws std::invalid_argument
/// if a placement names a missing packet or a collision places the same
/// packet twice.
ScheduleResult greedy_schedule(const Pattern& pattern, std::size_t guard = 0);

/// The feasibility condition of §4.5 / Assertion 4.5.1: for every pair of
/// packets that ever collide together, there exist two collisions in which
/// the pair combined at different relative offsets (or some collision where
/// one of them appears without the other, which breaks the tie trivially).
bool pairwise_condition_holds(const Pattern& pattern);

/// Conditioning of one equation (collision) for the greedy schedule: the
/// minimum pairwise offset separation, in symbols, between any two packets
/// present in it. Larger is better — a collision whose packets are well
/// separated yields long interference-free head/tail chunks, so the n-way
/// zigzag bootstraps from it with the least error propagation. A collision
/// holding fewer than two packets is trivially clean (max conditioning).
std::size_t equation_conditioning(const Pattern& pattern, std::size_t collision);

/// Equation-selection order for joint decoding: the collision indices of
/// `pattern` sorted by decreasing conditioning (ties keep arrival order).
/// The n-sender scenario engine feeds collisions to the waveform decoder in
/// this order; the decoder's ChunkOrder::BestFirst then refines the same
/// idea per chunk.
std::vector<std::size_t> order_equations(const Pattern& pattern);

}  // namespace zz::zigzag
