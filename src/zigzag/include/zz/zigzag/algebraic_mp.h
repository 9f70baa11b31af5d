// "Collision Helps"-style algebraic collision recovery (arXiv:1001.1948) on
// this repo's waveforms.
//
// The decoder treats each logged collision as a linear equation over the
// colliding packets' symbol chunks and solves the n-packet system by
// message passing (zz/zigzag/equation_system.h): degree-1 chunk equations
// are demodulated directly and back-substituted into every other equation;
// when peeling stalls, two equations whose unknown support is the same
// packet pair at the same relative offset are 2x2 Gaussian-eliminated over
// their complex channel coefficients — the step that solves the
// equal-offset patterns Assertion 4.5.1 declares zigzag-undecodable.
//
// It runs on ZigZagDecoder's engine (decoder.cpp): a peel is the engine's
// chunk decode, a substitution its render-and-subtract, and the set-up,
// header parse and CRC check are shared. Where the greedy route leans on
// stages the plan does not run, the plan route differs: it peels the
// preambles with pilots instead of subtracting them up front; it refits a
// link's gain at each substitution instead of §4.2.4(b,c)'s projection;
// its chunk images keep the pulse tail before their first symbol; a parsed
// header leaves its link estimates alone; and a header whose retry/HCS
// bits came from mixed sources is completed before it parses.
//
// Deliberately NOT here: the engine's §4.2.4/§4.3 stages — the presence
// ledger and its chunk scheduling, retro refinement of already-subtracted
// images, the backward pass, stall breaking and ghosting, the refinement
// passes and the MRC over soft banks. The algebraic model assumes the
// equation coefficients are known once estimated; each chunk is solved
// once and substituted. The gap between this receiver and the full ZigZag
// decoder on the same logs is therefore exactly the value of §4.2.4/§4.3 —
// the comparison bench/baseline_comparison measures and gates.
#pragma once

#include <cstddef>
#include <span>

#include "zz/phy/receiver.h"
#include "zz/zigzag/decoder.h"

namespace zz::zigzag {

/// Offline joint decoder with the ZigZagDecoder::decode contract: same
/// CollisionInput geometry, same DecodeResult. `packet_syms` pins the
/// believed length of every placed packet (the LoggedJoint engine knows it
/// from the frame layout); 0 infers an upper bound from buffer room exactly
/// like the zigzag decoder does. A packet placed in no collision comes back
/// with zero symbols decoded. DecodeResult::stall_breaks counts the symbols
/// an elimination left unsolved as ill-conditioned. decode() throws
/// std::invalid_argument on null samples, a placement out of range, or a
/// packet placed twice in one collision. Fixed settings: default tracking
/// gains and sinc width, plan guard 2 symbols, elimination floor 0.15.
class AlgebraicMpDecoder {
 public:
  explicit AlgebraicMpDecoder(phy::ReceiverConfig rxcfg = {});

  DecodeResult decode(std::span<const CollisionInput> collisions,
                      std::span<const phy::SenderProfile> profiles,
                      std::size_t num_packets,
                      std::size_t packet_syms = 0) const;

 private:
  phy::ReceiverConfig rxcfg_;
};

}  // namespace zz::zigzag
