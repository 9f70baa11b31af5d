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
// Deliberately NOT here: the §4.2.4 reconstruction-tracking machinery
// (image projection refinement, retro refinement, MRC over passes, the
// backward pass). The algebraic model assumes the equation coefficients
// are known once estimated; each chunk is demodulated once through the
// standard black-box decoder and substituted. The gap between this
// receiver and the full ZigZag decoder on the same logs is therefore
// exactly the value of §4.2.4/§4.3 — the comparison
// bench/baseline_comparison measures and gates.
#pragma once

#include <cstddef>
#include <span>

#include "zz/phy/receiver.h"
#include "zz/zigzag/decoder.h"

namespace zz::zigzag {

struct AlgebraicMpOptions {
  phy::TrackingGains decoder_gains{};  ///< black-box chunk decoder loops
  std::size_t interp_half_width = 8;
  /// Symbols of separation a peelable symbol needs from unknown symbols of
  /// other packets (pulse tails; forwarded to message_passing_plan).
  std::size_t guard = 2;
  /// Conditioning floor for a 2x2 elimination: |det| of the coefficient
  /// matrix relative to the magnitude of its cross products. Below it the
  /// per-symbol solve would amplify noise unboundedly and the symbol is
  /// skipped instead.
  double min_det_ratio = 0.15;
};

/// Offline joint decoder with the ZigZagDecoder::decode contract: same
/// CollisionInput geometry, same DecodeResult. `packet_syms` pins the
/// believed per-packet symbol count (the LoggedJoint engine knows it from
/// the frame layout); 0 infers an upper bound from buffer room exactly like
/// the zigzag decoder does. decode() throws std::invalid_argument on null
/// samples, a placement out of range, or a packet placed twice in one
/// collision.
class AlgebraicMpDecoder {
 public:
  explicit AlgebraicMpDecoder(AlgebraicMpOptions opt = {},
                              phy::ReceiverConfig rxcfg = {});

  const AlgebraicMpOptions& options() const { return opt_; }

  DecodeResult decode(std::span<const CollisionInput> collisions,
                      std::span<const phy::SenderProfile> profiles,
                      std::size_t num_packets,
                      std::size_t packet_syms = 0) const;

 private:
  AlgebraicMpOptions opt_;
  phy::ReceiverConfig rxcfg_;
};

}  // namespace zz::zigzag
