// The ZigZag collision decoder — §4.2.3, §4.2.4 and §4.3 end to end.
//
// Given a set of receptions that contain (re)transmissions of the same
// packets at different offsets, the decoder:
//   1. bootstraps per-(packet, collision) channel estimates from the
//      preamble correlation peaks (§4.2.4a),
//   2. repeatedly finds a stretch of symbols whose residual interference is
//      low enough to decode (interference-free chunks, or capture when one
//      sender is much stronger — Fig 4-1 d/e),
//   3. decodes the stretch with the black-box ChunkDecoder,
//   4. re-encodes it through the estimated channel — ISI filter, sinc
//      interpolation at the sampling offset, gain and frequency-offset
//      rotation (§4.2.3b, §4.2.4d) — and subtracts the image from every
//      collision it appears in,
//   5. refines ĥ, δf̂ and μ̂ by projecting the image against the residual
//      (the chunk-1′ / chunk-1″ comparison of §4.2.4b,c), and
//   6. repeats until both packets are out; a backward pass and optional
//      refinement passes give each symbol two independent estimates that
//      are MRC-combined (§4.3b).
// The same engine also runs the "Collision Helps" message-passing plan
// (AlgebraicMpDecoder, zz/zigzag/algebraic_mp.h): the plan's peels and 2x2
// eliminations replace step 2, and a per-link gain refit replaces 5 and 6.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "zz/common/types.h"
#include "zz/phy/frame.h"
#include "zz/phy/receiver.h"
#include "zz/zigzag/detector.h"

namespace zz::sig {
class ScratchArena;
}

namespace zz::zigzag {

/// Memo of black-box chunk-decode results keyed by a bit-level fingerprint
/// of the exact decode inputs (view samples, window-relative origin, symbol
/// range, direction, symbol specs, link state, decoder configuration).
/// Callers that joint-decode several times over a growing equation set —
/// run_logged_joint's §4.5 extra-equation top-ups, the live receiver's
/// widening search — hand the same cache to every ZigZagDecoder::decode
/// call: chunks whose schedule did not change replay their inputs
/// bit-identically and skip the ChunkDecoder, so only chunks the new
/// equation actually perturbs are re-decoded. A hit requires the full
/// 128-bit fingerprint to match, so the decode output is bit-identical to
/// the from-scratch route by construction (test-enforced).
class DecodeCache {
 public:
  DecodeCache();
  ~DecodeCache();
  // Neither movable nor copyable: every accessor (and the decoder itself)
  // dereferences the pimpl unconditionally, so a moved-from cache would be
  // a null-deref landmine. Callers share caches by pointer.
  DecodeCache(DecodeCache&&) = delete;
  DecodeCache& operator=(DecodeCache&&) = delete;

  void clear();
  std::size_t size() const;    ///< stored chunk decodes
  std::size_t hits() const;    ///< lookups served from the cache
  std::size_t misses() const;  ///< lookups that ran the ChunkDecoder

 private:
  friend struct DecodeCacheAccess;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// How a decode pass orders the interference-free chunks it finds.
enum class ChunkOrder {
  /// Walk the collisions in input order and decode every available run as
  /// it is encountered — the historical behavior, kept as the default so
  /// existing two-way pipelines reproduce bit-identical results.
  Input,
  /// Priority-driven: at each step decode the cleanest available chunk
  /// (lowest residual interference relative to own power) across all
  /// collisions. With 3+ overlapped packets this decodes high-SINR
  /// territory first, so subtraction errors propagate into fewer
  /// not-yet-decoded symbols — measurably fewer n-way decode failures.
  BestFirst,
};

/// Knobs for the decoder; the defaults reproduce the full ZigZag receiver.
/// The ablation flags correspond to the rows of Table 5.1.
struct DecodeOptions {
  phy::TrackingGains decoder_gains{};   ///< black-box decoder's own loops
  bool reconstruction_tracking = true;  ///< §4.2.4(b,c) image refinement
  bool isi_reconstruction = true;       ///< §4.2.4(d) inverse-ISI in images
  bool backward_pass = true;            ///< §4.3(b) backward decoding
  int refinement_passes = 1;            ///< post-pass clean re-decodes
  double capture_sinr_db = 10.0;        ///< SINR for capture decode (BPSK)
  std::size_t interp_half_width = 8;    ///< §4.2.3(b) sinc window, symbols
  int max_stall_breaks = 64;            ///< forced short chunks on stalls
  ChunkOrder chunk_order = ChunkOrder::Input;
};

/// One reception handed to the decoder, with the identified packet starts.
struct CollisionInput {
  const CVec* samples = nullptr;
  struct Placement {
    std::size_t packet = 0;  ///< global packet index for this decode call
    Detection detection;     ///< where it starts and with what channel
  };
  std::vector<Placement> placements;
  /// True if this reception is a retransmission of the matched packets —
  /// the 802.11 retry flag in re-encoded header images is set accordingly.
  bool is_retransmission = false;
};

/// Per-packet outcome.
struct PacketResult {
  bool header_ok = false;
  bool crc_ok = false;
  phy::FrameHeader header;
  Bits air_bits;   ///< decoded header ‖ body bits (for BER scoring)
  Bytes payload;   ///< descrambled payload (valid when crc_ok)
  CVec soft;       ///< MRC-combined symbol estimates (header ‖ body)
  std::size_t symbols_decoded = 0;
};

struct DecodeResult {
  std::vector<PacketResult> packets;
  std::size_t chunks = 0;        ///< chunk decodes performed
  std::size_t stall_breaks = 0;  ///< forced decodes past the guard
  bool all_crc_ok() const;
};

class ZigZagDecoder {
 public:
  explicit ZigZagDecoder(DecodeOptions opt = {},
                         phy::ReceiverConfig rxcfg = {});

  const DecodeOptions& options() const { return opt_; }

  /// Decode `num_packets` packets from the given collisions. Placements
  /// reference packets by index < num_packets; a packet may appear in any
  /// subset of the collisions (Fig 4-1 covers the shapes this handles).
  /// `cache`, when given, memoizes chunk decodes across calls (see
  /// DecodeCache) — results are bit-identical with or without it.
  /// `arena`, when given, supplies the engine's scratch buffers so their
  /// capacity survives across decode calls (the AP-farm hands each worker
  /// one arena reused for every episode, so warm decodes stop allocating
  /// workspace). The arena is thread-confined and the engine uses
  /// fixed slot numbers, so one arena must never be inside two concurrent
  /// decode calls; sequential reuse — including across decoder instances —
  /// is the intended pattern. Results are bit-identical with or without it.
  DecodeResult decode(std::span<const CollisionInput> collisions,
                      std::span<const phy::SenderProfile> profiles,
                      std::size_t num_packets, DecodeCache* cache = nullptr,
                      sig::ScratchArena* arena = nullptr) const;

 private:
  DecodeOptions opt_;
  phy::ReceiverConfig rxcfg_;
};

}  // namespace zz::zigzag
