// The ZigZag access point receiver — the full pipeline of §5.1(d).
//
//   "First, the packet is detected ... Second, we try to decode the packet
//    using the standard approach. If standard decoding fails, we use the
//    algorithm in §4.2.1 to detect whether the packet has experienced a
//    collision, and where exactly the colliding packet starts. If a
//    collision is detected, the receiver matches the packet against any
//    recent reception (§4.2.2). If no match is found, the packet is stored
//    in case it helps decoding a future collision. If a match is found, the
//    receiver performs chunk-by-chunk decoding on the two collisions
//    (§4.2.3). Note that even when the standard decoding succeeds we still
//    check whether we can decode a second packet with lower power (i.e., a
//    capture scenario)."
#pragma once

#include <cstdint>
#include <deque>
#include <set>
#include <span>
#include <vector>

#include "zz/common/types.h"
#include "zz/phy/receiver.h"
#include "zz/zigzag/decoder.h"
#include "zz/zigzag/detector.h"
#include "zz/zigzag/matcher.h"

namespace zz::zigzag {

struct ReceiverOptions {
  /// The detector itself reports every credible start (its default cap is
  /// sized for measurement); the live pipeline bounds the decoder's
  /// phantom-triage work with a tighter cap per reception.
  ReceiverOptions() { detector.max_detections = 6; }

  /// Options tuned for an AP serving `n` associated clients. Reduces to
  /// the stock defaults at n ≤ 2 (the pinned pair configuration), so the
  /// historical two-sender pipelines are reproduced exactly. For n > 2 it
  /// widens the knobs the n-way live path needs: best-first chunk order,
  /// an n-aware §4.2.2 match threshold (the same-packet correlation of one
  /// client among n equal-power overlaps normalizes to ≈ 1/n, so the pair
  /// threshold rejects true matches), and the detector's measurement-sized
  /// cap (n-way overlaps throw many data excursions over β; evicting a
  /// faded true start is unrecoverable, while surplus phantoms are triaged
  /// downstream by the alias collapse and provenance gates).
  static ReceiverOptions for_clients(std::size_t n);

  DecodeOptions decode{};
  DetectorConfig detector{};
  MatchConfig match{};
  phy::ReceiverConfig rx{};
  std::size_t max_pending = 4;        ///< stored unmatched collisions
  int single_shot_stall_breaks = 2;   ///< fail fast on lone collisions
  /// Most receptions one joint decode may combine (matched stored
  /// collisions plus the new one). Two receptions resolve a sender pair;
  /// n resolve n senders (§4.5). The default keeps the historical
  /// pair-then-triple behavior; n-sender scenarios raise it to n.
  std::size_t max_joint_receptions = 3;
  /// n-way joint triage (§4.5). When set, the receiver (a) collapses
  /// constant-offset phantom aliases before counting unknowns (a data
  /// excursion tracks its host packet at one fixed Δ in every reception —
  /// Assertion 4.5.1's degenerate pattern), and (b) refuses to accept a
  /// joint decode whose cross-reception unknown count exceeds its equation
  /// count, storing the reception and widening instead. Off by default:
  /// the historical pair pipelines greedily accept any matched joint
  /// output and their baselines pin that exact decision sequence.
  /// for_clients(n > 2) turns it on — an n-way collision decoded at pair
  /// width is partial junk whose acceptance destroys the very equations
  /// the widening step needs.
  bool strict_joint = false;
  /// Farm hooks (src/farm). When set, `shared_cache` replaces the
  /// receiver's internal per-reception chunk-decode memo: every decode —
  /// single, capture and joint — goes through it, and it is NOT cleared
  /// between receptions, so chunks repeated across receive() calls hit
  /// (cache use is bit-identical by the DecodeCache contract, so outputs
  /// do not change). The farm hands each episode its own cache and drops
  /// it with the episode; no production code shares one between threads.
  /// `arena`, when set, supplies the decoder's scratch buffers; it is
  /// thread-confined, so it must never be inside two concurrent receive()
  /// calls. Both are borrowed, never owned.
  DecodeCache* shared_cache = nullptr;
  sig::ScratchArena* arena = nullptr;
};

/// One packet handed up the stack.
///
/// Packets with `crc_ok` carry verified payloads. Packets without it are
/// best-effort decodes (header valid, some body bits possibly wrong) —
/// emitted because the paper's delivery criterion (§5.1f) is BER < 1e-3
/// with channel coding assumed on top; evaluation harnesses score these
/// against ground truth exactly as the paper's offline analysis did.
struct Delivered {
  phy::FrameHeader header;
  Bytes payload;   ///< valid when crc_ok
  Bits air_bits;   ///< decoded header ‖ body bits, for offline scoring
  bool crc_ok = false;
  bool via_pair = false;  ///< needed a matched collision pair (ZigZag proper)
  bool via_sic = false;   ///< decoded out of a single collision (capture)
};

class ZigZagReceiver {
 public:
  explicit ZigZagReceiver(ReceiverOptions opt = {});

  /// Register a client learned at association time.
  void add_client(const phy::SenderProfile& profile);
  /// Register n clients uniformly — the n-sender scenario entry point.
  void add_clients(std::span<const phy::SenderProfile> profiles);
  const std::vector<phy::SenderProfile>& clients() const { return clients_; }

  /// Feed one logged reception. Returns every packet decodable *now* —
  /// possibly including packets from a previously stored collision that
  /// this reception just unlocked.
  std::vector<Delivered> receive(const CVec& rx);

  std::size_t pending_collisions() const { return pending_.size(); }
  void clear_pending() { pending_.clear(); }

 private:
  struct PendingCollision {
    CVec samples;
    std::vector<Detection> detections;
  };

  std::vector<Delivered> try_single(const CVec& rx,
                                    const std::vector<Detection>& dets);
  /// §5.1(d): "even when the standard decoding succeeds we still check
  /// whether we can decode a second packet with lower power". Subtract the
  /// packets already delivered from this reception and hunt for weaker
  /// arrivals buried underneath.
  std::vector<Delivered> try_capture_second(const CVec& rx,
                                            const std::vector<Delivered>& got);
  /// Jointly decode `olds` (stored receptions, oldest first) plus the new
  /// reception. Packets are unified across receptions by data correlation
  /// (§4.2.2). Two receptions resolve a pair of senders; three resolve a
  /// triple (§4.5). `*unknowns` reports how many distinct packets the
  /// unification registered — when it exceeds the reception count the
  /// system is underdetermined (§4.5) and the caller should widen rather
  /// than accept the partial output.
  std::vector<Delivered> try_joint(
      const std::vector<const PendingCollision*>& olds, const CVec& rx,
      const std::vector<Detection>& dets, bool* matched,
      std::size_t* unknowns);
  void remember(const CVec& rx, std::vector<Detection> dets);
  bool fresh(const phy::FrameHeader& h);

  ReceiverOptions opt_;
  PacketMatcher matcher_;  ///< §4.2.2 matcher, reused across receptions
  /// Chunk-decode memo for one reception's widening search (§4.5): as the
  /// joint decode retries with more stored receptions, chunks the extra
  /// equation does not perturb replay from the memo. Cleared per receive()
  /// — unless opt_.shared_cache overrides it with a longer-lived memo.
  DecodeCache joint_cache_;
  std::vector<phy::SenderProfile> clients_;
  std::deque<PendingCollision> pending_;
  std::set<std::pair<std::uint8_t, std::uint16_t>> delivered_keys_;
};

}  // namespace zz::zigzag
