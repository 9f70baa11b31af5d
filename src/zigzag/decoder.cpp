#include "zz/zigzag/decoder.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <unordered_map>

#include "zz/chan/channel.h"
#include "zz/common/check.h"
#include "zz/common/mathutil.h"
#include "zz/common/mutex.h"
#include "zz/common/thread_annotations.h"
#include "zz/phy/preamble.h"
#include "zz/phy/scrambler.h"
#include "zz/phy/tracker.h"
#include "zz/phy/transmitter.h"
#include "zz/signal/scratch.h"
#include "zz/zigzag/grid_climb.h"

namespace zz::zigzag {

// ------------------------------------------------------------- DecodeCache

struct DecodeCache::Impl {
  struct Entry {
    std::uint64_t check = 0;  ///< second, independent fingerprint
    phy::ChunkDecoder::Result res;
    chan::ChannelParams params_out;
    double noise_var_out = 0.0;
    bool noise_seeded_out = false;
  };
  // Concurrency contract (docs/ANALYSIS.md §3, pinned by
  // DecodeCacheStress.*): the cache is internally synchronized so decoder
  // engines on different threads can share one instance (production never
  // does: a farm episode owns its cache). mu guards the map and
  // the counters; entries are immutable once published (first writer wins
  // on a double miss), so a reference handed out under the lock stays
  // valid and race-free afterwards — std::unordered_map never moves
  // elements on insert/rehash, and nothing erases entries while decoders
  // run (clear() requires external quiescence).
  mutable Mutex mu;
  std::unordered_map<std::uint64_t, Entry> map ZZ_GUARDED_BY(mu);
  std::size_t hits ZZ_GUARDED_BY(mu) = 0;
  std::size_t misses ZZ_GUARDED_BY(mu) = 0;
};

DecodeCache::DecodeCache() : impl_(std::make_unique<Impl>()) {}
DecodeCache::~DecodeCache() = default;

void DecodeCache::clear() {
  MutexLock lock(impl_->mu);
  impl_->map.clear();
  impl_->hits = 0;
  impl_->misses = 0;
}
std::size_t DecodeCache::size() const {
  MutexLock lock(impl_->mu);
  return impl_->map.size();
}
std::size_t DecodeCache::hits() const {
  MutexLock lock(impl_->mu);
  return impl_->hits;
}
std::size_t DecodeCache::misses() const {
  MutexLock lock(impl_->mu);
  return impl_->misses;
}

/// Engine-side access to the cache internals (the engine lives in an
/// anonymous namespace below and cannot be befriended directly).
struct DecodeCacheAccess {
  static DecodeCache::Impl& impl(DecodeCache& c) { return *c.impl_; }
};

namespace {

/// Dual 64-bit FNV-1a over 64-bit words: a 128-bit bit-level fingerprint of
/// a chunk decode's inputs. Two decodes with equal fingerprints have equal
/// inputs for all practical purposes (collision odds ~2^-128 per pair), so
/// replaying a cached result preserves bit-identity. Word-wise mixing keeps
/// the sample-buffer hashing far cheaper than the decode it guards.
struct Fingerprint {
  std::uint64_t a = 14695981039346656037ull;
  std::uint64_t b = 14695981039346656037ull ^ 0x9e3779b97f4a7c15ull;

  void u64(std::uint64_t v) {
    a = (a ^ v) * 1099511628211ull;
    b = (b ^ (v + 0x9e3779b97f4a7c15ull)) * 0x100000001b3ull ^ (b >> 29);
  }
  void f64(double v) {
    std::uint64_t w;
    std::memcpy(&w, &v, sizeof w);
    u64(w);
  }
  void cv(const CVec& v) {
    // cplx is two doubles; hash the raw 64-bit lanes.
    const auto* p = reinterpret_cast<const unsigned char*>(v.data());
    for (std::size_t i = 0; i < v.size() * 2; ++i) {
      std::uint64_t w;
      std::memcpy(&w, p + i * sizeof(std::uint64_t), sizeof w);
      u64(w);
    }
  }
};

// Size pins for every struct cached_decode() fingerprints field-by-field.
// Adding a member to one of these without feeding it into the fingerprint
// makes two inequivalent decodes collide and replay each other's results —
// a silent wrong-answer bug (this is also what the zz-decodecache-
// fingerprint-complete tidy check enforces structurally). A new member
// changes sizeof on this pinned ABI and fails the build here, forcing the
// author to visit the fingerprint feed; update BOTH the hash and the pin.
#if defined(__x86_64__) && defined(__linux__)
static_assert(sizeof(sig::Fir) == 32,
              "Fir changed: update cached_decode's fingerprint and this pin");
static_assert(sizeof(chan::ChannelParams) == 72,
              "ChannelParams changed: update cached_decode's fingerprint "
              "and this pin");
static_assert(sizeof(phy::LinkEstimate) == 120,
              "LinkEstimate changed: update cached_decode's fingerprint "
              "and this pin");
static_assert(sizeof(phy::SymbolSpec) == 32,
              "SymbolSpec changed: update cached_decode's fingerprint "
              "and this pin");
static_assert(sizeof(phy::TrackingGains) == 48,
              "TrackingGains changed: update cached_decode's fingerprint "
              "and this pin");
#endif

using phy::Modulation;

// Pulse-energy weights used in the interference presence profile: a symbol
// deposits most of its power within ±2 samples of its centre, and windowed
// sinc tails out to the interpolation half-width. Normalized so that a
// fully-present packet contributes ≈ its per-sample power (symbols arrive
// every kSps samples, so each sample sees ~sum(w)/kSps of overlapping
// weight).
constexpr std::ptrdiff_t kMainSpan = 2;
constexpr std::ptrdiff_t kNearSpan = 6;
constexpr std::ptrdiff_t kFarSpan = 16;
constexpr double kWeightNorm =
    1.0 / ((5.0 * 1.0 + 8.0 * 0.05 + 20.0 * 0.012) / chan::kSps);
constexpr double kMainW = 1.0 * kWeightNorm;
constexpr double kNearW = 0.05 * kWeightNorm;
constexpr double kFarW = 0.012 * kWeightNorm;

// Required SINR (linear) for decoding a symbol on top of residual
// interference — the capture-effect criterion of Fig 4-1(d,e) — indexed by
// Modulation, for a BPSK threshold of `base_db`. The scheduler probes it
// per symbol, so each engine computes the table once.
std::array<double, 4> sinr_required(double base_db) {
  // Extra SINR each constellation needs over BPSK, in Modulation order.
  constexpr double kExtraDb[4] = {0.0, 3.0, 10.0, 16.0};
  std::array<double, 4> out{};
  for (std::size_t m = 0; m < out.size(); ++m)
    out[m] = db_to_lin(base_db + kExtraDb[m]);
  return out;
}

struct Link {
  bool present = false;
  std::ptrdiff_t origin = 0;
  phy::LinkEstimate est;      ///< evolving (tracking on)
  phy::LinkEstimate initial;  ///< detection-time (tracking-off ablation)
  double last_track_pos = 0.0;
  /// Fixed reference power for presence bookkeeping: additions and removals
  /// must use the same value or phantom interference accumulates as the
  /// gain estimate evolves between them.
  double pres_power = 0.0;
};

struct PacketCtx {
  std::size_t len = 0;  ///< believed symbol count (capped until header known)
  bool length_known = false;
  std::optional<phy::FrameHeader> header;
  phy::FrameLayout layout{};
  Modulation body_mod = Modulation::BPSK;
  int profile_index = -1;
  CVec decided;
  std::vector<std::uint8_t> known;
  /// Header symbols re-encoded for each retry-flag variant (§4.2.2), built
  /// when the header parses; collisions carrying the other variant render
  /// through these instead of the decided symbols.
  CVec hdr_variant[2];
  double metric = 0.0;  ///< strongest detection metric (phantom triage)
  /// A detection that never produced a parseable header and stalled the
  /// schedule — most likely a correlation false positive (§5.3a notes these
  /// are harmless). Ghosts stop scheduling and stop counting as
  /// interference.
  bool ghost = false;
};

class Engine {
 public:
  Engine(std::span<const CollisionInput> collisions,
         std::span<const phy::SenderProfile> profiles, std::size_t num_packets,
         const DecodeOptions& opt, const phy::ReceiverConfig& rxcfg,
         DecodeCache* cache, sig::ScratchArena* ext_arena)
      : opt_(opt),
        rxcfg_(rxcfg),
        profiles_(profiles),
        inputs_(collisions),
        C_(collisions.size()),
        P_(num_packets),
        dec_(opt.decoder_gains, opt.interp_half_width),
        sinr_required_(sinr_required(opt.capture_sinr_db)),
        cache_(cache),
        arena_(ext_arena ? *ext_arena : own_arena_) {
    init();
  }

  DecodeResult run() {
    pass(/*backward=*/false);
    if (opt_.backward_pass && !all_known()) {
      // Bootstrap from the packet tails (§4.3b) to finish whatever the
      // forward direction could not reach — e.g. when the offsets are so
      // close that the forward zigzag stalls mid-packet.
      harmonize_frequencies();
      pass(/*backward=*/true);
    }
    if (opt_.refinement_passes > 0) harmonize_frequencies();
    for (int r = 0; r < opt_.refinement_passes; ++r) refinement_pass();
    return finalize();
  }

  // A sender's oscillator offset is one number, but each (packet,
  // collision) link tracks it independently and the less-exercised links
  // drift. Before re-decoding from the packet tails (where extrapolation
  // distances are largest), copy the best-tracked link's frequency to its
  // siblings, rotating each ĥ to keep the phase continuous at that link's
  // last validated position.
  void harmonize_frequencies() {
    if (!opt_.reconstruction_tracking) return;
    for (std::size_t p = 0; p < P_; ++p) {
      int best = -1;
      for (std::size_t c = 0; c < C_; ++c) {
        if (!links_[p][c].present) continue;
        if (best < 0 ||
            links_[p][c].est.noise_var <
                links_[p][static_cast<std::size_t>(best)].est.noise_var)
          best = static_cast<int>(c);
      }
      if (best < 0) continue;
      const double f = links_[p][static_cast<std::size_t>(best)].est.params.freq_offset;
      for (std::size_t c = 0; c < C_; ++c) {
        Link& l = links_[p][c];
        if (!l.present || c == static_cast<std::size_t>(best)) continue;
        const double df = f - l.est.params.freq_offset;
        l.est.params.freq_offset = f;
        const double comp = -kTwoPi * df * l.last_track_pos;
        l.est.params.h *= cplx{std::cos(comp), std::sin(comp)};
      }
    }
  }

 private:
  // ---------------------------------------------------------------- setup
  void init() {
    // decode() screens empty inputs; an engine constructed around zero
    // collisions or packets is a caller bug, not a degenerate decode.
    ZZ_CHECK_GT(C_, 0u);
    ZZ_CHECK_GT(P_, 0u);
    residual_.resize(C_);
    imgs_.assign(P_, std::vector<CVec>(C_));
    pres_.assign(C_, std::vector<std::vector<double>>(P_));
    links_.assign(P_, std::vector<Link>(C_));
    pkts_.resize(P_);
    noise_.resize(C_);
    for (int bank = 0; bank < 2; ++bank) {
      soft_[bank].assign(P_, std::vector<CVec>(C_));
      soft_ok_[bank].assign(P_, std::vector<std::vector<std::uint8_t>>(C_));
      bank_nv_[bank].assign(P_, std::vector<double>(C_, 0.0));
    }

    for (std::size_t c = 0; c < C_; ++c) {
      residual_[c] = *inputs_[c].samples;
      noise_[c] = phy::estimate_noise_floor(residual_[c]);
    }

    // Per-(packet, collision) links and packet contexts.
    for (std::size_t c = 0; c < C_; ++c) {
      for (const auto& pl : inputs_[c].placements) {
        if (pl.packet >= P_)
          throw std::invalid_argument("ZigZagDecoder: placement out of range");
        Link& l = links_[pl.packet][c];
        l.present = true;
        l.origin = pl.detection.origin;
        l.est.params.h = pl.detection.h;
        l.est.params.freq_offset = pl.detection.freq_offset;
        l.est.params.mu = pl.detection.mu;
        PacketCtx& pk = pkts_[pl.packet];
        if (pl.detection.profile_index >= 0)
          pk.profile_index = pl.detection.profile_index;
        if (pk.profile_index >= 0 &&
            static_cast<std::size_t>(pk.profile_index) < profiles_.size()) {
          const auto& prof = profiles_[static_cast<std::size_t>(pk.profile_index)];
          l.est.params.freq_offset = prof.freq_offset;
          if (opt_.isi_reconstruction && !prof.isi.is_identity()) {
            l.est.params.isi = prof.isi;
            l.est.equalizer = prof.equalizer;
          }
          pk.body_mod = prof.mod;
        }
        l.est.noise_var = noise_[c];
        l.initial = l.est;
        l.pres_power = std::norm(l.est.params.h);
        pk.metric = std::max(pk.metric, pl.detection.metric);
      }
    }

    // Believed packet lengths: until the header is decoded, assume the
    // packet may extend to the end of the shortest buffer it appears in.
    for (std::size_t p = 0; p < P_; ++p) {
      std::size_t cap = 1u << 20;
      for (std::size_t c = 0; c < C_; ++c) {
        if (!links_[p][c].present) continue;
        const auto room = static_cast<std::ptrdiff_t>(residual_[c].size()) -
                          links_[p][c].origin - 40;
        cap = std::min(cap, static_cast<std::size_t>(
                                std::max<std::ptrdiff_t>(room, 0) /
                                static_cast<std::ptrdiff_t>(chan::kSps)));
      }
      PacketCtx& pk = pkts_[p];
      pk.len = cap;
      pk.decided.assign(pk.len, cplx{0.0, 0.0});
      pk.known.assign(pk.len, 0);
      for (int bank = 0; bank < 2; ++bank)
        for (std::size_t c = 0; c < C_; ++c) {
          soft_[bank][p][c].assign(pk.len, cplx{});
          soft_ok_[bank][p][c].assign(pk.len, 0);
        }
      // Preamble symbols are known a priori.
      const CVec& pre = phy::preamble(rxcfg_.preamble_len);
      for (std::size_t k = 0; k < pre.size() && k < pk.len; ++k) {
        pk.decided[k] = pre[k];
        pk.known[k] = 1;
      }
    }

    rebuild_presence();
    // Subtract the a-priori-known preambles everywhere (the detector already
    // estimated each copy's channel from them).
    for (std::size_t p = 0; p < P_; ++p)
      subtract_everywhere(p, 0, std::min<std::size_t>(rxcfg_.preamble_len,
                                                      pkts_[p].len));
  }

  // Presence of every not-yet-subtracted symbol; callers subtract ranges as
  // images are cancelled out of the residual.
  void rebuild_presence() {
    for (std::size_t c = 0; c < C_; ++c)
      for (std::size_t p = 0; p < P_; ++p) {
        pres_[c][p].assign(residual_[c].size(), 0.0);
        if (!links_[p][c].present) continue;
        const double power = links_[p][c].pres_power;
        for (std::size_t k = 0; k < pkts_[p].len; ++k)
          add_presence(c, p, k, power, +1.0);
      }
  }

  double sym_pos(std::size_t p, std::size_t c, double k) const {
    const Link& l = links_[p][c];
    return static_cast<double>(l.origin) +
           chan::kSps * k * (1.0 + l.est.params.drift) + l.est.params.mu;
  }

  // Presence bookkeeping must use a FIXED geometry. A symbol's presence is
  // added at init and removed when the symbol is subtracted — often many
  // chunks later, after the timing tracker has moved μ̂. Positioning both
  // operations with the evolving estimate leaves phantom interference
  // wherever the rounding flips between them, which stalls the schedule and
  // gets real packets ghosted as false positives (the Fig 5-3 high-SNR
  // anomaly). Detection-time geometry is used for every presence query.
  double pres_pos(std::size_t p, std::size_t c, double k) const {
    const Link& l = links_[p][c];
    return static_cast<double>(l.origin) +
           chan::kSps * k * (1.0 + l.initial.params.drift) +
           l.initial.params.mu;
  }

  void add_presence(std::size_t c, std::size_t p, std::size_t k, double power,
                    double sign) {
    const auto pos = static_cast<std::ptrdiff_t>(std::lround(pres_pos(p, c, static_cast<double>(k))));
    auto& v = pres_[c][p];
    const auto n = static_cast<std::ptrdiff_t>(v.size());
    for (std::ptrdiff_t d = -kFarSpan; d <= kFarSpan; ++d) {
      const std::ptrdiff_t i = pos + d;
      if (i < 0 || i >= n) continue;
      const std::ptrdiff_t a = d < 0 ? -d : d;
      const double w = a <= kMainSpan ? kMainW : (a <= kNearSpan ? kNearW : kFarW);
      v[static_cast<std::size_t>(i)] += sign * power * w;
    }
  }

  // ------------------------------------------------------------ scheduling
  double interference_at(std::size_t p, std::size_t c, std::size_t k) const {
    const auto pos = static_cast<std::ptrdiff_t>(std::lround(pres_pos(p, c, static_cast<double>(k))));
    if (pos < 0 || pos >= static_cast<std::ptrdiff_t>(residual_[c].size()))
      return 1e30;
    double acc = 0.0;
    for (std::size_t q = 0; q < P_; ++q) {
      if (q == p) continue;
      acc += pres_[c][q][static_cast<std::size_t>(pos)];
    }
    return acc;
  }

  Modulation mod_at(std::size_t p, std::size_t k) const {
    const std::size_t body = rxcfg_.preamble_len + phy::kHeaderBits;
    return k < body ? Modulation::BPSK : pkts_[p].body_mod;
  }

  bool decodable(std::size_t p, std::size_t c, std::size_t k) const {
    const Link& l = links_[p][c];
    const double own = std::norm(l.est.params.h);
    const double theta =
        std::max(2.0 * noise_[c],
                 own / sinr_required_[static_cast<std::size_t>(mod_at(p, k))]);
    return interference_at(p, c, k) <= theta;
  }

  // Maximal decodable run of unknown symbols, anchored at the packet edges:
  // the forward pass only grows the contiguous prefix and the backward pass
  // only the suffix. This is how the paper's chunks propagate (each chunk
  // borders already-decoded territory), and it is what keeps the
  // decision-directed trackers honest — decoding a stretch far from any
  // validated region would let the phase re-lock on the wrong BPSK
  // half-plane, poisoning every subtraction that uses those bits.
  std::pair<std::size_t, std::size_t> find_run(std::size_t p, std::size_t c,
                                               bool backward) const {
    const PacketCtx& pk = pkts_[p];
    if (pk.ghost) return {0, 0};
    if (!backward) {
      std::size_t k = 0;
      while (k < pk.len && pk.known[k]) ++k;
      if (k == pk.len || !decodable(p, c, k)) return {0, 0};
      std::size_t k1 = k;
      while (k1 < pk.len && !pk.known[k1] && decodable(p, c, k1)) ++k1;
      return {k, k1};
    }
    if (!pk.header) return {0, 0};  // tail position unknown
    std::size_t r = pk.len;
    while (r > 0 && pk.known[r - 1]) --r;
    if (r == 0 || !decodable(p, c, r - 1)) return {0, 0};
    std::size_t k0 = r - 1;
    while (k0 > 0 && !pk.known[k0 - 1] && decodable(p, c, k0 - 1)) --k0;
    return {k0, r};
  }

  // Until the header has been parsed, the packet's believed length is an
  // overestimate; decoding past the header would run the tracker into
  // phantom symbols beyond the true packet end and corrupt the estimate.
  // Stop at the header boundary — the parse then pins the real length.
  std::size_t clamp_to_header(std::size_t p, std::size_t k0,
                              std::size_t k1) const {
    if (pkts_[p].header) return k1;
    const std::size_t hdr_end = rxcfg_.preamble_len + phy::kHeaderBits;
    if (k0 < hdr_end) return std::min(k1, hdr_end);
    return std::min(k1, k0 + 16);  // header parse failed: creep cautiously
  }

  bool all_known() const {
    for (std::size_t p = 0; p < P_; ++p) {
      if (pkts_[p].ghost) continue;
      for (std::size_t k = 0; k < pkts_[p].len; ++k)
        if (!pkts_[p].known[k]) return false;
    }
    return true;
  }

  // On a stall, suspect the weakest never-validated detection of being a
  // correlation false positive: stop scheduling it and release the phantom
  // interference it contributes, unblocking the real packets.
  bool ghost_weakest_unvalidated() {
    int victim = -1;
    for (std::size_t p = 0; p < P_; ++p) {
      const PacketCtx& pk = pkts_[p];
      if (pk.ghost || pk.header) continue;
      if (victim < 0 || pk.metric < pkts_[static_cast<std::size_t>(victim)].metric)
        victim = static_cast<int>(p);
    }
    if (victim < 0) return false;
    const auto v = static_cast<std::size_t>(victim);
    pkts_[v].ghost = true;
    for (std::size_t c = 0; c < C_; ++c) {
      if (!links_[v][c].present) continue;
      for (std::size_t k = 0; k < pkts_[v].len; ++k)
        if (!pkts_[v].known[k])
          add_presence(c, v, k, links_[v][c].pres_power, -1.0);
      // Undo anything already subtracted for the ghost (its "preamble"
      // image was cancelled at init) — a false positive has no signal to
      // cancel, so the subtraction itself was the corruption.
      auto& acct = imgs_[v][c];
      for (std::size_t n = 0; n < acct.size(); ++n) {
        residual_[c][n] += acct[n];
        acct[n] = cplx{0.0, 0.0};
      }
    }
    return true;
  }

  // -------------------------------------------------------------- decoding
  /// Sample range [s0, s1) of collision c that the image of p's symbols
  /// [k0, k1) can touch (pulse tails plus slack).
  struct Window {
    std::ptrdiff_t s0 = 0, s1 = 0;
    std::size_t size() const { return static_cast<std::size_t>(s1 - s0); }
  };

  Window image_window(std::size_t p, std::size_t c, std::size_t k0,
                      std::size_t k1) const {
    const auto pad = static_cast<double>(opt_.interp_half_width) * chan::kSps + 8.0;
    const auto n = static_cast<std::ptrdiff_t>(residual_[c].size());
    Window w;
    w.s0 = std::clamp<std::ptrdiff_t>(
        static_cast<std::ptrdiff_t>(std::floor(sym_pos(p, c, static_cast<double>(k0)) - pad)),
        0, n);
    w.s1 = std::clamp<std::ptrdiff_t>(
        static_cast<std::ptrdiff_t>(std::ceil(sym_pos(p, c, static_cast<double>(k1)) + pad)),
        w.s0, n);
    return w;
  }

  // The symbol packet p would transmit at index k, as carried by collision
  // c: decided value for known symbols (zero otherwise), with the
  // retry-flag header variant of this collision re-encoded (§4.2.2).
  cplx decided_at(std::size_t p, std::size_t c, std::ptrdiff_t k) const {
    const PacketCtx& pk = pkts_[p];
    if (k < 0 || k >= static_cast<std::ptrdiff_t>(pk.len)) return cplx{0.0, 0.0};
    const auto ku = static_cast<std::size_t>(k);
    if (pk.header && pk.header->retry != inputs_[c].is_retransmission) {
      const std::size_t base = rxcfg_.preamble_len;
      if (ku >= base && ku < base + phy::kHeaderBits && pk.known[ku])
        return pk.hdr_variant[inputs_[c].is_retransmission ? 1 : 0][ku - base];
    }
    return pk.decided[ku];  // zero until decoded
  }

  // Render the ISI-filtered symbol stream of packet p restricted to symbol
  // range [k0, k1) into `u` (u[j] = symbol k0+j). ISI pulls in decided
  // neighbours just outside the range, exactly like filtering the whole
  // packet and masking would — without touching the other `len` symbols.
  void render_u(std::size_t p, std::size_t c, std::size_t k0, std::size_t k1,
                CVec& u) const {
    const Link& l = links_[p][c];
    const auto& isi = tracked(l).params.isi;
    u.resize(k1 - k0);
    if (isi.is_identity()) {
      for (std::size_t k = k0; k < k1; ++k) u[k - k0] = decided_at(p, c, static_cast<std::ptrdiff_t>(k));
      return;
    }
    const auto& taps = isi.taps();
    const auto pre = static_cast<std::ptrdiff_t>(isi.pre());
    for (std::size_t k = k0; k < k1; ++k) {
      cplx acc{0.0, 0.0};
      for (std::size_t t = 0; t < taps.size(); ++t)
        acc += taps[t] *
               decided_at(p, c, static_cast<std::ptrdiff_t>(k) + pre -
                                    static_cast<std::ptrdiff_t>(t));
      u[k - k0] = acc;
    }
  }

  const phy::LinkEstimate& tracked(const Link& l) const {
    return opt_.reconstruction_tracking ? l.est : l.initial;
  }

  // Render the image of p's symbols [k0,k1) as received in collision c (or,
  // with `derivative`, its derivative with respect to μ) into the window
  // buffer `img` (img[i] = sample w.s0 + i), from their ISI-filtered symbol
  // stream `u` (see render_u): one stream serves every render of the same
  // range, whatever μ̂ and ĥ. The symbol range is re-based so the synthesis
  // cost scales with the chunk, not the packet: an integer sample shift of
  // kSps·k0 folds into the buffer offset, its drift contribution into μ and
  // its carrier rotation into ĥ.
  Window render_image(std::size_t p, std::size_t c, std::size_t k0,
                      std::size_t k1, const CVec& u, CVec& img,
                      bool derivative = false) const {
    const Link& l = links_[p][c];
    const Window w = image_window(p, c, k0, k1);
    img.resize(w.size());
    if (w.s1 <= w.s0) return w;

    chan::ChannelParams params = tracked(l).params;
    params.isi = sig::Fir();  // ISI already applied in render_u
    const auto shift = static_cast<std::ptrdiff_t>(
        std::llround(chan::kSps * static_cast<double>(k0)));
    params.mu += static_cast<double>(shift) * params.drift;
    const double phi = kTwoPi * params.freq_offset * static_cast<double>(shift);
    params.h *= cplx{std::cos(phi), std::sin(phi)};
    // The store renders overwrite the whole window, as adding into zeros would.
    if (derivative)
      chan::store_signal_derivative(img, l.origin + shift - w.s0, u, params,
                                    opt_.interp_half_width);
    else
      chan::store_signal(img, l.origin + shift - w.s0, u, params, 1.0,
                         opt_.interp_half_width);
    return w;
  }

  // Project the current residual onto the image to refine ĥ, δf̂, μ̂ of the
  // (p, c) link — the chunk-1′/chunk-1″ comparison of §4.2.4(b,c). `img`
  // is the window-relative image covering samples [w.s0, w.s1). Returns
  // true when the link estimate was actually updated — callers re-render
  // the image only then (a bailed-out projection leaves the estimate, and
  // therefore the image, untouched).
  bool project_refine(std::size_t p, std::size_t c, const CVec& u,
                      const CVec& img, const Window& w, std::size_t k0,
                      std::size_t k1) {
    if (!opt_.reconstruction_tracking) return false;
    Link& l = links_[p][c];
    // Only trust the projection when the region is mostly this packet.
    double foreign = 0.0;
    std::size_t count = 0;
    for (std::size_t k = k0; k < k1; ++k) {
      foreign += interference_at(p, c, k);
      ++count;
    }
    if (count < 16) return false;
    const double own = std::norm(l.est.params.h);
    if (foreign / static_cast<double>(count) > 0.25 * own) return false;

    cplx num{0.0, 0.0};
    double den = 0.0;
    for (std::size_t i = 0; i < img.size(); ++i) {
      if (std::norm(img[i]) < 1e-12) continue;
      num += std::conj(img[i]) * residual_[c][static_cast<std::size_t>(w.s0) + i];
      den += std::norm(img[i]);
    }
    if (den < 1e-9) return false;
    cplx eps = num / den - cplx{1.0, 0.0};
    if (std::abs(eps) > 0.5) eps *= 0.5 / std::abs(eps);

    const cplx corr = cplx{1.0, 0.0} + 0.5 * eps;
    l.est.params.h *= corr;

    // Residual frequency: phase error accrued since the last update here.
    const double center = sym_pos(p, c, 0.5 * static_cast<double>(k0 + k1)) -
                          static_cast<double>(l.origin);
    const double dt = center - l.last_track_pos;
    if (dt > 32.0) {
      const double df = 0.15 * std::arg(corr) / (kTwoPi * dt);
      l.est.params.freq_offset += df;
      const double comp = -kTwoPi * df * center;
      l.est.params.h *= cplx{std::cos(comp), std::sin(comp)};
    }
    l.last_track_pos = center;

    // Sampling offset: project onto the timing derivative of the image.
    CVec& dimg = arena_.cvec(kSlotDImg, 0);
    const Window dw = render_image(p, c, k0, k1, u, dimg, /*derivative=*/true);
    double tn = 0.0, td = 0.0;
    for (std::size_t i = 0; i < dimg.size(); ++i) {
      if (std::norm(dimg[i]) < 1e-12) continue;
      const std::ptrdiff_t n = dw.s0 + static_cast<std::ptrdiff_t>(i);
      if (n < w.s0 || n >= w.s1) continue;
      tn += std::real(std::conj(dimg[i]) *
                      (residual_[c][static_cast<std::size_t>(n)] -
                       img[static_cast<std::size_t>(n - w.s0)]));
      td += std::norm(dimg[i]);
    }
    if (td > 1e-9) l.est.params.mu += std::clamp(0.3 * tn / td, -0.05, 0.05);
    return true;
  }

  // Subtract p's symbols [k0,k1) from collision c (rendering through the
  // link estimate), updating the packet's image account and the presence
  // profile. Optionally refine the estimate from the projection first.
  void subtract_range(std::size_t p, std::size_t c, std::size_t k0,
                      std::size_t k1) {
    Link& l = links_[p][c];
    if (!l.present) return;
    // The symbol stream does not depend on the estimate project_refine
    // updates, so one stream serves both renders and the derivative.
    render_u(p, c, k0, k1, u_scratch_);
    CVec& img = arena_.cvec(kSlotImg, 0);
    Window w = render_image(p, c, k0, k1, u_scratch_, img);
    if (project_refine(p, c, u_scratch_, img, w, k0, k1))
      w = render_image(p, c, k0, k1, u_scratch_, img);  // refined estimate
    auto& acct = imgs_[p][c];
    if (acct.empty()) acct.assign(residual_[c].size(), cplx{0.0, 0.0});
    // image_window clamps to the buffer; the subtraction below relies on it.
    ZZ_DCHECK_LE(static_cast<std::size_t>(w.s0) + img.size(),
                 residual_[c].size());
    for (std::size_t i = 0; i < img.size(); ++i) {
      const auto n = static_cast<std::size_t>(w.s0) + i;
      residual_[c][n] -= img[i];
      acct[n] += img[i];
    }
    for (std::size_t k = k0; k < k1; ++k)
      add_presence(c, p, k, l.pres_power, -1.0);
  }

  void subtract_everywhere(std::size_t p, std::size_t k0, std::size_t k1) {
    if (k1 <= k0) return;
    for (std::size_t c = 0; c < C_; ++c)
      if (links_[p][c].present) subtract_range(p, c, k0, k1);
  }

  // Run the black-box decoder through the optional chunk-decode memo: on a
  // full-fingerprint match the stored result and post-decode link state are
  // replayed instead of re-decoding (bit-identical by construction). The
  // returned reference stays valid until the next cached_decode call
  // (uncached path) or cache mutation (node-based map, stable nodes).
  const phy::ChunkDecoder::Result& cached_decode(
      const CVec& view, std::ptrdiff_t origin, std::size_t k0, std::size_t k1,
      std::span<const phy::SymbolSpec> specs, phy::LinkEstimate& est,
      bool backward) {
    ZZ_DCHECK_LE(k0, k1);
    ZZ_DCHECK_EQ(specs.size(), k1 - k0);
    if (!cache_) {
      last_res_ = dec_.decode(view, origin, k0, k1, specs, est, backward);
      return last_res_;
    }

    Fingerprint fp;
    fp.cv(view);
    fp.u64(static_cast<std::uint64_t>(origin));
    fp.u64(k0);
    fp.u64(k1);
    fp.u64(backward ? 1 : 0);
    for (const auto& s : specs) {
      fp.u64(static_cast<std::uint64_t>(s.mod) |
             (s.pilot ? 0x100u : 0x0u));
      if (s.pilot) {
        fp.f64(s.pilot->real());
        fp.f64(s.pilot->imag());
      }
    }
    const auto& p = est.params;
    fp.f64(p.h.real());
    fp.f64(p.h.imag());
    fp.f64(p.freq_offset);
    fp.f64(p.mu);
    fp.f64(p.drift);
    fp.f64(est.noise_var);
    fp.u64(est.noise_seeded ? 1 : 0);
    fp.u64(p.isi.pre());
    for (const cplx& t : p.isi.taps()) {
      fp.f64(t.real());
      fp.f64(t.imag());
    }
    fp.u64(est.equalizer.pre());
    for (const cplx& t : est.equalizer.taps()) {
      fp.f64(t.real());
      fp.f64(t.imag());
    }
    const auto& g = dec_.gains();
    fp.u64(g.block);
    fp.f64(g.phase);
    fp.f64(g.freq);
    fp.f64(g.amplitude);
    fp.f64(g.timing);
    fp.u64(g.enabled ? 1 : 0);
    fp.u64(dec_.interp_half_width());

    auto& impl = DecodeCacheAccess::impl(*cache_);
    {
      MutexLock lock(impl.mu);
      const auto it = impl.map.find(fp.a);
      if (it != impl.map.end() && it->second.check == fp.b) {
        // Replay integrity: a full-fingerprint match must carry a result of
        // the requested shape — anything else means the fingerprint missed
        // an input (the failure mode the size pins above guard against).
        ZZ_DCHECK_EQ(it->second.res.decided.size(), k1 - k0);
        ++impl.hits;
        est.params = it->second.params_out;
        est.noise_var = it->second.noise_var_out;
        est.noise_seeded = it->second.noise_seeded_out;
        return it->second.res;
      }
      ++impl.misses;
    }
    // Decode OUTSIDE the lock — concurrent engines sharing a cache must
    // not serialize on each other's chunk decodes — and BEFORE touching
    // the map: populating the entry first would leave a poisoned
    // (empty-result) entry behind if the decode threw, and a later
    // identical lookup would silently replay it.
    auto res = dec_.decode(view, origin, k0, k1, specs, est, backward);
    MutexLock lock(impl.mu);
    const auto [it, inserted] = impl.map.try_emplace(fp.a);
    auto& entry = it->second;
    if (!inserted && entry.check == fp.b) {
      // Another engine raced us to the same fingerprint. Identical inputs
      // give identical outputs, so adopt the published entry (references
      // to it may already be live — entries are immutable once visible)
      // and drop our copy.
      est.params = entry.params_out;
      est.noise_var = entry.noise_var_out;
      est.noise_seeded = entry.noise_seeded_out;
      return entry.res;
    }
    entry.check = fp.b;
    entry.res = std::move(res);
    entry.params_out = est.params;
    entry.noise_var_out = est.noise_var;
    entry.noise_seeded_out = est.noise_seeded;
    return entry.res;
  }

  void decode_chunk(std::size_t p, std::size_t c, std::size_t k0,
                    std::size_t k1, bool backward, int bank) {
    PacketCtx& pk = pkts_[p];
    Link& l = links_[p][c];
    // find_run / clamp_to_header / force_frontier_chunk all bound their
    // ranges by the believed length; a chunk past it would index the
    // decided/known/soft arrays out of range.
    ZZ_DCHECK_LE(k1, pk.len);

    // Window of interest plus margins for the equalizer and pulse tails.
    const auto w0 = std::max<std::ptrdiff_t>(
        0, static_cast<std::ptrdiff_t>(std::floor(sym_pos(p, c, static_cast<double>(k0)))) - 48);
    const auto w1 = std::min<std::ptrdiff_t>(
        static_cast<std::ptrdiff_t>(residual_[c].size()),
        static_cast<std::ptrdiff_t>(std::ceil(sym_pos(p, c, static_cast<double>(k1)))) + 48);
    if (w1 <= w0) return;

    // Reconstruct this packet's own signal view: residual plus everything of
    // p we previously subtracted from this collision (exact add-back).
    CVec& view = arena_.cvec(kSlotView, static_cast<std::size_t>(w1 - w0));
    const auto& acct = imgs_[p][c];
    for (std::ptrdiff_t n = w0; n < w1; ++n) {
      const auto i = static_cast<std::size_t>(n);
      view[static_cast<std::size_t>(n - w0)] =
          residual_[c][i] + (acct.empty() ? cplx{0.0, 0.0} : acct[i]);
    }

    std::vector<phy::SymbolSpec> specs(k1 - k0);
    const CVec& pre = phy::preamble(rxcfg_.preamble_len);
    for (std::size_t k = k0; k < k1; ++k) {
      specs[k - k0].mod = mod_at(p, k);
      if (k < pre.size()) specs[k - k0].pilot = pre[k];
    }

    const auto& res =
        cached_decode(view, l.origin - w0, k0, k1, specs, l.est, backward);
    ZZ_DCHECK_EQ(res.decided.size(), k1 - k0);
    ++chunks_;

    for (std::size_t k = k0; k < k1; ++k) {
      pk.decided[k] = res.decided[k - k0];
      pk.known[k] = 1;
      soft_[bank][p][c][k] = res.soft[k - k0];
      soft_ok_[bank][p][c][k] = 1;
    }
    note_quality(bank, p, c, res.noise_var, k1 - k0);

    maybe_parse_header(p);
    subtract_everywhere(p, k0, k1);

    // §4.2.4(b,c): with this chunk now subtracted from collision c, the
    // residual in its window is (other packets' actual − image) + noise —
    // the paper's chunk-1″. Compare every other packet's image against it
    // to correct that link's gain, frequency and sampling estimates, and
    // repair the residual in place.
    if (opt_.reconstruction_tracking)
      for (std::size_t q = 0; q < P_; ++q)
        if (q != p && links_[q][c].present)
          retro_refine(q, c, static_cast<std::size_t>(w0),
                       static_cast<std::size_t>(w1));
  }

  // Measure the reconstruction error of packet q's already-subtracted image
  // within window [w0, w1) of collision c, update the (q, c) link, and
  // repair the residual. The window must be clean of *unsubtracted* signals
  // for the projection to be unbiased.
  void retro_refine(std::size_t q, std::size_t c, std::size_t w0,
                    std::size_t w1) {
    ZZ_DCHECK_LE(w0, w1);
    const auto& acct = imgs_[q][c];
    if (acct.empty()) return;
    Link& l = links_[q][c];
    const double own = std::norm(l.est.params.h);

    // Projection statistics over the image support, weighted by image
    // energy; unsubtracted foreign signal biases the estimate, so measure
    // it the same way and bail out when it dominates.
    cplx num{0.0, 0.0};
    double den = 0.0;
    double center_acc = 0.0;
    double foreign_acc = 0.0;
    for (std::size_t n = w0; n < w1 && n < acct.size(); ++n) {
      const double e = std::norm(acct[n]);
      if (e < 1e-12) continue;
      num += std::conj(acct[n]) * residual_[c][n];
      den += e;
      center_acc += e * static_cast<double>(n);
      double others = 0.0;
      for (std::size_t r = 0; r < P_; ++r) others += pres_[c][r][n];
      foreign_acc += e * others;
    }
    if (den < 32.0 * own) return;  // too little image energy to trust
    if (foreign_acc / den > 0.3 * own) return;
    cplx eps = num / den;
    if (std::abs(eps) > 0.5) eps *= 0.5 / std::abs(eps);

    const cplx corr = cplx{1.0, 0.0} + 0.7 * eps;
    l.est.params.h *= corr;

    const double center =
        center_acc / den - static_cast<double>(l.origin);
    const double dt = center - l.last_track_pos;
    // Frequency updates need a long lever arm: with a short dt the phase
    // noise of the projection turns into a frequency random walk.
    if (std::abs(dt) > 192.0) {
      const double df = 0.15 * std::arg(corr) / (kTwoPi * dt);
      l.est.params.freq_offset += df;
      const double comp = -kTwoPi * df * center;
      l.est.params.h *= cplx{std::cos(comp), std::sin(comp)};
    }
    l.last_track_pos = center;

    // Repair the residual: the subtracted image was low by a factor (1+ε).
    for (std::size_t n = w0; n < w1 && n < acct.size(); ++n) {
      const cplx delta = 0.7 * eps * acct[n];
      residual_[c][n] -= delta;
      imgs_[q][c][n] += delta;
    }

    // Timing (§4.2.4c applied to reconstructed images): a link whose chunks
    // always subtract into occupied territory never reaches project_refine,
    // so a sampling-offset error from its interference-corrupted preamble
    // fit would persist for the whole packet — the dominant cancellation
    // residue. Project the post-repair residual onto the timing derivative
    // of this packet's symbols inside the window and correct μ̂ (and the
    // residual, to first order) here.
    {
      const PacketCtx& pk = pkts_[q];
      const double denom = chan::kSps * (1.0 + l.est.params.drift);
      const auto pad = static_cast<double>(opt_.interp_half_width);
      const auto k0 = static_cast<std::size_t>(std::clamp(
          (static_cast<double>(w0) - static_cast<double>(l.origin) -
           l.est.params.mu) / denom - pad,
          0.0, static_cast<double>(pk.len)));
      const auto k1 = static_cast<std::size_t>(std::clamp(
          (static_cast<double>(w1) - static_cast<double>(l.origin) -
           l.est.params.mu) / denom + pad,
          static_cast<double>(k0), static_cast<double>(pk.len)));
      if (k1 > k0 + 16) {
        CVec& dimg = arena_.cvec(kSlotDImg, 0);
        render_u(q, c, k0, k1, u_scratch_);
        const Window dw =
            render_image(q, c, k0, k1, u_scratch_, dimg, /*derivative=*/true);
        double tn = 0.0, td = 0.0;
        for (std::size_t i = 0; i < dimg.size(); ++i) {
          if (std::norm(dimg[i]) < 1e-12) continue;
          const std::ptrdiff_t n = dw.s0 + static_cast<std::ptrdiff_t>(i);
          if (n < static_cast<std::ptrdiff_t>(w0) ||
              n >= static_cast<std::ptrdiff_t>(w1))
            continue;
          tn += std::real(std::conj(dimg[i]) *
                          residual_[c][static_cast<std::size_t>(n)]);
          td += std::norm(dimg[i]);
        }
        if (td > 1e-9) {
          const double dmu = std::clamp(0.3 * tn / td, -0.08, 0.08);
          l.est.params.mu += dmu;
          for (std::size_t i = 0; i < dimg.size(); ++i) {
            const std::ptrdiff_t n = dw.s0 + static_cast<std::ptrdiff_t>(i);
            if (n < static_cast<std::ptrdiff_t>(w0) ||
                n >= static_cast<std::ptrdiff_t>(w1))
              continue;
            const cplx delta = dmu * dimg[i];
            residual_[c][static_cast<std::size_t>(n)] -= delta;
            imgs_[q][c][static_cast<std::size_t>(n)] += delta;
          }
        }
      }
    }
  }

  // Track the slicer noise measured by the decodes that filled each soft
  // bank — the MRC weight of a copy reflects how clean that copy actually
  // was (residual interference included), not just the link gain.
  void note_quality(int bank, std::size_t p, std::size_t c, double nv,
                    std::size_t count) {
    ZZ_DCHECK_GT(count, 0u);  // a zero-symbol decode has no quality to note
    auto& cur = bank_nv_[bank][p][c];
    const double w = static_cast<double>(count);
    if (cur <= 0.0)
      cur = std::max(nv, 1e-6);
    else
      cur = (cur * 64.0 + std::max(nv, 1e-6) * w) / (64.0 + w);
  }

  void maybe_parse_header(std::size_t p) {
    PacketCtx& pk = pkts_[p];
    if (pk.header) return;
    const std::size_t h0 = rxcfg_.preamble_len;
    const std::size_t h1 = h0 + phy::kHeaderBits;
    if (pk.len < h1) return;
    for (std::size_t k = h0; k < h1; ++k)
      if (!pk.known[k]) return;

    const phy::Modulator bpsk(Modulation::BPSK);
    Bits bits;
    bits.reserve(phy::kHeaderBits);
    for (std::size_t k = h0; k < h1; ++k) bpsk.append_bits(pk.decided[k], bits);
    const auto header = phy::decode_header(bits);
    if (!header) return;

    pk.header = *header;
    pk.layout = phy::layout_for(*header);
    pk.body_mod = header->payload_mod;

    // Pre-encode both retry-flag header variants for image rendering.
    const phy::Modulator hdr_bpsk(Modulation::BPSK);
    for (int v = 0; v < 2; ++v) {
      phy::FrameHeader hv = *header;
      hv.retry = v != 0;
      pk.hdr_variant[v] = hdr_bpsk.modulate(phy::encode_header(hv));
    }

    // Re-map the profile if the header names a different client than the
    // detector guessed (the preamble itself is sender-agnostic, and two
    // clients' oscillator offsets can sit within the slope-measurement
    // noise). Snap grossly-off link parameters to the right profile,
    // keeping the phase continuous at each link's last validated position.
    for (std::size_t pi = 0; pi < profiles_.size(); ++pi)
      if (profiles_[pi].id == header->sender_id) {
        pk.profile_index = static_cast<int>(pi);
        break;
      }
    if (pk.profile_index >= 0 &&
        static_cast<std::size_t>(pk.profile_index) < profiles_.size()) {
      const auto& prof = profiles_[static_cast<std::size_t>(pk.profile_index)];
      for (std::size_t c = 0; c < C_; ++c) {
        Link& l = links_[p][c];
        if (!l.present) continue;
        if (std::abs(l.est.params.freq_offset - prof.freq_offset) > 8e-5) {
          const double df = prof.freq_offset - l.est.params.freq_offset;
          l.est.params.freq_offset = prof.freq_offset;
          const double comp = -kTwoPi * df * l.last_track_pos;
          l.est.params.h *= cplx{std::cos(comp), std::sin(comp)};
        }
        if (opt_.isi_reconstruction && !prof.isi.is_identity()) {
          l.est.params.isi = prof.isi;
          l.est.equalizer = prof.equalizer;
        }
      }
    }

    // Truncate the believed length: phantom tail symbols stop counting as
    // interference for everyone else.
    if (pk.layout.total_syms < pk.len) {
      for (std::size_t c = 0; c < C_; ++c) {
        if (!links_[p][c].present) continue;
        for (std::size_t k = pk.layout.total_syms; k < pk.len; ++k)
          add_presence(c, p, k, links_[p][c].pres_power, -1.0);
      }
      pk.len = pk.layout.total_syms;
      pk.decided.resize(pk.len);
      pk.known.resize(pk.len);
      for (int bank = 0; bank < 2; ++bank)
        for (std::size_t c = 0; c < C_; ++c) {
          soft_[bank][p][c].resize(pk.len);
          soft_ok_[bank][p][c].resize(pk.len);
        }
    }
    // A parsed header's layout always covers preamble + header symbols, so
    // the truncation above can never cut into already-decoded header state.
    ZZ_CHECK_LE(h1, pk.len) << " truncated layout cut into the header";
  }

  // Decode the single cleanest available chunk across all collisions: the
  // run whose residual interference is lowest relative to the link's own
  // power. Chunks are re-ranked after every decode because each subtraction
  // changes the interference landscape of everything else.
  bool decode_best_chunk(bool backward, int bank) {
    double best_score = 1e30;
    std::size_t bp = 0, bc = 0, bk0 = 0, bk1 = 0;
    bool found = false;
    for (std::size_t c = 0; c < C_; ++c) {
      for (const auto& pl : inputs_[c].placements) {
        auto [k0, k1] = find_run(pl.packet, c, backward);
        k1 = clamp_to_header(pl.packet, k0, k1);
        if (k1 <= k0) continue;
        const double own =
            std::max(std::norm(links_[pl.packet][c].est.params.h), 1e-12);
        double acc = 0.0;
        for (std::size_t k = k0; k < k1; ++k)
          acc += interference_at(pl.packet, c, k);
        const double score = acc / static_cast<double>(k1 - k0) / own;
        if (score < best_score) {
          best_score = score;
          bp = pl.packet;
          bc = c;
          bk0 = k0;
          bk1 = k1;
          found = true;
        }
      }
    }
    if (!found) return false;
    decode_chunk(bp, bc, bk0, bk1, backward, bank);
    return true;
  }

  // One full decode pass (forward or backward bootstrap).
  void pass(bool backward) {
    const int bank = backward ? 1 : 0;
    int stall_budget = opt_.max_stall_breaks;
    while (!all_known()) {
      bool progress = false;
      if (opt_.chunk_order == ChunkOrder::BestFirst) {
        progress = decode_best_chunk(backward, bank);
      } else {
        for (std::size_t c = 0; c < C_; ++c) {
          for (const auto& pl : inputs_[c].placements) {
            auto [k0, k1] = find_run(pl.packet, c, backward);
            k1 = clamp_to_header(pl.packet, k0, k1);
            if (k1 > k0) {
              decode_chunk(pl.packet, c, k0, k1, backward, bank);
              progress = true;
            }
          }
        }
      }
      if (progress) continue;

      // Stalled: first suspect a phantom detection (correlation false
      // positive) and ghost the weakest never-validated packet — with the
      // presence ledger pinned to detection-time geometry, a real packet no
      // longer stalls on its own phantom interference, so a stall with a
      // headerless packet present is overwhelmingly a phantom blocking the
      // schedule, and ghosting first keeps its garbage chunks from ever
      // being force-decoded into the residual. Then force a short chunk at
      // the least-interfered frontier — errors it causes decay
      // exponentially (§4.3a) and the refinement pass revisits it.
      if (ghost_weakest_unvalidated()) continue;
      if (stall_budget-- <= 0) break;
      if (!force_frontier_chunk(backward, bank)) break;
      ++stalls_;
    }
  }

  bool force_frontier_chunk(bool backward, int bank) {
    double best_i = 1e30;
    std::size_t bp = 0, bc = 0, bk = 0;
    bool found = false;
    for (std::size_t c = 0; c < C_; ++c) {
      for (const auto& pl : inputs_[c].placements) {
        const PacketCtx& pk = pkts_[pl.packet];
        // Frontier symbol: first (or last) unknown.
        if (!backward) {
          for (std::size_t k = 0; k < pk.len; ++k) {
            if (pk.known[k]) continue;
            const double i = interference_at(pl.packet, c, k);
            if (i < best_i) {
              best_i = i;
              bp = pl.packet;
              bc = c;
              bk = k;
              found = true;
            }
            break;
          }
        } else {
          for (std::size_t r = pk.len; r > 0; --r) {
            const std::size_t k = r - 1;
            if (pk.known[k]) continue;
            const double i = interference_at(pl.packet, c, k);
            if (i < best_i) {
              best_i = i;
              bp = pl.packet;
              bc = c;
              bk = k;
              found = true;
            }
            break;
          }
        }
      }
    }
    if (!found) return false;
    const PacketCtx& pk = pkts_[bp];
    std::size_t k0 = bk, k1 = bk;
    if (!backward) {
      while (k1 < pk.len && !pk.known[k1] && k1 - k0 < 12) ++k1;
      k1 = clamp_to_header(bp, k0, k1);
    } else {
      if (!pk.header) return false;  // tail position unknown
      k1 = bk + 1;
      while (k0 > 0 && !pk.known[k0 - 1] && k1 - k0 < 12) --k0;
    }
    if (k1 <= k0) return false;
    decode_chunk(bp, bc, k0, k1, backward, bank);
    return true;
  }

  // With everything decoded once, re-render every packet's image with the
  // final (best) link estimates — replacing chunk images that were
  // subtracted earlier with stale parameters — then re-decode every packet
  // from every collision it appears in against the cleaned residual. Each
  // symbol ends up with one soft estimate per collision, MRC-combined in
  // finalize(): this is where "every bit is received twice" pays out.
  // Data-aided re-estimation of one link: with the packet's symbols known,
  // the whole packet acts as a giant preamble. Search the sampling offset
  // over the grid μ₀ + 0.15·i, i = -3..3, project for the complex gain, and
  // fit the residual frequency from the phase slope across the packet —
  // processing gain makes these estimates far better than what a buried
  // 32-symbol preamble could give (§4.2.4 generalized to reconstructed
  // images). The matched-filter score has one peak over the grid, so a
  // hill-climb (zz/zigzag/grid_climb.h) finds the full scan's best index
  // with 3 to 5 full-packet renders instead of 7; a parabola through the
  // best point and its neighbours refines the step.
  void reestimate_link(std::size_t p, std::size_t c, const CVec& u_full) {
    Link& l = links_[p][c];
    if (!l.present || !opt_.reconstruction_tracking) return;
    const PacketCtx& pk = pkts_[p];
    ZZ_DCHECK_EQ(u_full.size(), pk.len);  // full-packet symbol stream

    const double mu0 = l.est.params.mu;
    const double step = 0.15;
    constexpr int kHalf = detail::kGridHalf;
    // The add-back view (residual plus this link's image account) spans
    // the union of the image windows over the grid: windows move
    // monotonically with μ, and every μ tried below lies inside the grid.
    l.est.params.mu = mu0 + step * -kHalf;
    const std::ptrdiff_t v0 = image_window(p, c, 0, pk.len).s0;
    l.est.params.mu = mu0 + step * kHalf;
    const std::ptrdiff_t v1 = image_window(p, c, 0, pk.len).s1;
    CVec& view = arena_.cvec(kSlotEstView, static_cast<std::size_t>(v1 - v0));
    {
      const auto& acct = imgs_[p][c];
      for (std::ptrdiff_t n = v0; n < v1; ++n) {
        const auto u = static_cast<std::size_t>(n);
        view[u - static_cast<std::size_t>(v0)] =
            acct.empty() ? residual_[c][u] : residual_[c][u] + acct[u];
      }
    }
    // The view from sample w.s0 on, for an image window w inside it.
    const auto view_from = [&](const Window& w) {
      ZZ_DCHECK(w.s0 >= v0 && w.s1 <= v1);
      return view.data() + (w.s0 - v0);
    };

    std::array<cplx, 2 * kHalf + 1> corr;
    CVec& img = arena_.cvec(kSlotEstImg, 0);
    const detail::GridClimb climb = detail::climb_grid([&](int i) {
      l.est.params.mu = mu0 + step * i;
      const cplx* vw = view_from(render_image(p, c, 0, pk.len, u_full, img));
      cplx num{0.0, 0.0};
      double den = 0.0;
      for (std::size_t j = 0; j < img.size(); ++j) {
        if (std::norm(img[j]) < 1e-12) continue;
        num += std::conj(img[j]) * vw[j];
        den += std::norm(img[j]);
      }
      corr[static_cast<std::size_t>(i + kHalf)] =
          den > 1e-9 ? num / den : cplx{1.0, 0.0};
      return den > 1e-9 ? std::abs(num) / std::sqrt(den) : 0.0;
    });
    double best_dmu = step * climb.best;
    const cplx best_corr =
        climb.found ? corr[static_cast<std::size_t>(climb.best + kHalf)]
                    : cplx{1.0, 0.0};
    // Parabolic touch-up between grid points.
    if (std::abs(climb.best) < kHalf) {
      const auto bi = static_cast<std::size_t>(climb.best + kHalf);
      const double ym = climb.scores[bi - 1], y0 = climb.scores[bi],
                   yp = climb.scores[bi + 1];
      const double d = ym - 2.0 * y0 + yp;
      if (std::abs(d) > 1e-12)
        best_dmu += step * std::clamp(0.5 * (ym - yp) / d, -0.5, 0.5);
    }
    l.est.params.mu = mu0 + best_dmu;
    if (std::abs(best_corr) > 0.25 && std::abs(best_corr) < 4.0)
      l.est.params.h *= best_corr;

    // Residual frequency from the phase slope between the packet halves.
    const Window w = render_image(p, c, 0, pk.len, u_full, img);
    const cplx* vw = view_from(w);
    cplx g[2] = {cplx{0.0, 0.0}, cplx{0.0, 0.0}};
    double t[2] = {0.0, 0.0}, e[2] = {0.0, 0.0};
    const double mid =
        static_cast<double>(l.origin) +
        chan::kSps * static_cast<double>(pk.len) / 2.0;
    for (std::size_t j = 0; j < img.size(); ++j) {
      if (std::norm(img[j]) < 1e-12) continue;
      const auto n = static_cast<std::size_t>(w.s0) + j;
      const int half = static_cast<double>(n) < mid ? 0 : 1;
      g[half] += std::conj(img[j]) * vw[j];
      t[half] += std::norm(img[j]) * static_cast<double>(n);
      e[half] += std::norm(img[j]);
    }
    if (e[0] > 1e-9 && e[1] > 1e-9) {
      const double dt = t[1] / e[1] - t[0] / e[0];
      if (dt > 64.0) {
        const double dphi = std::arg(g[1] * std::conj(g[0]));
        const double df = std::clamp(dphi / (kTwoPi * dt), -2e-4, 2e-4);
        l.est.params.freq_offset += df;
        const double center =
            0.5 * (t[0] / e[0] + t[1] / e[1]) - static_cast<double>(l.origin);
        const double comp = -kTwoPi * df * center;
        l.est.params.h *= cplx{std::cos(comp), std::sin(comp)};
      }
    }
  }

  void refinement_pass() {
    for (std::size_t p = 0; p < P_; ++p) {
      PacketCtx& pk = pkts_[p];
      if (pk.ghost) continue;
      bool complete = true;
      for (std::size_t k = 0; k < pk.len; ++k)
        if (!pk.known[k]) complete = false;
      if (!complete) continue;
      for (std::size_t c = 0; c < C_; ++c) {
        Link& l = links_[p][c];
        if (!l.present || imgs_[p][c].empty()) continue;
        // The ISI-filtered symbol stream is μ/ĥ-independent: render it once
        // and share it across the re-estimation climb and the fresh image.
        CVec& u_full = arena_.cvec(kSlotEstU, 0);
        render_u(p, c, 0, pk.len, u_full);
        reestimate_link(p, c, u_full);
        // Replace the account with a fresh full-packet image rendered under
        // the final estimates. The old account can extend (slightly) past
        // the fresh window when μ̂ moved, so clear it everywhere.
        CVec& fresh = arena_.cvec(kSlotEstImg, 0);
        const Window w = render_image(p, c, 0, pk.len, u_full, fresh);
        auto& acct = imgs_[p][c];
        for (std::size_t n = 0; n < acct.size(); ++n) {
          residual_[c][n] += acct[n];
          acct[n] = cplx{0.0, 0.0};
        }
        ZZ_DCHECK_LE(static_cast<std::size_t>(w.s0) + fresh.size(),
                     residual_[c].size());
        for (std::size_t j = 0; j < fresh.size(); ++j) {
          const auto n = static_cast<std::size_t>(w.s0) + j;
          residual_[c][n] -= fresh[j];
          acct[n] = fresh[j];
        }
      }
    }
    for (std::size_t p = 0; p < P_; ++p) {
      PacketCtx& pk = pkts_[p];
      if (pk.ghost) continue;
      for (std::size_t c = 0; c < C_; ++c) {
        Link& l = links_[p][c];
        if (!l.present) continue;
        const int bank = 1;  // refinement updates the second bank
        // Clean view across the whole packet.
        bool any_unknown = false;
        for (std::size_t k = 0; k < pk.len; ++k)
          if (!pk.known[k]) any_unknown = true;
        if (any_unknown) continue;

        std::vector<phy::SymbolSpec> specs(pk.len);
        const CVec& pre = phy::preamble(rxcfg_.preamble_len);
        for (std::size_t k = 0; k < pk.len; ++k) {
          specs[k].mod = mod_at(p, k);
          if (k < pre.size()) specs[k].pilot = pre[k];
        }
        CVec& view = arena_.cvec(kSlotView, residual_[c].size());
        const auto& acct = imgs_[p][c];
        for (std::size_t n = 0; n < view.size(); ++n)
          view[n] = residual_[c][n] +
                    (acct.empty() ? cplx{0.0, 0.0} : acct[n]);
        // Full-packet refinement decodes are not memoized: their entries
        // would dwarf the chunk entries for a stage that only replays when
        // every prior chunk already hit the memo.
        const auto res = dec_.decode(view, l.origin, 0, pk.len, specs, l.est,
                                     /*backward=*/false);
        for (std::size_t k = 0; k < pk.len; ++k) {
          soft_[bank][p][c][k] = res.soft[k];
          soft_ok_[bank][p][c][k] = 1;
        }
        bank_nv_[bank][p][c] = std::max(res.noise_var, 1e-6);
        // The refined copy re-decodes the same samples with the final
        // parameter estimates and a fully-cleaned residual — it strictly
        // supersedes the bootstrap-pass copy from this collision.
        std::fill(soft_ok_[0][p][c].begin(), soft_ok_[0][p][c].end(),
                  static_cast<std::uint8_t>(0));
      }
    }

    // Decision update: re-slice each symbol from the MRC combination of the
    // refreshed copies. Without this, a symbol decided wrongly during the
    // passes keeps being re-rendered and subtracted self-consistently — the
    // corrupted image poisons the OTHER packet's copies at the same samples
    // in every collision, and no amount of re-decoding escapes (a decision-
    // feedback lock-in visible as a high-SNR BER floor in Fig 5-3). The
    // corrected decisions feed the next refinement pass's re-rendering.
    for (std::size_t p = 0; p < P_; ++p) {
      PacketCtx& pk = pkts_[p];
      if (pk.ghost || !pk.header) continue;
      bool complete = true;
      for (std::size_t k = 0; k < pk.len; ++k)
        if (!pk.known[k]) complete = false;
      if (!complete) continue;
      // Body symbols only: header symbols differ across collisions in the
      // retry-flag variant (§4.2.2), so MRC-mixing them would corrupt the
      // decided header — they are protected by the parse/re-encode path.
      // Copies much noisier than the best are excluded exactly as in the
      // finalize() combination; a symbol covered only by excluded copies
      // keeps its chunk-pass decision.
      double best_nv = 1e30;
      for (int bank = 0; bank < 2; ++bank)
        for (std::size_t c = 0; c < C_; ++c)
          if (bank_nv_[bank][p][c] > 0.0)
            best_nv = std::min(best_nv, bank_nv_[bank][p][c]);
      const double nv_cut = best_nv < 1e29 ? 3.0 * best_nv : 1e30;
      const phy::Modulator body(pk.body_mod);
      for (std::size_t k = rxcfg_.preamble_len + phy::kHeaderBits; k < pk.len;
           ++k) {
        cplx acc{0.0, 0.0};
        double wsum = 0.0;
        for (int bank = 0; bank < 2; ++bank)
          for (std::size_t c = 0; c < C_; ++c) {
            if (k >= soft_ok_[bank][p][c].size() || !soft_ok_[bank][p][c][k])
              continue;
            const double nv = bank_nv_[bank][p][c] > 0.0
                                  ? bank_nv_[bank][p][c]
                                  : links_[p][c].est.noise_var;
            if (nv > nv_cut) continue;
            const double w = 1.0 / std::max(nv, 1e-6);
            acc += w * soft_[bank][p][c][k];
            wsum += w;
          }
        if (wsum <= 0.0) continue;
        pk.decided[k] = body.nearest_point(acc / wsum);
      }
    }
  }

  DecodeResult finalize() {
    DecodeResult out;
    out.chunks = chunks_;
    out.stall_breaks = stalls_;
    out.packets.resize(P_);
    for (std::size_t p = 0; p < P_; ++p) {
      PacketCtx& pk = pkts_[p];
      PacketResult& r = out.packets[p];
      r.symbols_decoded = static_cast<std::size_t>(
          std::count(pk.known.begin(), pk.known.end(), 1));
      if (!pk.header) continue;
      r.header_ok = true;
      r.header = *pk.header;

      // MRC across every (pass, collision) estimate of each symbol. Soft
      // symbols are gain-normalized, so a copy's weight is the inverse of
      // its measured slicer noise; copies much noisier than the best one
      // (typically a re-decode through a poorly-anchored link) are dropped
      // rather than allowed to drag the combination down.
      const std::size_t total = pk.layout.total_syms;
      double best_nv = 1e30;
      for (int bank = 0; bank < 2; ++bank)
        for (std::size_t c = 0; c < C_; ++c)
          if (bank_nv_[bank][p][c] > 0.0)
            best_nv = std::min(best_nv, bank_nv_[bank][p][c]);
      const double nv_cut = best_nv < 1e29 ? 3.0 * best_nv : 1e30;
      CVec combined(total, cplx{0.0, 0.0});
      for (std::size_t k = 0; k < total; ++k) {
        cplx acc{0.0, 0.0};
        double wsum = 0.0;
        for (int bank = 0; bank < 2; ++bank)
          for (std::size_t c = 0; c < C_; ++c) {
            if (k >= soft_ok_[bank][p][c].size() || !soft_ok_[bank][p][c][k])
              continue;
            const double nv = bank_nv_[bank][p][c] > 0.0
                                  ? bank_nv_[bank][p][c]
                                  : links_[p][c].est.noise_var;
            if (nv > nv_cut) continue;
            const double w = 1.0 / std::max(nv, 1e-6);
            acc += w * soft_[bank][p][c][k];
            wsum += w;
          }
        combined[k] = wsum > 0.0 ? acc / wsum
                                 : (k < pk.decided.size() ? pk.decided[k]
                                                          : cplx{0.0, 0.0});
      }

      const std::size_t h0 = rxcfg_.preamble_len;
      // layout_for() always budgets the preamble; a shorter total would
      // make the strip below walk off the combined buffer.
      ZZ_CHECK_LE(h0, combined.size());
      r.soft.assign(combined.begin() + static_cast<std::ptrdiff_t>(h0),
                    combined.end());
      const phy::Modulator bpsk(Modulation::BPSK);
      const phy::Modulator body(pk.body_mod);
      // Header bits come from the parsed header, not the MRC combination:
      // the two collisions carry different retry-flag variants (§4.2.2), so
      // averaging their header symbols would mangle the differing bits.
      Bits bits = phy::encode_header(*pk.header);
      Bits body_bits;
      for (std::size_t k = h0 + phy::kHeaderBits; k < total; ++k)
        body.append_bits(combined[k], body_bits);
      body_bits.resize(pk.layout.body_bits);
      bits.insert(bits.end(), body_bits.begin(), body_bits.end());
      r.air_bits = std::move(bits);

      phy::Scrambler scr(phy::scrambler_seed_for(pk.header->seq));
      const Bits descrambled = scr.apply(body_bits);
      if (phy::body_crc_ok(descrambled)) {
        r.crc_ok = true;
        r.payload = phy::body_payload(descrambled);
      }
    }
    return out;
  }

  // ------------------------------------------------------------------ data
  /// ScratchArena slots (owner-scoped; see scratch.h). Call sites sharing a
  /// slot never have overlapping lifetimes.
  enum Slot : std::size_t {
    kSlotImg = 0,   ///< subtract_range chunk image
    kSlotDImg,      ///< project_refine timing-derivative image
    kSlotView,      ///< decode_chunk / refinement re-decode view
    kSlotEstImg,    ///< reestimate_link / refinement fresh full-packet image
    kSlotEstView,   ///< reestimate_link add-back view
    kSlotEstU,      ///< refinement shared ISI-filtered symbol stream
  };

  const DecodeOptions& opt_;
  const phy::ReceiverConfig& rxcfg_;
  std::span<const phy::SenderProfile> profiles_;
  std::span<const CollisionInput> inputs_;
  std::size_t C_;
  std::size_t P_;
  phy::ChunkDecoder dec_;
  const std::array<double, 4> sinr_required_;  ///< by Modulation, linear

  std::vector<CVec> residual_;
  std::vector<std::vector<CVec>> imgs_;                 // [p][c]
  std::vector<std::vector<std::vector<double>>> pres_;  // [c][p][sample]
  std::vector<std::vector<Link>> links_;                // [p][c]
  std::vector<PacketCtx> pkts_;
  std::vector<double> noise_;
  std::vector<std::vector<CVec>> soft_[2];              // [bank][p][c]
  std::vector<std::vector<std::vector<std::uint8_t>>> soft_ok_[2];
  std::vector<std::vector<double>> bank_nv_[2];         // [bank][p][c]
  DecodeCache* cache_ = nullptr;
  phy::ChunkDecoder::Result last_res_;  ///< cached_decode's uncached return
  /// Fallback scratch storage when no external arena was injected; arena_
  /// aliases either this or the caller's (episode-persistent) arena. Slot
  /// numbers are engine-owned either way, and decodes are sequential on an
  /// arena by contract, so cross-engine reuse only recycles capacity.
  mutable sig::ScratchArena own_arena_;
  sig::ScratchArena& arena_;
  CVec u_scratch_;  ///< render_u output for chunk renders
  std::size_t chunks_ = 0;
  std::size_t stalls_ = 0;
};

}  // namespace

bool DecodeResult::all_crc_ok() const {
  if (packets.empty()) return false;
  return std::all_of(packets.begin(), packets.end(),
                     [](const PacketResult& p) { return p.crc_ok; });
}

ZigZagDecoder::ZigZagDecoder(DecodeOptions opt, phy::ReceiverConfig rxcfg)
    : opt_(opt), rxcfg_(rxcfg) {}

DecodeResult ZigZagDecoder::decode(std::span<const CollisionInput> collisions,
                                   std::span<const phy::SenderProfile> profiles,
                                   std::size_t num_packets, DecodeCache* cache,
                                   sig::ScratchArena* arena) const {
  if (collisions.empty() || num_packets == 0) return {};
  for (const auto& ci : collisions)
    if (ci.samples == nullptr)
      throw std::invalid_argument("ZigZagDecoder: null samples");
  Engine engine(collisions, profiles, num_packets, opt_, rxcfg_, cache, arena);
  return engine.run();
}

}  // namespace zz::zigzag
