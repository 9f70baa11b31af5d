#include "zz/zigzag/receiver.h"

#include <algorithm>
#include <cstdint>

#include "zz/chan/channel.h"

namespace zz::zigzag {
namespace {

CollisionInput make_input(const CVec& samples,
                          const std::vector<Detection>& dets,
                          const std::vector<std::size_t>& packet_ids,
                          bool is_retx) {
  CollisionInput in;
  in.samples = &samples;
  in.is_retransmission = is_retx;
  for (std::size_t i = 0; i < dets.size(); ++i)
    in.placements.push_back({packet_ids[i], dets[i]});
  return in;
}

}  // namespace

ReceiverOptions ReceiverOptions::for_clients(std::size_t n) {
  ReceiverOptions opt;
  opt.max_pending = std::max<std::size_t>(4, n + 1);
  opt.max_joint_receptions = std::max<std::size_t>(3, n);
  if (n > 2) {
    opt.decode.chunk_order = ChunkOrder::BestFirst;
    opt.strict_joint = true;
    // §4.2.2 at n-way overlap: |<s1,s2>|/√(E1·E2) of one client's copies
    // normalizes to ≈ p_c ≈ 1/n of each segment's energy, so the pair
    // threshold (0.30) sits inside the true-match distribution at n = 3
    // (measured q25 ≈ 0.30) while unrelated packets decorrelate to ≲ 0.12
    // over the 512-sample span. 0.6/n tracks the 1/n scaling with 2×
    // headroom above decorrelation noise.
    opt.match.threshold =
        std::min(opt.match.threshold, 0.6 / static_cast<double>(n));
    // n-way overlaps push many data excursions over β, and the
    // cons-ranked eviction under the pair cap (6) throws away faded true
    // starts — which no later stage can recover. Keep the detector's
    // measurement-sized cap and let the decoder-side phantom triage
    // (alias collapse, provenance gate) absorb the surplus.
    opt.detector.max_detections = 32;
  }
  return opt;
}

ZigZagReceiver::ZigZagReceiver(ReceiverOptions opt)
    : opt_(std::move(opt)), matcher_(opt_.match) {}

void ZigZagReceiver::add_client(const phy::SenderProfile& profile) {
  clients_.push_back(profile);
}

void ZigZagReceiver::add_clients(std::span<const phy::SenderProfile> profiles) {
  for (const auto& p : profiles) clients_.push_back(p);
}

bool ZigZagReceiver::fresh(const phy::FrameHeader& h) {
  return delivered_keys_.insert({h.sender_id, h.seq}).second;
}

std::vector<Delivered> ZigZagReceiver::try_single(
    const CVec& rx, const std::vector<Detection>& dets) {
  // A single reception handed to the general decoder covers the standard
  // no-collision decode, the capture effect (Fig 4-1d), and single-collision
  // interference cancellation (Fig 4-1e) in one code path.
  DecodeOptions fast = opt_.decode;
  fast.max_stall_breaks = opt_.single_shot_stall_breaks;
  fast.backward_pass = false;
  fast.refinement_passes = std::min(opt_.decode.refinement_passes, 1);
  const ZigZagDecoder dec(fast, opt_.rx);

  std::vector<std::size_t> ids(dets.size());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  const CollisionInput in = make_input(rx, dets, ids, false);
  const auto res =
      dec.decode({&in, 1}, clients_, dets.size(), opt_.shared_cache,
                 opt_.arena);

  std::vector<Delivered> out;
  for (const auto& p : res.packets) {
    if (!p.crc_ok || !fresh(p.header)) continue;
    out.push_back({p.header, p.payload, p.air_bits, true, false,
                   dets.size() > 1});
  }
  return out;
}

std::vector<Delivered> ZigZagReceiver::try_joint(
    const std::vector<const PendingCollision*>& olds, const CVec& rx,
    const std::vector<Detection>& dets, bool* matched,
    std::size_t* unknowns) {
  *matched = false;
  *unknowns = 0;

  // Register packets across all receptions, unifying copies by data
  // correlation (§4.2.2) against the reception where each packet was first
  // seen; unmatched detections become new packets.
  struct Anchor {
    const CVec* samples;
    std::ptrdiff_t origin;
  };
  std::vector<Anchor> registry;
  std::vector<CollisionInput> inputs;
  std::size_t matches = 0;

  auto place = [&](const CVec& samples, const std::vector<Detection>& ds,
                   bool is_retx) {
    std::vector<std::size_t> ids(ds.size());
    std::vector<bool> used(registry.size(), false);
    for (std::size_t j = 0; j < ds.size(); ++j) {
      double best = 0.0;
      int best_i = -1;
      // One prepare() of this detection's comparison window serves every
      // registry candidate (§4.2.2).
      const bool window_ok = matcher_.prepare(samples, ds[j].origin);
      for (std::size_t i = 0; window_ok && i < registry.size(); ++i) {
        if (used[i]) continue;
        const auto score =
            matcher_.score(*registry[i].samples, registry[i].origin);
        if (score.matched && score.score > best) {
          best = score.score;
          best_i = static_cast<int>(i);
        }
      }
      if (best_i >= 0) {
        ids[j] = static_cast<std::size_t>(best_i);
        used[static_cast<std::size_t>(best_i)] = true;
        ++matches;
      } else {
        ids[j] = registry.size();
        registry.push_back({&samples, ds[j].origin});
        used.push_back(true);
      }
    }
    inputs.push_back(make_input(samples, ds, ids, is_retx));
  };

  for (const auto* old_coll : olds)
    place(old_coll->samples, old_coll->detections,
          old_coll != olds.front());
  place(rx, dets, true);

  if (matches == 0) return {};
  *matched = true;

  // Alias collapse (Assertion 4.5.1 in reverse). A phantom detection is a
  // data excursion riding a real packet, so its copies track that packet's
  // copies at one CONSTANT relative offset in every reception — exactly
  // the degenerate "same Δ in every collision" pattern §4.5 proves
  // unresolvable, because it is not a second transmitter at all. Collapse
  // any unknown pair locked at a constant offset across ≥2 receptions into
  // the earlier-origin one: the excursion correlates with data that only
  // exists AFTER the true start, so the earliest alias is the start. (Two
  // genuinely distinct packets stuck at one offset are unresolvable anyway
  // — §4.5 — so collapsing them loses nothing decodable.)
  if (opt_.strict_joint) {
    constexpr std::ptrdiff_t kNotPlaced = PTRDIFF_MIN;
    std::vector<std::vector<std::ptrdiff_t>> origin(
        registry.size(),
        std::vector<std::ptrdiff_t>(inputs.size(), kNotPlaced));
    for (std::size_t c = 0; c < inputs.size(); ++c)
      for (const auto& pl : inputs[c].placements)
        origin[pl.packet][c] = pl.detection.origin;

    std::vector<std::size_t> alias(registry.size());
    for (std::size_t i = 0; i < alias.size(); ++i) alias[i] = i;
    const auto root_of = [&](std::size_t i) {
      while (alias[i] != i) i = alias[i];
      return i;
    };
    for (std::size_t a = 0; a < registry.size(); ++a) {
      for (std::size_t b = a + 1; b < registry.size(); ++b) {
        std::ptrdiff_t lo = 0, hi = 0;
        std::size_t both = 0;
        for (std::size_t c = 0; c < inputs.size(); ++c) {
          if (origin[a][c] == kNotPlaced || origin[b][c] == kNotPlaced)
            continue;
          const std::ptrdiff_t d = origin[b][c] - origin[a][c];
          if (both == 0) lo = hi = d;
          lo = std::min(lo, d);
          hi = std::max(hi, d);
          ++both;
        }
        if (both < 2 || hi - lo > 2) continue;  // offsets move: distinct
        // Locked pair: fold the later-origin unknown into the earlier.
        const std::size_t ra = root_of(a), rb = root_of(b);
        if (ra == rb) continue;
        if (lo + hi >= 0)  // b starts after a: b is the excursion
          alias[rb] = ra;
        else
          alias[ra] = rb;
      }
    }
    bool any_alias = false;
    for (std::size_t i = 0; i < alias.size(); ++i)
      if (root_of(i) != i) any_alias = true;
    if (any_alias) {
      // Compact ids: aliased unknowns vanish, survivors renumber densely.
      std::vector<std::size_t> renum(registry.size());
      std::size_t next = 0;
      for (std::size_t i = 0; i < registry.size(); ++i)
        if (root_of(i) == i) renum[i] = next++;
      for (auto& in : inputs) {
        std::vector<CollisionInput::Placement> kept;
        // The root's own placement wins; an alias never substitutes for it
        // (its origin points into the packet's data, past the true start).
        for (const auto& pl : in.placements)
          if (root_of(pl.packet) == pl.packet) kept.push_back(pl);
        in.placements = std::move(kept);
        for (auto& pl : in.placements) pl.packet = renum[pl.packet];
      }
      std::vector<Anchor> survivors;
      for (std::size_t i = 0; i < registry.size(); ++i)
        if (root_of(i) == i) survivors.push_back(registry[i]);
      registry = std::move(survivors);
    }
  }
  // Decidability count (§4.5): only packets placed in two or more
  // receptions participate in the joint system — a singleton (one stray
  // detection that matched nothing) contributes no cross-reception
  // equation and cannot be separated by widening either, so it must not
  // make a solvable pair look underdetermined. The decoder still sees the
  // singleton's placement (its signal is real interference); it just does
  // not count against the equation budget.
  std::vector<std::size_t> copies(registry.size(), 0);
  for (const auto& in : inputs)
    for (const auto& pl : in.placements) ++copies[pl.packet];
  *unknowns = 0;
  for (const std::size_t c : copies)
    if (c >= 2) ++*unknowns;

  const ZigZagDecoder dec(opt_.decode, opt_.rx);
  const auto res = dec.decode(
      {inputs.data(), inputs.size()}, clients_, registry.size(),
      opt_.shared_cache ? opt_.shared_cache : &joint_cache_, opt_.arena);

  std::vector<Delivered> out;
  for (const auto& p : res.packets) {
    if (!p.header_ok) continue;
    if (p.crc_ok && !fresh(p.header)) continue;
    out.push_back({p.header, p.payload, p.air_bits, p.crc_ok, true, false});
  }
  return out;
}

std::vector<Delivered> ZigZagReceiver::try_capture_second(
    const CVec& rx, const std::vector<Delivered>& got) {
  if (got.empty()) return {};
  const phy::StandardReceiver std_rx(opt_.rx);

  // Re-decode each delivered packet to recover its link estimate, re-encode
  // it through that estimate and cancel it out of the reception.
  CVec cleaned = rx;
  bool removed = false;
  for (const auto& d : got) {
    if (!d.crc_ok) continue;
    const phy::SenderProfile* prof = nullptr;
    for (const auto& c : clients_)
      if (c.id == d.header.sender_id) prof = &c;
    const auto pd = std_rx.decode(cleaned, prof);
    if (!pd.crc_ok) continue;
    const phy::TxFrame frame = phy::build_frame(pd.header, pd.payload);
    chan::add_signal(cleaned, pd.origin, frame.symbols, pd.est.params, -1.0);
    removed = true;
  }
  if (!removed) return {};

  // Anything still standing is a weaker packet the capture was hiding.
  const CollisionDetector detector(opt_.detector);
  const auto dets = detector.detect(cleaned, clients_);
  if (dets.empty()) return {};
  auto out = try_single(cleaned, dets);
  for (auto& d : out) d.via_sic = true;
  return out;
}

void ZigZagReceiver::remember(const CVec& rx, std::vector<Detection> dets) {
  pending_.push_back({rx, std::move(dets)});
  while (pending_.size() > opt_.max_pending) pending_.pop_front();
}

std::vector<Delivered> ZigZagReceiver::receive(const CVec& rx) {
  // The internal memo is per-reception (bounds memory); an injected cache
  // persists across receptions by design — its owner (one farm episode)
  // bounds it.
  if (!opt_.shared_cache) joint_cache_.clear();
  const CollisionDetector detector(opt_.detector);
  const auto dets = detector.detect(rx, clients_);
  if (dets.empty()) return {};

  // Standard decode / capture / single-collision cancellation first.
  auto out = try_single(rx, dets);
  if (!out.empty()) {
    // Capture check (§5.1d): subtract what was decoded and look again for
    // weaker packets hidden underneath.
    const auto extra = try_capture_second(rx, out);
    out.insert(out.end(), extra.begin(), extra.end());
  }
  const bool unresolved = out.size() < dets.size();
  if (!unresolved) return out;

  // Unresolved collision: look for matching earlier collisions (§4.2.2).
  // Try every stored reception as a pair partner; if a matched pair still
  // cannot be decoded (n-way collisions need more equations, §4.5), widen
  // with consecutive stored receptions up to max_joint_receptions — two
  // receptions resolve a pair, n resolve n senders.
  const auto useful_fn = [](const std::vector<Delivered>& ds) {
    return std::any_of(ds.begin(), ds.end(), [](const Delivered& d) {
      return d.crc_ok || !d.air_bits.empty();
    });
  };
  // Accepting a joint result consumes the stored receptions under it, so
  // an *underdetermined* decode (§4.5: fewer receptions than distinct
  // packets — e.g. a pair attempt on a 3-way collision) must not be
  // accepted: its output is partial junk and accepting it destroys the
  // very equations the widening step needs. A joint attempt is decisive
  // when its equation count covers the (cross-reception) unknowns or
  // widening is already at its cap; otherwise the reception is stored and
  // the decode waits for more equations.
  const auto decisive = [&](std::size_t receptions, std::size_t unknowns) {
    if (!opt_.strict_joint) return true;  // historical greedy accept (pinned)
    return receptions >= unknowns || receptions >= opt_.max_joint_receptions;
  };
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    bool matched = false;
    std::size_t unknowns = 0;
    auto joint_out = try_joint({&pending_[i]}, rx, dets, &matched, &unknowns);
    if (!matched) continue;
    if (decisive(2, unknowns) && useful_fn(joint_out)) {
      out.insert(out.end(), joint_out.begin(), joint_out.end());
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
      return out;
    }
    std::vector<const PendingCollision*> olds = {&pending_[i]};
    for (std::size_t j = i + 1;
         j < pending_.size() && olds.size() + 1 < opt_.max_joint_receptions;
         ++j) {
      olds.push_back(&pending_[j]);
      bool matched_n = false;
      std::size_t unknowns_n = 0;
      auto wide_out = try_joint(olds, rx, dets, &matched_n, &unknowns_n);
      if (matched_n && decisive(olds.size() + 1, unknowns_n) &&
          useful_fn(wide_out)) {
        out.insert(out.end(), wide_out.begin(), wide_out.end());
        for (std::size_t k = j + 1; k-- > i + 1;)  // erase back-to-front
          pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(k));
        pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
        return out;
      }
    }
    break;  // matched but not yet decodable: store below, wait for equations
  }

  remember(rx, dets);
  return out;
}

}  // namespace zz::zigzag
