// The streaming ZigZag receiver — sample-in → packet-out (§4, ROADMAP
// "streaming receiver architecture").
//
// Every other receiver in this repo decodes a fully-logged buffer offline.
// StreamingReceiver is the incremental pipeline a real AP runs instead:
//
//   push(samples)
//     → sig::SampleRing            bounded retention, absolute positions
//     → phy::FrameSync             silence-gap framing into windows
//     → window decode              as soon as the window's interference
//                                  extent is resolved (the silence hang),
//                                  the materialized window flows through
//                                  the unmodified ZigZagReceiver —
//                                  detector, matcher, chunk decoder and
//                                  DecodeCache included
//
// The §4.2.1 "is it a collision?" decision is made once, by the window
// decode's detector on the materialized window, exactly as offline; the
// stream side runs no correlator of its own.
//
// Because the materialized window is bit-identical to the buffer the
// offline route logs (FrameSync recovers reception boundaries exactly),
// the delivered packets are bit-identical to ZigZagReceiver::receive on
// the same receptions — at ANY chunking of the input stream. That is the
// gated contract.
//
// Work per push() is O(chunk + windows closed this push): each sample is
// ring-buffered once, framed once and decoded once inside its window —
// nothing rescans history, so per-sample work is O(1) in stream length
// (StreamingStats::max_push_work pins it).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "zz/common/reentry.h"
#include "zz/common/types.h"
#include "zz/phy/framer.h"
#include "zz/signal/ring.h"
#include "zz/zigzag/receiver.h"

namespace zz::zigzag {

struct StreamingOptions {
  /// The inner (offline-identical) receiver: detector, matcher, decoder,
  /// pending-collision store. Streaming adds no decode knobs of its own.
  ReceiverOptions receiver{};
  phy::FramerConfig framer{};
};

/// One packet out of the stream, with its decode timing: `decoded_at` is
/// the stream position at which the window's closure was decided and its
/// joint decode ran — long before end-of-log, which is the point.
struct StreamDelivered {
  Delivered packet;
  std::uint64_t window_begin = 0;  ///< window whose decode emitted this
  std::uint64_t window_end = 0;
  std::uint64_t decoded_at = 0;
};

struct StreamingStats {
  std::uint64_t samples_in = 0;
  std::uint64_t windows = 0;        ///< reception windows closed & decoded
  std::size_t max_push_work = 0;    ///< peak samples touched by one push()
  std::size_t max_retained = 0;     ///< peak ring occupancy (samples)
};

class StreamingReceiver {
 public:
  explicit StreamingReceiver(StreamingOptions opt = {});

  /// Clients, forwarded to the inner receiver.
  void add_client(const phy::SenderProfile& profile) {
    rx_.add_client(profile);
  }
  void add_clients(std::span<const phy::SenderProfile> profiles) {
    rx_.add_clients(profiles);
  }

  /// Feed stream samples. Returns every packet whose decode this chunk
  /// unlocked (windows it closed), in stream order.
  std::vector<StreamDelivered> push(const cplx* data, std::size_t count);
  std::vector<StreamDelivered> push(const CVec& samples) {
    return push(samples.data(), samples.size());
  }

  /// End of stream: close and decode the open window, if any.
  std::vector<StreamDelivered> finish();

  std::uint64_t position() const { return framer_.position(); }
  const StreamingStats& stats() const { return stats_; }
  std::size_t retained_samples() const { return ring_.size(); }
  std::size_t last_push_work() const { return last_work_; }
  std::size_t pending_collisions() const { return rx_.pending_collisions(); }

 private:
  void handle_closed(const phy::FrameWindow& w,
                     std::vector<StreamDelivered>& out);

  ZigZagReceiver rx_;              ///< the unmodified offline engine
  sig::SampleRing ring_;
  phy::FrameSync framer_;
  CVec window_buf_;                ///< scratch: materialized window
  std::vector<phy::FrameWindow> windows_;  ///< scratch: closed this push
  StreamingStats stats_;
  std::size_t last_work_ = 0;
  ReentryFlag busy_;  ///< push()/finish() share persistent scratch state
};

}  // namespace zz::zigzag
