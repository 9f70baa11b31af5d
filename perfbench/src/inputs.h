// Seeded input generation. Every workload's samples are synthesized here,
// before set-up, from the run's seed; the program under test only ever sees
// the generated samples.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "harness.h"
#include "zz/chan/channel.h"
#include "zz/common/rng.h"
#include "zz/phy/receiver.h"

namespace perf {

/// One associated client: its true channel (for synthesis) and the profile
/// the AP learned at association (true δf plus oscillator jitter, the fitted
/// ISI and its inverse) — the same construction the testbed uses.
struct Client {
  zz::phy::SenderProfile profile;
  zz::chan::ChannelParams channel;
  std::uint16_t next_seq = 0;
};
Client make_client(zz::Rng& rng, std::uint8_t id, double snr_db);

/// Build the next frame of `c` with a seeded payload and log it as truth.
zz::phy::TxFrame next_frame(zz::Rng& rng, Client& c, std::size_t payload_bytes,
                            TruthBook& truth);

/// Samples of the emulated medium between receptions (exact silence).
inline constexpr std::size_t kGapSamples = 64;
/// Push size of the stream feed: an awkward prime, so windows straddle
/// push boundaries in every way (the value the testbed's Streaming route
/// uses).
inline constexpr std::size_t kPushSamples = 509;

// ------------------------------------------------------------ stream_pair

enum class WindowKind { Clean, First, Retry };

/// One reception of the generated stream.
struct Window {
  std::size_t begin = 0;  ///< offset in the sample store
  std::size_t length = 0;
  WindowKind kind = WindowKind::Clean;
  std::size_t exchange = 0;
  std::vector<std::size_t> starts;  ///< true packet starts (samples)
};

struct StreamInput {
  std::vector<Client> clients;
  SampleStore samples;  ///< receptions separated by kGapSamples of silence
  std::vector<Window> windows;
  /// One exchange of the same clients from a fixed seed, fed at set-up to
  /// warm the receiver. Its sequence numbers sit far above the measured
  /// ones, so the receiver's duplicate filter never confuses the two.
  SampleStore warmup;
  std::vector<Window> warmup_windows;
  std::size_t exchanges = 0;
  TruthBook truth;
};

/// `exchanges` §5.2 exchanges between two hidden clients at 12 dB:
/// collision A+B, the retry collision at a fresh offset, and
/// kCleanPerExchange clean frames, each placed before, between or after
/// them. Clean frames are three windows in five, so the latency median sits
/// inside the clean-frame mode and p90 in the middle of the retry (joint
/// decode) mode. A median inside the first-collision mode moves by about
/// ±12 % from seed to seed, because what a first collision costs depends on
/// how many unmatched collisions the seed's traffic has left stored.
inline constexpr std::size_t kCleanPerExchange = 3;
void make_stream(std::uint64_t seed, std::size_t exchanges,
                 std::size_t payload_bytes, StreamInput& out);

// ------------------------------------------------------------- joint_nway

/// One §5.7 round: n hidden senders' collisions plus spare retransmissions
/// the AP may request as top-ups. Every round draws its own senders, so a
/// run averages over many channel realizations rather than a few.
struct Round {
  std::vector<Client> clients;       ///< the round's n senders
  std::vector<zz::CVec> receptions;  ///< n equations, then the spares
  /// starts[c][i]: true start of sender i's packet in reception c.
  std::vector<std::vector<std::size_t>> starts;
  std::vector<zz::phy::FrameHeader> headers;  ///< the round's packets
  std::size_t pkt_symbols = 0;
};

inline constexpr std::size_t kSpareEquations = 4;

struct JointInput {
  std::vector<Round> rounds;
  TruthBook truth;
};

/// `rounds` rounds; round r has n = 4 senders when r % kFourEvery ==
/// kFourEvery − 1, else 3, each at an SNR drawn from 9–12 dB. Four n = 3
/// rounds to each n = 4 round put the latency median inside the n = 3 mode.
inline constexpr std::size_t kFourEvery = 5;
///
/// One round in kHardEvery is a hard round: it comes from a fixed seed, so
/// it is the same on every run, and its first sender is at 0 dB, which no
/// number of equations decodes. The LoggedJoint loop therefore spends all
/// kSpareEquations top-ups on it and DecodeCache replays the other senders'
/// chunks: top-ups and cache hits are a fixed share of every run instead
/// of a seed-dependent few. Hard rounds are the costliest rounds of a run
/// (about 200–300 ms against 25–45 ms), and with 14 or 15 of them per 100
/// rounds the latency p90 falls among them: it reads the cost of a round
/// that spends every top-up, on inputs that are the same for every seed.
/// With fewer hard rounds the p90 falls among single 40 ms decodes, where
/// the jitter of a few rounds on a shared host moves it by up to a quarter
/// between runs of the same code.
inline constexpr std::size_t kHardEvery = 7;
void make_joint(std::uint64_t seed, std::size_t rounds,
                std::size_t payload_bytes, JointInput& out);

}  // namespace perf
