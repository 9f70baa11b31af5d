// Measurement plumbing shared by the three workloads: timing, percentiles
// with a sample-count rule, the span tracer of the traced run, heap
// accounting against a baseline, delivery scoring against ground truth and
// the result line the benchmark prints last.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <new>
#include <string>
#include <vector>

#include "zz/common/types.h"
#include "zz/phy/frame.h"

namespace perf {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 20;
  bool trace = false;
};

/// Allocator that bypasses the counted global operator new: the generated
/// input lives in buffers of this kind so the heap metric measures the
/// program, not the benchmark's own sample store.
template <class T>
struct UncountedAlloc {
  using value_type = T;
  UncountedAlloc() = default;
  template <class U>
  UncountedAlloc(const UncountedAlloc<U>&) {}
  T* allocate(std::size_t n) {
    if (void* p = std::malloc(n * sizeof(T))) return static_cast<T*>(p);
    throw std::bad_alloc();
  }
  void deallocate(T* p, std::size_t) { std::free(p); }
  template <class U>
  bool operator==(const UncountedAlloc<U>&) const { return true; }
};
using SampleStore = std::vector<zz::cplx, UncountedAlloc<zz::cplx>>;

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for an empty set.
double quantile(std::vector<double> v, double q);

/// A latency percentile with the sample count behind it. A percentile p is
/// reported only when at least ten samples lie beyond it, i.e. n ≥
/// 10 / (1 − p): p50 needs 20 samples, p90 needs 100.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  bool supported = false;
};
Percentile percentile(const std::vector<double>& v, double p);

/// Median of a small set of repeated measurements.
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// One pass's own timing figures: the median of the fresh set-ups before
/// it, its summed operation time and the latency percentiles of its own
/// operations.
struct PassTimes {
  double setup_s = 0.0;
  double busy_ms = 0.0;
  Percentile p50;
  Percentile p90;
};
PassTimes pass_times(const std::vector<double>& setup_s,
                     const std::vector<double>& op_ms,
                     const std::vector<double>& latency_ms);

/// The best of several passes over the same inputs, figure by figure: the
/// lowest set-up median, busy time, p50 and p90, each one real pass's
/// figure. A shared host's speed drifts by 10-60 % in phases of seconds to
/// minutes, and the best pass tracks the program rather than whichever
/// phase a single pass landed in.
PassTimes best_pass(const std::vector<PassTimes>& passes);

/// Pin the calling thread to the allowed CPU that runs a fixed probe loop
/// fastest right now; a no-op within half a second of the last choice
/// and where affinity cannot be set. On a shared host each vCPU slows by
/// up to 1.7x, independently of the others, in phases of seconds while a
/// neighbour loads its physical core. Timed passes call this between
/// operations, never inside a timed call, so they run on the currently
/// fastest vCPU and measure the program rather than the neighbour.
void pin_to_fastest_cpu();

/// Heap above the live baseline taken just before set-up. The allocation
/// hook's peak gauge is process-wide and monotone, so the reading is exact
/// once the program's peak exceeds whatever generation reached before the
/// baseline; `exact()` says whether it did.
class HeapWatch {
 public:
  HeapWatch();
  double peak_mb() const;
  bool exact() const;

 private:
  std::int64_t live0_;
  std::int64_t peak0_;
};

/// In-memory span recorder of the traced run. Spans come only from the
/// benchmark's own call sites around the public functions of each layer.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;           ///< index of the enclosing span, -1 at top level
    std::uint64_t req;    ///< window, round or episode id
  };

  class Scope {
   public:
    Scope(Tracer* t, const char* name, std::uint64_t req);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int idx_ = -1;
  };

  /// Span storage is reserved up front so recording does not allocate
  /// inside the allocation counts the traced run reports.
  explicit Tracer(bool on) : on_(on), t0_(Clock::now()) {
    if (on_) spans_.reserve(std::size_t{1} << 16);
  }
  /// Open a span (no-op when tracing is off).
  Scope span(const char* name, std::uint64_t req) { return {this, name, req}; }

  /// Durations in ms of every span called `name`.
  std::vector<double> durations_ms(const std::string& name) const;
  /// Write every span as Chrome trace-event JSON.
  void write(const std::string& path) const;

 private:
  std::int64_t now_ns() const;
  bool on_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  int open_ = -1;
};

/// FNV-1a digest of the delivered (sender, seq, air_bits) sequence.
class Digest {
 public:
  void add(std::uint8_t sender, std::uint16_t seq, const zz::Bits& air_bits);
  std::string hex() const;

 private:
  void byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 1099511628211ull;
  }
  std::uint64_t h_ = 14695981039346656037ull;
};

/// Ground truth of every offered packet, and the §5.1(f) scorer: a delivery
/// counts when its header names an offered (sender, seq) and its air bits
/// are within the BER threshold of that frame (with the delivered retry
/// flag). A second correct delivery of one packet is a duplicate; a header
/// naming no offered packet is a phantom. Both are failures.
class TruthBook {
 public:
  void add(const zz::phy::FrameHeader& header, const zz::Bytes& payload);
  std::size_t offered() const { return frames_.size(); }

  /// Whether `air_bits` delivers packet `want` correctly (no bookkeeping).
  bool matches(const zz::phy::FrameHeader& want, const zz::phy::FrameHeader& got,
               const zz::Bits& air_bits) const;

  enum class Verdict { Correct, Garbled, Duplicate, Phantom };
  Verdict score(const zz::phy::FrameHeader& got, const zz::Bits& air_bits);

  std::size_t correct() const { return correct_; }
  std::size_t failures() const { return duplicates_ + phantoms_; }
  std::size_t duplicates() const { return duplicates_; }
  std::size_t phantoms() const { return phantoms_; }

 private:
  struct Entry {
    zz::Bits air[2];  ///< header ‖ body bits with retry = 0 / 1
    bool delivered = false;
  };
  std::map<std::pair<std::uint8_t, std::uint16_t>, Entry> frames_;
  std::size_t correct_ = 0;
  std::size_t duplicates_ = 0;
  std::size_t phantoms_ = 0;
};

/// Metrics of one run, printed as the human-readable block and the final
/// JSON line.
class Report;

/// Report latency p50/p90 with their sample counts; a percentile without
/// ten samples beyond it fails the run instead of being reported.
void report_latency(Report& rep, const PassTimes& best, const char* what);

class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Informational line (printed before the JSON, never parsed).
  void note(const std::string& line);
  void fail(const std::string& why);  ///< a correctness check failed
  bool correct() const { return failures_.empty(); }
  /// Print notes, metrics table and the JSON line; returns the exit code.
  int finish(std::size_t attempted, std::size_t failed) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
};

std::string fmt(const char* f, ...);

}  // namespace perf
