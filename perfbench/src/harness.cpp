#include "harness.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>

#include "zz/common/alloc_hook.h"
#include "zz/common/mathutil.h"
#include "zz/phy/transmitter.h"

namespace perf {

std::string fmt(const char* f, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, f);
  std::vsnprintf(buf, sizeof buf, f, ap);
  va_end(ap);
  return buf;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

Percentile percentile(const std::vector<double>& v, double p) {
  Percentile out;
  out.samples = v.size();
  out.value = quantile(v, p);
  out.supported = static_cast<double>(v.size()) * (1.0 - p) >= 10.0 - 1e-9;
  return out;
}

PassTimes pass_times(const std::vector<double>& setup_s,
                     const std::vector<double>& op_ms,
                     const std::vector<double>& latency_ms) {
  PassTimes t;
  t.setup_s = median(setup_s);
  for (const double ms : op_ms) t.busy_ms += ms;
  t.p50 = percentile(latency_ms, 0.5);
  t.p90 = percentile(latency_ms, 0.9);
  return t;
}

PassTimes best_pass(const std::vector<PassTimes>& passes) {
  PassTimes best = passes.front();
  for (const auto& p : passes) {
    best.setup_s = std::min(best.setup_s, p.setup_s);
    best.busy_ms = std::min(best.busy_ms, p.busy_ms);
    if (p.p50.value < best.p50.value) best.p50 = p.p50;
    if (p.p90.value < best.p90.value) best.p90 = p.p90;
  }
  return best;
}

void report_latency(Report& rep, const PassTimes& best, const char* what) {
  for (const Percentile* q : {&best.p50, &best.p90}) {
    const std::string name = q == &best.p50 ? "latency_ms_p50" : "latency_ms_p90";
    rep.note(fmt("%s: %.3f ms over %zu %s (best pass)", name.c_str(), q->value,
                 q->samples, what));
    if (!q->supported) {
      rep.fail(fmt("%s needs ten samples beyond it; %zu %s is too few",
                   name.c_str(), q->samples, what));
      continue;
    }
    rep.metric(name, q->value, "ms");
  }
}

// ---------------------------------------------------------- CPU choice

namespace {

/// The probe: a throughput-bound floating-point loop over 512 KB, which a
/// neighbour on the same physical core slows as it slows the program (a
/// latency-bound integer loop read the same on every vCPU). Static arrays
/// keep it out of the measured heap.
constexpr std::size_t kProbeLen = std::size_t{1} << 15;
double probe_a[kProbeLen];
double probe_b[kProbeLen];
volatile double probe_sink;

double probe_ms() {
  for (std::size_t i = 0; i < kProbeLen; ++i) {
    probe_a[i] = 1.0;
    probe_b[i] = 0.5;
  }
  const auto t0 = Clock::now();
  for (int r = 0; r < 40; ++r)
    for (std::size_t i = 0; i < kProbeLen; ++i)
      probe_a[i] = probe_a[i] * 0.999 + probe_b[i];
  probe_sink = probe_a[7];
  return ms_between(t0, Clock::now());
}

}  // namespace

void pin_to_fastest_cpu() {
  static cpu_set_t allowed;
  static const bool known =
      sched_getaffinity(0, sizeof allowed, &allowed) == 0;
  static Clock::time_point last;
  if (!known || (last != Clock::time_point{} &&
                 Clock::now() - last < std::chrono::milliseconds(500)))
    return;
  last = Clock::now();
  int best = -1;
  double best_ms = 0.0;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) continue;
    const double ms = std::min(probe_ms(), probe_ms());
    if (best < 0 || ms < best_ms) {
      best = c;
      best_ms = ms;
    }
  }
  if (best < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(best, &one);
  sched_setaffinity(0, sizeof one, &one);
}

// ------------------------------------------------------------- HeapWatch

HeapWatch::HeapWatch()
    : live0_(zz::live_heap_bytes()), peak0_(zz::peak_heap_bytes()) {}

double HeapWatch::peak_mb() const {
  return static_cast<double>(zz::peak_heap_bytes() - live0_) / 1e6;
}

bool HeapWatch::exact() const { return zz::peak_heap_bytes() > peak0_; }

// ---------------------------------------------------------------- Tracer

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0_)
      .count();
}

Tracer::Scope::Scope(Tracer* t, const char* name, std::uint64_t req) : t_(t) {
  if (!t_->on_) return;
  idx_ = static_cast<int>(t_->spans_.size());
  t_->spans_.push_back({name, t_->now_ns(), 0, t_->open_, req});
  t_->open_ = idx_;
}

Tracer::Scope::~Scope() {
  if (idx_ < 0) return;
  Span& s = t_->spans_[static_cast<std::size_t>(idx_)];
  s.end_ns = t_->now_ns();
  t_->open_ = s.parent;
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const auto& s : spans_)
    if (name == s.name)
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
  return out;
}

void Tracer::write(const std::string& path) const {
  std::ofstream f(path);
  f << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << (i ? ",\n" : "") << "{\"name\":\"" << s.name
      << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
      << fmt("%.3f", static_cast<double>(s.start_ns) / 1e3)
      << ",\"dur\":" << fmt("%.3f", static_cast<double>(s.end_ns - s.start_ns) / 1e3)
      << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
      << ",\"req\":" << s.req << "}}";
  }
  f << "\n]}\n";
}

// ---------------------------------------------------------------- Digest

void Digest::add(std::uint8_t sender, std::uint16_t seq,
                 const zz::Bits& air_bits) {
  byte(sender);
  byte(static_cast<std::uint8_t>(seq & 0xff));
  byte(static_cast<std::uint8_t>(seq >> 8));
  for (const auto b : air_bits) byte(b);
}

std::string Digest::hex() const {
  return fmt("%016llx", static_cast<unsigned long long>(h_));
}

// ------------------------------------------------------------- TruthBook

void TruthBook::add(const zz::phy::FrameHeader& header,
                    const zz::Bytes& payload) {
  zz::phy::FrameHeader h = header;
  h.retry = false;
  const auto frame = zz::phy::build_frame(h, payload);
  Entry e;
  e.air[0] = frame.air_bits();
  e.air[1] = zz::phy::with_retry(frame, true).air_bits();
  frames_[{h.sender_id, h.seq}] = std::move(e);
}

bool TruthBook::matches(const zz::phy::FrameHeader& want,
                        const zz::phy::FrameHeader& got,
                        const zz::Bits& air_bits) const {
  if (got.sender_id != want.sender_id || got.seq != want.seq) return false;
  const auto it = frames_.find({got.sender_id, got.seq});
  return it != frames_.end() &&
         zz::bit_error_rate(it->second.air[got.retry ? 1 : 0], air_bits) < 1e-3;
}

TruthBook::Verdict TruthBook::score(const zz::phy::FrameHeader& got,
                                    const zz::Bits& air_bits) {
  const auto it = frames_.find({got.sender_id, got.seq});
  if (it == frames_.end()) {
    ++phantoms_;
    return Verdict::Phantom;
  }
  const zz::Bits& ref = it->second.air[got.retry ? 1 : 0];
  if (zz::bit_error_rate(ref, air_bits) >= 1e-3) return Verdict::Garbled;
  if (it->second.delivered) {
    ++duplicates_;
    return Verdict::Duplicate;
  }
  it->second.delivered = true;
  ++correct_;
  return Verdict::Correct;
}

// ---------------------------------------------------------------- Report

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::note(const std::string& line) { notes_.push_back(line); }

void Report::fail(const std::string& why) { failures_.push_back(why); }

int Report::finish(std::size_t attempted, std::size_t failed) const {
  for (const auto& n : notes_) std::printf("%s\n", n.c_str());
  for (const auto& f : failures_) std::printf("CHECK FAILED: %s\n", f.c_str());
  for (const auto& [name, vu] : metrics_)
    std::printf("metric %-44s %16.6f %s\n", name.c_str(), vu.first,
                vu.second.c_str());
  std::string js = fmt("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                       "\"metrics\": {",
                       correct() ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, vu] = metrics_[i];
    const double v = std::isfinite(vu.first) ? vu.first : 0.0;
    js += fmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
              name.c_str(), v, vu.second.c_str());
  }
  js += "}}";
  std::printf("%s\n", js.c_str());
  std::fflush(stdout);
  return correct() ? 0 : 1;
}

}  // namespace perf
