// Observability layer: RAII phase spans and counters recorded into
// lock-free per-thread buffers, exported as Chrome trace-event JSON
// (Perfetto-loadable) plus one merged histogram per (category, name).
//
// Determinism guarantee: instrumentation only READS the steady clock and
// WRITES into obs-owned per-thread buffers — it never touches algorithm
// state, never synchronizes algorithm threads, and never branches on
// anything an algorithm could observe. Results, Metrics and checksums
// are therefore bit-identical with tracing on or off at every thread
// count (tests/obs_test.cpp enforces it), which is what makes traces
// trustworthy evidence for hot-path work.
//
// Cost model: with no TraceSession active every probe is one relaxed
// atomic load (Span construction) or nothing. With a session active, a
// span costs two steady_clock reads plus one write into the calling
// thread's own buffer — no locks, no cross-thread contention (threads
// register their buffer once per session under a mutex, then write
// privately).
//
// Concurrency contract: event/stat writes are per-thread (single
// writer); TraceSession::stop() publishes/reads buffers with
// acquire/release on each buffer's head index. The caller must quiesce
// instrumented work before stop()/destruction — in this repo the
// benchkit runner owns the session and only stops it after the
// scenario's execution (including every ThreadPool barrier) returned.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace dcolor::obs {

// Category tags shared by the instrumented layers. Spans with category
// kCatPhase form the non-overlapping (per thread) algorithm-phase
// decomposition benchkit turns into the per-record `phase_wall_ms`
// breakdown; the other categories are timeline detail. Phases are
// exclusive by construction: a kCatPhase span that opens while a
// kCatPhase or kCatCluster span is live on the same thread (Theorem 1.1's
// iteration inside a Corollary 1.2 class or cluster) is recorded under
// kCatSubphase instead, so no phase counts twice and pool workers, whose
// work runs inside cluster spans, add no phase time.
inline constexpr const char* kCatPhase = "phase";
inline constexpr const char* kCatSubphase = "subphase";
inline constexpr const char* kCatEngine = "engine";
inline constexpr const char* kCatNetwork = "network";
inline constexpr const char* kCatPool = "pool";
inline constexpr const char* kCatCluster = "cluster";
// Value probes (obs::value): deterministic per-round quantities — roster
// sizes, message-batch sizes, progress counts — recorded into the
// histograms but never into the event ring. Kept out of
// kCatPhase so they can never leak into the phase_wall_ms breakdown.
inline constexpr const char* kCatMetric = "metric";

// Up to four small named integer arguments on one event.
struct ArgList {
  const char* keys[4] = {nullptr, nullptr, nullptr, nullptr};
  std::int64_t values[4] = {0, 0, 0, 0};
  int count = 0;

  void add(const char* key, std::int64_t value) {
    if (count < 4) {
      keys[count] = key;
      values[count] = value;
      ++count;
    }
  }
};

// ---------------------------------------------------------------------
// Log-bucketed histograms.
//
// Every recorded value (span durations in ns, counter samples, value
// probes) also lands in a power-of-2-bucketed histogram per (cat, name):
// bucket 0 counts values <= 0 and bucket b >= 1 counts values v with
// bit_width(v) == b, i.e. 2^(b-1) <= v < 2^b. Bucket counts merge across
// per-thread shards by addition, so the merged histogram is a pure
// function of the multiset of recorded values — identical at every
// thread count when the recorded quantities are deterministic.
inline constexpr int kNumHistogramBuckets = 64;

// The merged histogram for one (cat, name), valid after
// TraceSession::stop(). `total` saturates at INT64_MAX instead of
// wrapping; `min`/`max` are exact over the recorded values.
struct HistogramSnapshot {
  std::string cat;
  std::string name;
  std::int64_t count = 0;
  std::int64_t total = 0;  // saturating sum of recorded values
  std::int64_t min = 0;
  std::int64_t max = 0;
  std::array<std::int64_t, kNumHistogramBuckets> buckets{};
};

// Bucket index of one value: 0 for v <= 0, otherwise bit_width(v)
// (so 1 -> 1, 2..3 -> 2, 4..7 -> 3, ..., INT64_MAX -> 63).
int histogram_bucket(std::int64_t v);

// Inclusive upper bound of a bucket (0 for bucket 0, else 2^b - 1,
// saturating at INT64_MAX).
std::int64_t histogram_bucket_upper(int bucket);

// Rank-based quantile estimate, q in [0, 1]: the upper bound of the
// bucket holding the ceil(q * count)-th smallest value, clamped into
// [min, max] so p100 is exact and estimates never leave the observed
// range. Deterministic (pure function of the snapshot); 0 on empty.
std::int64_t histogram_quantile(const HistogramSnapshot& h, double q);

// a + b with saturation at the int64 range bounds instead of overflow.
std::int64_t saturating_add(std::int64_t a, std::int64_t b);

// Monotonic nanoseconds (std::chrono::steady_clock).
std::int64_t now_ns();

// True iff a TraceSession is currently recording. One relaxed load —
// cheap enough for per-round probes; hot paths may still hoist it.
bool enabled();

// Record a complete ('X') event with an explicit start/duration, on the
// calling thread's track. No-op without an active session.
void complete(const char* cat, const char* name, std::int64_t start_ns, std::int64_t dur_ns,
              const ArgList& args = {});

// Record a counter ('C') sample on the calling thread's track.
void counter(const char* cat, const char* name, std::int64_t value);

// Record a value into the histogram for (cat, name)
// WITHOUT emitting a ring event — the probe for deterministic per-round
// quantities (roster sizes, message batches) that would otherwise bloat
// the event ring. Use kCatMetric so the values stay out of the
// phase_wall_ms breakdown. No-op without an active session.
void value(const char* cat, const char* name, std::int64_t v);

namespace internal {
// Per-thread nesting of live phase and cluster spans: open_scope returns
// whether *cat is one of them and, for a phase opened inside another
// phase or a cluster, rewrites *cat to kCatSubphase; close_scope ends
// what an open_scope that returned true began.
bool open_scope(const char** cat);
void close_scope();
}  // namespace internal

// RAII span: records a complete event covering construction→destruction
// on the calling thread's track. `cat`/`name`/arg keys must be string
// literals (or otherwise outlive the session). Arguments may be attached
// any time before destruction, so end-of-phase quantities (message
// deltas, result sizes) fit naturally. A nested phase is recorded as a
// subphase (see kCatPhase).
class Span {
 public:
  Span(const char* cat, const char* name) : cat_(cat), name_(name), live_(enabled()) {
    if (live_) {
      scope_ = internal::open_scope(&cat_);
      start_ns_ = now_ns();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    if (!live_) return;
    complete(cat_, name_, start_ns_, now_ns() - start_ns_, args_);
    if (scope_) internal::close_scope();
  }

  void arg(const char* key, std::int64_t value) {
    if (live_) args_.add(key, value);
  }
  bool live() const { return live_; }

 private:
  const char* cat_;
  const char* name_;
  bool live_;
  bool scope_ = false;  // a phase or cluster span, counted in the nesting
  std::int64_t start_ns_ = 0;
  ArgList args_;
};

namespace internal {
struct ThreadBuffer;
}  // namespace internal

struct TraceOptions {
  // Per-thread event-ring capacity. When a thread's ring fills, newer
  // events are dropped (and counted in dropped_events()); the
  // histograms are accumulated separately at write time and stay
  // complete regardless of drops.
  std::size_t buffer_capacity = 1 << 16;
  // false = histograms only: spans aggregate into the histograms but
  // no per-event storage is kept (the benchkit profiled rep without
  // --trace). chrome_trace_json() then yields an empty traceEvents
  // array with the histograms attached.
  bool events = true;
};

// One recording window. At most one session may be active per process
// (a second construction throws std::logic_error). Threads register a
// private buffer on their first event; stop() (or destruction) ends
// recording and aggregates.
class TraceSession {
 public:
  using Options = TraceOptions;

  explicit TraceSession(Options opts = {});
  ~TraceSession();
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  // Ends recording (idempotent). All instrumented work must have been
  // joined by the caller; after stop() the accessors below are valid.
  void stop();

  // Merged histograms (one per recorded (cat, name)), sorted by
  // (cat, name): the session's only aggregate. For spans `total`, `min`
  // and `max` are nanoseconds; for counters and value probes they
  // aggregate the recorded values. Bucket counts are sums over the
  // per-thread shards, so histograms over deterministic quantities are
  // bit-identical at every thread count.
  const std::vector<HistogramSnapshot>& histograms();

  // The Chrome trace-event JSON object: {"displayTimeUnit":"ms",
  // "traceEvents":[...],"dcolorHistograms":{...},
  // "dcolorDroppedEvents":N}.
  // Timestamps are microseconds relative to session start; tids are
  // small integers assigned per thread at first event (0, 1, 2, ... in
  // registration order), each with a thread_name metadata event.
  std::string chrome_trace_json();

  // Events dropped across all threads because a ring filled.
  std::int64_t dropped_events();

  std::int64_t start_ns() const { return start_ns_; }

 private:
  friend void complete(const char*, const char*, std::int64_t, std::int64_t, const ArgList&);
  friend void counter(const char*, const char*, std::int64_t);
  friend void value(const char*, const char*, std::int64_t);

  internal::ThreadBuffer* thread_buffer();
  void aggregate();

  std::uint64_t epoch_;
  std::size_t capacity_;
  bool events_;
  std::int64_t start_ns_;
  bool stopped_ = false;
  // Pointer-hidden state so this header stays light.
  struct Impl;
  Impl* impl_;
  std::vector<HistogramSnapshot> histograms_;
  std::int64_t dropped_ = 0;
};

}  // namespace dcolor::obs
