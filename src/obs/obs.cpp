#include "src/obs/obs.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "src/util/format.h"

namespace dcolor::obs {

std::int64_t saturating_add(std::int64_t a, std::int64_t b) {
  std::int64_t r;
  if (__builtin_add_overflow(a, b, &r)) {
    return b > 0 ? std::numeric_limits<std::int64_t>::max()
                 : std::numeric_limits<std::int64_t>::min();
  }
  return r;
}

int histogram_bucket(std::int64_t v) {
  if (v <= 0) return 0;
  return std::bit_width(static_cast<std::uint64_t>(v));  // 1..63 for positive int64
}

std::int64_t histogram_bucket_upper(int bucket) {
  if (bucket <= 0) return 0;
  if (bucket >= 63) return std::numeric_limits<std::int64_t>::max();
  return (std::int64_t{1} << bucket) - 1;
}

std::int64_t histogram_quantile(const HistogramSnapshot& h, double q) {
  if (h.count <= 0) return 0;
  const double clamped = q < 0.0 ? 0.0 : (q > 1.0 ? 1.0 : q);
  std::int64_t rank = static_cast<std::int64_t>(std::ceil(clamped * static_cast<double>(h.count)));
  if (rank < 1) rank = 1;
  if (rank > h.count) rank = h.count;
  std::int64_t cum = 0;
  for (int b = 0; b < kNumHistogramBuckets; ++b) {
    cum += h.buckets[b];
    if (cum >= rank) {
      std::int64_t est = histogram_bucket_upper(b);
      if (est < h.min) est = h.min;
      if (est > h.max) est = h.max;
      return est;
    }
  }
  return h.max;
}

namespace {

// The active session, published with release so a thread that observes
// the pointer also observes the session's initialized fields. Writers
// re-load it per event; the quiesce contract (no instrumented work in
// flight across stop()/destruction) is what makes that load safe.
std::atomic<TraceSession*> g_session{nullptr};
// Bumped on every session construction; lets a thread's cached buffer
// pointer from a previous session be recognized as stale.
std::atomic<std::uint64_t> g_epoch{0};

struct CachedBuffer {
  std::uint64_t epoch = 0;
  internal::ThreadBuffer* buffer = nullptr;
};
thread_local CachedBuffer t_cached;

// Live phase and cluster spans on this thread (internal::open_scope).
thread_local int t_scope_depth = 0;

bool is_cat(const char* cat, const char* want) {
  return cat == want || std::strcmp(cat, want) == 0;
}

}  // namespace

namespace internal {

bool open_scope(const char** cat) {
  const bool phase = is_cat(*cat, kCatPhase);
  if (!phase && !is_cat(*cat, kCatCluster)) return false;
  if (phase && t_scope_depth > 0) *cat = kCatSubphase;
  ++t_scope_depth;
  return true;
}

void close_scope() { --t_scope_depth; }

struct Event {
  const char* cat;
  const char* name;
  char ph;  // 'X' complete span, 'C' counter sample
  std::int64_t ts_ns;
  std::int64_t dur_ns;  // 'C': the counter value
  ArgList args;
};

// Single-writer per-thread stat accumulator keyed by (cat, name)
// pointer identity; duplicates from distinct literals with equal text
// are merged by string at aggregation time. Each slot doubles as this
// thread's histogram shard: plain (single-writer) bucket increments at
// record time, merged by addition in aggregate() — so merged bucket
// counts are a pure function of the recorded multiset, independent of
// which thread recorded what.
struct StatSlot {
  const char* cat = nullptr;
  const char* name = nullptr;
  std::int64_t count = 0;
  std::int64_t total = 0;  // saturating, so pathological values cannot UB
  std::int64_t max = 0;
  std::int64_t min = 0;  // valid when count > 0
  std::int64_t buckets[kNumHistogramBuckets] = {};
};

struct ThreadBuffer {
  int tid = 0;
  std::vector<Event> events;            // preallocated to capacity
  std::atomic<std::size_t> head{0};     // writer: release; reader: acquire
  std::atomic<std::int64_t> dropped{0};
  static constexpr int kStatSlots = 128;
  StatSlot stats[kStatSlots];
  int stats_used = 0;

  StatSlot* stat_slot(const char* cat, const char* name) {
    for (int i = 0; i < stats_used; ++i) {
      if (stats[i].cat == cat && stats[i].name == name) return &stats[i];
    }
    if (stats_used == kStatSlots) return nullptr;  // silently uncounted past 128 names
    StatSlot& s = stats[stats_used++];
    s.cat = cat;
    s.name = name;
    return &s;
  }

  void record(const char* cat, const char* name, char ph, std::int64_t ts_ns,
              std::int64_t dur_ns, const ArgList& args, bool want_event) {
    // Histogram shard first: it stays complete even when the ring fills.
    if (StatSlot* s = stat_slot(cat, name)) {
      if (s->count == 0) {
        s->min = dur_ns;
        s->max = dur_ns;
      } else {
        s->min = std::min(s->min, dur_ns);
        s->max = std::max(s->max, dur_ns);
      }
      ++s->count;
      s->total = saturating_add(s->total, dur_ns);
      ++s->buckets[histogram_bucket(dur_ns)];
    }
    if (!want_event) return;
    std::size_t h = head.load(std::memory_order_relaxed);
    if (h == events.size()) {
      dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    events[h] = Event{cat, name, ph, ts_ns, dur_ns, args};
    head.store(h + 1, std::memory_order_release);
  }
};

}  // namespace internal

struct TraceSession::Impl {
  std::mutex mu;
  std::vector<std::unique_ptr<internal::ThreadBuffer>> buffers;
};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool enabled() { return g_session.load(std::memory_order_relaxed) != nullptr; }

void complete(const char* cat, const char* name, std::int64_t start_ns, std::int64_t dur_ns,
              const ArgList& args) {
  TraceSession* s = g_session.load(std::memory_order_acquire);
  if (!s) return;
  s->thread_buffer()->record(cat, name, 'X', start_ns, dur_ns, args, s->events_);
}

void counter(const char* cat, const char* name, std::int64_t value) {
  TraceSession* s = g_session.load(std::memory_order_acquire);
  if (!s) return;
  s->thread_buffer()->record(cat, name, 'C', now_ns(), value, ArgList{}, s->events_);
}

void value(const char* cat, const char* name, std::int64_t v) {
  TraceSession* s = g_session.load(std::memory_order_acquire);
  if (!s) return;
  // Histogram only — no ring event, no clock read.
  s->thread_buffer()->record(cat, name, 'V', 0, v, ArgList{}, /*want_event=*/false);
}

TraceSession::TraceSession(Options opts)
    : epoch_(g_epoch.fetch_add(1, std::memory_order_relaxed) + 1),
      capacity_(opts.buffer_capacity),
      events_(opts.events),
      start_ns_(now_ns()),
      impl_(new Impl) {
  TraceSession* expected = nullptr;
  if (!g_session.compare_exchange_strong(expected, this, std::memory_order_release,
                                         std::memory_order_relaxed)) {
    delete impl_;
    throw std::logic_error("obs::TraceSession: a session is already active");
  }
}

TraceSession::~TraceSession() {
  stop();
  delete impl_;
}

internal::ThreadBuffer* TraceSession::thread_buffer() {
  if (t_cached.epoch == epoch_) return t_cached.buffer;
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto buf = std::make_unique<internal::ThreadBuffer>();
  buf->tid = static_cast<int>(impl_->buffers.size());
  buf->events.resize(events_ ? capacity_ : 0);
  t_cached = {epoch_, buf.get()};
  impl_->buffers.push_back(std::move(buf));
  return t_cached.buffer;
}

void TraceSession::stop() {
  if (stopped_) return;
  TraceSession* expected = this;
  g_session.compare_exchange_strong(expected, nullptr, std::memory_order_acq_rel,
                                    std::memory_order_relaxed);
  stopped_ = true;
  aggregate();
}

void TraceSession::aggregate() {
  std::map<std::pair<std::string, std::string>, HistogramSnapshot> merged;
  std::lock_guard<std::mutex> lock(impl_->mu);
  dropped_ = 0;
  for (const auto& buf : impl_->buffers) {
    // Acquire pairs with the writer's release store so every event below
    // the head index is fully visible.
    (void)buf->head.load(std::memory_order_acquire);
    dropped_ += buf->dropped.load(std::memory_order_relaxed);
    for (int i = 0; i < buf->stats_used; ++i) {
      const internal::StatSlot& s = buf->stats[i];
      HistogramSnapshot& h = merged[{s.cat, s.name}];
      if (h.count == 0) {
        h.cat = s.cat;
        h.name = s.name;
        h.min = s.min;
        h.max = s.max;
      } else {
        h.min = std::min(h.min, s.min);
        h.max = std::max(h.max, s.max);
      }
      h.count += s.count;
      h.total = saturating_add(h.total, s.total);
      for (int b = 0; b < kNumHistogramBuckets; ++b) h.buckets[b] += s.buckets[b];
    }
  }
  histograms_.clear();
  for (auto& [key, h] : merged) histograms_.push_back(std::move(h));
}

const std::vector<HistogramSnapshot>& TraceSession::histograms() {
  stop();
  return histograms_;
}

std::int64_t TraceSession::dropped_events() {
  stop();
  return dropped_;
}

namespace {

// The sub-microsecond digits of a nanosecond count, for "%lld.%03d".
int ns_frac(std::int64_t ns) {
  return static_cast<int>(ns % 1000 < 0 ? -(ns % 1000) : ns % 1000);
}

}  // namespace

std::string TraceSession::chrome_trace_json() {
  stop();
  std::string out;
  out.reserve(1 << 16);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (std::size_t t = 0; t < impl_->buffers.size(); ++t) {
    const internal::ThreadBuffer& buf = *impl_->buffers[t];
    appendf(out,
            "%s{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":"
            "\"dcolor-t%d\"}}",
            t ? "," : "", buf.tid, buf.tid);
    const std::size_t head = buf.head.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < head; ++i) {
      const internal::Event& e = buf.events[i];
      const std::int64_t ts = e.ts_ns - start_ns_;
      appendf(out, ",{\"ph\":\"%c\",\"pid\":1,\"tid\":%d,\"ts\":%" PRId64 ".%03d", e.ph, buf.tid,
              ts / 1000, ns_frac(ts));
      if (e.ph == 'X') {
        appendf(out, ",\"dur\":%" PRId64 ".%03d", e.dur_ns / 1000, ns_frac(e.dur_ns));
      }
      appendf(out, ",\"cat\":\"%s\",\"name\":\"%s\",\"args\":{", e.cat, e.name);
      if (e.ph == 'C') appendf(out, "\"value\":%" PRId64, e.dur_ns);
      for (int a = 0; e.ph != 'C' && a < e.args.count; ++a) {
        appendf(out, "%s\"%s\":%" PRId64, a ? "," : "", e.args.keys[a], e.args.values[a]);
      }
      out += "}}";
    }
  }
  // Keyed "cat/name"; buckets are sparse {bit_width: count} (see
  // histogram_bucket for the bucket boundaries).
  out += "],\"dcolorHistograms\":{";
  for (std::size_t i = 0; i < histograms_.size(); ++i) {
    const HistogramSnapshot& h = histograms_[i];
    appendf(out,
            "%s\"%s/%s\":{\"count\":%" PRId64 ",\"total\":%" PRId64 ",\"min\":%" PRId64
            ",\"max\":%" PRId64 ",\"p50\":%" PRId64 ",\"p90\":%" PRId64 ",\"p99\":%" PRId64
            ",\"buckets\":{",
            i ? "," : "", h.cat.c_str(), h.name.c_str(), h.count, h.total, h.min, h.max,
            histogram_quantile(h, 0.50), histogram_quantile(h, 0.90),
            histogram_quantile(h, 0.99));
    const char* sep = "";
    for (int b = 0; b < kNumHistogramBuckets; ++b) {
      if (h.buckets[b] == 0) continue;
      appendf(out, "%s\"%d\":%" PRId64, sep, b, h.buckets[b]);
      sep = ",";
    }
    out += "}}";
  }
  appendf(out, "},\"dcolorDroppedEvents\":%" PRId64 "}", dropped_);
  return out;
}

}  // namespace dcolor::obs
