// Process-wide observability: named counters, log2 latency histograms, and a
// lock-free bounded ring buffer of trace events (spans, instants, counter
// samples). The design goal is the paper's: the system's own internals should
// be as visible as any window — everything here is exported as plain text
// through synthetic files under /mnt/help (metrics, trace, tracectl), so a
// shell script — or a help window — can profile the system with cat.
//
// Cost model, so the instrumentation can stay compiled in everywhere:
//   - a Span whose tracer is disabled costs one relaxed atomic load;
//   - an OBS_COUNT costs one relaxed fetch_add (reserved for rare events);
//   - an OBS_INSTANT is a relaxed load + branch when capture is off.
// Events are stamped with a monotonic sequence number (the ordering key — see
// below), a steady-clock nanosecond time, and the deterministic logical Clock
// tick when a Clock is bound. The logical tick and the steady clock can
// disagree about order (ticks are assigned under locks the emitters don't
// share), which is why readers must sort by seq, never by timestamp.
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/clock.h"

namespace help {
namespace obs {

// --- Metrics: named counters and histograms ---------------------------------

// A monotonically named counter (or gauge, via Sub). All operations are
// relaxed atomics; handles returned by the Registry are valid for the life of
// the process, so instrumentation sites cache them in function-local statics.
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}

  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Sub(uint64_t n = 1) { value_.fetch_sub(n, std::memory_order_relaxed); }
  void Store(uint64_t v) { value_.store(v, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::atomic<uint64_t> value_{0};
};

// Log2-bucketed histogram: bucket i holds samples with floor(log2(v)) == i-1,
// bucket 0 holds zero-valued samples. The /mnt/help stats files print
// Percentile's value as their p50us/p99us columns.
class Histogram {
 public:
  static constexpr size_t kBuckets = 32;

  explicit Histogram(std::string name) : name_(std::move(name)) {}

  void Record(uint64_t v) {
    buckets_[BucketOf(v)].fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t count() const;
  // Approximate percentile (0 < p <= 100): the upper bound of the bucket
  // holding the p-th sample. Returns 0 when empty.
  uint64_t Percentile(double p) const;
  std::array<uint64_t, kBuckets> Snapshot() const;
  void Reset();
  const std::string& name() const { return name_; }

  static size_t BucketOf(uint64_t v);
  static uint64_t PercentileOf(const std::array<uint64_t, kBuckets>& h, double p);

 private:
  std::string name_;
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
};

// The process-wide registry. GetCounter/GetHistogram return stable pointers
// (creation is mutex-guarded; the hot path never touches the registry —
// instrumentation sites look a handle up once and cache it).
class Registry {
 public:
  static Registry& Global();

  Counter* GetCounter(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  // The /mnt/help/metrics payload: every counter as "name value\n" (sorted),
  // then every histogram with samples as "name count p50 p99\n".
  std::string RenderText() const;

  // Zeroes every counter and histogram (entries stay registered; cached
  // handles remain valid). Test hook — production readers never reset.
  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

// --- Trace events and the ring buffer ----------------------------------------

// kComplete is a retroactive span: emitted once at phase end with the start
// time in `ns` and the duration in `arg`, so phases of requests that overlap
// (one reply waiting in the outbox while the next request runs) still render
// as single slices in Chrome tracing.
enum class EventKind : uint8_t { kBegin, kEnd, kInstant, kCounter, kComplete };

struct TraceEvent {
  uint64_t seq;     // global emit order — THE ordering key
  uint64_t ns;      // steady-clock ns since tracer construction
                    // (kComplete: phase START, not emit time)
  uint64_t tick;    // logical Clock tick at emit (0 if no clock bound)
  uint64_t arg;     // kEnd/kComplete: duration ns; otherwise event-specific
  uint64_t rid;     // request trace id (0 = not request-scoped)
  uint32_t tid;     // small per-thread id (first-emit order)
  EventKind kind;
  const char* name;  // string literal owned by the instrumentation site
};

// A fixed-capacity multi-producer ring of trace events. Writers claim a slot
// with one fetch_add and publish it seqlock-style: the slot's seq field is
// stored with a "busy" bit before the payload is written and with the real
// sequence number after, both with release ordering, so a reader that sees
// seq == expected (acquire) before *and* after copying the payload got a
// consistent event. All slot fields are individual relaxed atomics — there is
// no non-atomic shared state, so concurrent writers and readers are data-race
// free (TSan-clean) by construction. When the ring wraps, the oldest events
// are overwritten and the trace.dropped counter advances.
class Tracer {
 public:
  static constexpr size_t kCapacity = 8192;  // power of two
  static Tracer& Global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  // Discards all buffered events (emitted/dropped totals keep counting up).
  void Clear();

  // Binds the logical clock whose tick stamps events. Help binds its Vfs
  // clock on construction; Unbind is a no-op unless `c` is still the one
  // bound (so destroying an older Help doesn't unbind a newer one's clock).
  void BindClock(const Clock* c) { clock_.store(c, std::memory_order_release); }
  void UnbindClock(const Clock* c);

  // Appends one event if capture is enabled. `name` must be a string literal
  // (or otherwise immortal): the ring stores the pointer, not the bytes.
  void Emit(EventKind kind, const char* name, uint64_t arg = 0);
  // Full-control variant: stamps the request trace id and an explicit
  // timestamp (NowNs domain). kComplete events pass the phase start here and
  // the duration in `arg`; every other kind passes NowNs().
  void EmitAt(EventKind kind, const char* name, uint64_t arg, uint64_t rid,
              uint64_t ns);

  // Names the calling thread in Chrome trace output ("net.loop").
  // Idempotent; later calls for the same thread win.
  void SetThreadName(std::string name);
  std::map<uint32_t, std::string> ThreadNames() const;

  // All currently-readable events, ascending by seq.
  std::vector<TraceEvent> Snapshot() const;

  uint64_t emitted() const { return next_.load(std::memory_order_acquire); }
  uint64_t dropped() const;

  // The /mnt/help/trace payload: "seq ns tick tid kind name arg", one line
  // per event, ordered by seq.
  std::string RenderText() const;
  // Chrome trace-event JSON (chrome://tracing, Perfetto).
  std::string RenderChromeJson() const;
  // The /mnt/help/tracectl status payload.
  std::string RenderStatus() const;

  uint64_t NowNs() const;
  static uint32_t ThreadId();

 private:
  Tracer();

  struct Slot {
    // ~0 = never written; bit 63 set = mid-write. Valid seqs stay below 2^63.
    std::atomic<uint64_t> seq{~0ull};
    std::atomic<uint64_t> ns{0};
    std::atomic<uint64_t> tick{0};
    std::atomic<uint64_t> arg{0};
    std::atomic<uint64_t> rid{0};
    std::atomic<const char*> name{nullptr};
    std::atomic<uint32_t> tid{0};
    std::atomic<uint8_t> kind{0};
  };
  static constexpr uint64_t kBusyBit = 1ull << 63;

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_{0};
  std::atomic<const Clock*> clock_{nullptr};
  Counter* emitted_counter_;  // trace.events
  Counter* dropped_counter_;  // trace.dropped
  uint64_t epoch_ns_;         // steady-clock origin
  std::unique_ptr<Slot[]> slots_;
  mutable std::mutex names_mu_;
  std::map<uint32_t, std::string> thread_names_;
};

// --- Spans -------------------------------------------------------------------

// One static per instrumentation site: the span name and its duration
// histogram ("<name>.ns" in the registry), resolved once.
struct SpanSite {
  explicit SpanSite(const char* site_name);
  const char* name;
  Histogram* hist;
};

// RAII span. When tracing is disabled the constructor is a single relaxed
// load and the destructor a null check; when enabled it emits paired
// kBegin/kEnd events and records the duration histogram.
class Span {
 public:
  explicit Span(SpanSite& site) : site_(nullptr) {
    if (Tracer::Global().enabled()) {
      site_ = &site;
      Begin();
    }
  }
  ~Span() {
    if (site_ != nullptr) {
      End();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void Begin();
  void End();
  SpanSite* site_;
  uint64_t start_ns_ = 0;
};

#define HELP_OBS_CONCAT2(a, b) a##b
#define HELP_OBS_CONCAT(a, b) HELP_OBS_CONCAT2(a, b)

// Traces the rest of the enclosing scope as a span named `name` (a literal).
#define OBS_SPAN(name)                                                     \
  static ::help::obs::SpanSite HELP_OBS_CONCAT(obs_site_, __LINE__){name}; \
  ::help::obs::Span HELP_OBS_CONCAT(obs_span_, __LINE__)(                  \
      HELP_OBS_CONCAT(obs_site_, __LINE__))

// Emits an instant event when capture is on; a load + branch when off.
#define OBS_INSTANT(name, arg)                                            \
  do {                                                                    \
    if (::help::obs::Tracer::Global().enabled()) {                        \
      ::help::obs::Tracer::Global().Emit(::help::obs::EventKind::kInstant, \
                                         name, static_cast<uint64_t>(arg)); \
    }                                                                     \
  } while (0)

// Bumps a registry counter unconditionally (one relaxed fetch_add). Use for
// events rare enough that the counter is interesting even with tracing off.
#define OBS_COUNT(name, n)                                              \
  do {                                                                  \
    static ::help::obs::Counter* HELP_OBS_CONCAT(obs_ctr_, __LINE__) =  \
        ::help::obs::Registry::Global().GetCounter(name);               \
    HELP_OBS_CONCAT(obs_ctr_, __LINE__)->Add(static_cast<uint64_t>(n)); \
  } while (0)

}  // namespace obs
}  // namespace help

#endif  // SRC_OBS_TRACE_H_
