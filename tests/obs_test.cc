// The observability subsystem: registry math, the lock-free trace ring
// (sequence ordering under concurrent writers, overflow accounting), span
// stamping, Chrome JSON output, and the /mnt/help/stats byte-format pin.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/base/clock.h"
#include "src/fs/metrics.h"
#include "src/obs/trace.h"

namespace help {
namespace {

using obs::EventKind;
using obs::Histogram;
using obs::Registry;
using obs::TraceEvent;
using obs::Tracer;

TEST(ObsRegistry, CountersAccumulateAndRender) {
  Registry& reg = Registry::Global();
  obs::Counter* c = reg.GetCounter("obstest.counter");
  uint64_t before = c->value();
  c->Add();
  c->Add(41);
  EXPECT_EQ(c->value(), before + 42);
  EXPECT_EQ(reg.GetCounter("obstest.counter"), c);  // stable handle
  std::string text = reg.RenderText();
  EXPECT_NE(text.find("obstest.counter "), std::string::npos);
}

TEST(ObsRegistry, HistogramBucketsMatchNinepMetricsMath) {
  // Same log2 bucketing and percentile semantics PR 1 used: bucket 0 holds
  // zeros, bucket i holds floor(log2(v)) == i-1, percentile reports the
  // bucket's upper bound.
  Histogram h("obstest.hist");
  EXPECT_EQ(h.Percentile(50), 0u);  // empty
  h.Record(0);
  EXPECT_EQ(h.Percentile(50), 0u);
  for (int i = 0; i < 99; i++) {
    h.Record(100);  // bucket 7: upper bound 127
  }
  EXPECT_EQ(h.Percentile(99), 127u);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(Histogram::BucketOf(0), 0u);
  EXPECT_EQ(Histogram::BucketOf(1), 1u);
  EXPECT_EQ(Histogram::BucketOf(127), 7u);
  EXPECT_EQ(Histogram::BucketOf(128), 8u);
}

// The satellite fix this PR pins down: the logical Clock tick and the steady
// clock may disagree about order (Set() can move the tick backwards, and
// concurrent emitters capture the two stamps at different instants), so the
// trace must order by its monotonic sequence number and nothing else.
TEST(ObsTracer, OrdersBySequenceEvenWhenTickRunsBackwards) {
  Tracer& t = Tracer::Global();
  Clock clock;
  t.BindClock(&clock);
  t.Clear();
  t.Enable();
  clock.Set(1000);
  t.Emit(EventKind::kInstant, "obstest.late_tick");
  clock.Set(5);  // tick runs backwards; seq must not
  t.Emit(EventKind::kInstant, "obstest.early_tick");
  t.Disable();
  t.UnbindClock(&clock);

  std::vector<TraceEvent> evs = t.Snapshot();
  ASSERT_GE(evs.size(), 2u);
  const TraceEvent& a = evs[evs.size() - 2];
  const TraceEvent& b = evs[evs.size() - 1];
  EXPECT_STREQ(a.name, "obstest.late_tick");
  EXPECT_STREQ(b.name, "obstest.early_tick");
  EXPECT_LT(a.seq, b.seq);       // ordered by seq...
  EXPECT_GT(a.tick, b.tick);     // ...although the tick says otherwise
  EXPECT_EQ(a.tick, 1000u);
  EXPECT_EQ(b.tick, 5u);
}

// Four writer threads race into the ring; the snapshot (and the rendered
// text) must come out strictly seq-ascending with no torn events. Run under
// TSan this is also the data-race-freedom proof for the seqlock publication.
TEST(ObsTracer, ConcurrentWritersProduceStrictSeqOrder) {
  Tracer& t = Tracer::Global();
  t.Clear();
  t.Enable();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;  // 20000 total > kCapacity: exercises wrap
  uint64_t dropped_before = t.dropped();
  uint64_t emitted_before = t.emitted();
  std::vector<std::thread> threads;
  static const char* kNames[kThreads] = {"obstest.w0", "obstest.w1", "obstest.w2",
                                         "obstest.w3"};
  for (int i = 0; i < kThreads; i++) {
    threads.emplace_back([&t, i] {
      for (int n = 0; n < kPerThread; n++) {
        t.Emit(EventKind::kInstant, kNames[i], static_cast<uint64_t>(n));
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  t.Disable();

  EXPECT_EQ(t.emitted() - emitted_before,
            static_cast<uint64_t>(kThreads) * kPerThread);
  std::vector<TraceEvent> evs = t.Snapshot();
  // After the writers join, every slot in the live window is published.
  EXPECT_EQ(evs.size(), Tracer::kCapacity);
  uint64_t prev = 0;
  bool first = true;
  std::set<uint32_t> tids;
  for (const TraceEvent& e : evs) {
    if (!first) {
      EXPECT_GT(e.seq, prev);
    }
    first = false;
    prev = e.seq;
    ASSERT_NE(e.name, nullptr);
    EXPECT_EQ(std::string(e.name).rfind("obstest.w", 0), 0u);
    tids.insert(e.tid);
  }
  EXPECT_GE(tids.size(), 2u);  // the survivors span several writer threads
  // Overflow accounting: every emit whose global seq is past the ring's
  // capacity displaced an older event (seqs run across tests, so the window
  // where drops start is relative to the stream, not to this test).
  uint64_t first_dropping = std::max<uint64_t>(emitted_before, Tracer::kCapacity);
  EXPECT_EQ(t.dropped() - dropped_before, t.emitted() - first_dropping);
}

TEST(ObsTracer, OverflowDropsOldestKeepsNewest) {
  Tracer& t = Tracer::Global();
  t.Clear();
  t.Enable();
  uint64_t start = t.emitted();
  constexpr uint64_t kExtra = 10;
  for (uint64_t i = 0; i < Tracer::kCapacity + kExtra; i++) {
    t.Emit(EventKind::kInstant, "obstest.flood", i);
  }
  t.Disable();
  std::vector<TraceEvent> evs = t.Snapshot();
  ASSERT_EQ(evs.size(), Tracer::kCapacity);
  EXPECT_EQ(evs.front().seq, start + kExtra);   // the oldest kExtra are gone
  EXPECT_EQ(evs.front().arg, kExtra);
  EXPECT_EQ(evs.back().arg, Tracer::kCapacity + kExtra - 1);  // newest kept
}

TEST(ObsSpan, DisabledSpansCostNoEventsEnabledSpansPair) {
  Tracer& t = Tracer::Global();
  t.Clear();
  t.Disable();
  { OBS_SPAN("obstest.quiet"); }
  EXPECT_TRUE(t.Snapshot().empty());

  t.Enable();
  { OBS_SPAN("obstest.loud"); }
  t.Disable();
  std::vector<TraceEvent> evs = t.Snapshot();
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_EQ(evs[0].kind, EventKind::kBegin);
  EXPECT_EQ(evs[1].kind, EventKind::kEnd);
  EXPECT_STREQ(evs[0].name, "obstest.loud");
  EXPECT_STREQ(evs[1].name, "obstest.loud");
  // The span recorded its duration histogram under "<name>.ns".
  EXPECT_GT(Registry::Global().GetHistogram("obstest.loud.ns")->count(), 0u);
}

// A minimal JSON well-formedness checker: enough to prove the Chrome trace
// dump is loadable (balanced structure, legal scalars, no trailing commas).
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view s) : s_(s) {}
  bool Valid() {
    Ws();
    if (!Value()) {
      return false;
    }
    Ws();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) {
      return false;
    }
    char c = s_[pos_];
    if (c == '{') {
      return Object();
    }
    if (c == '[') {
      return Array();
    }
    if (c == '"') {
      return String();
    }
    return Number();
  }
  bool Object() {
    pos_++;  // {
    Ws();
    if (Peek() == '}') {
      pos_++;
      return true;
    }
    while (true) {
      Ws();
      if (!String()) {
        return false;
      }
      Ws();
      if (Peek() != ':') {
        return false;
      }
      pos_++;
      Ws();
      if (!Value()) {
        return false;
      }
      Ws();
      if (Peek() == ',') {
        pos_++;
        continue;
      }
      if (Peek() == '}') {
        pos_++;
        return true;
      }
      return false;
    }
  }
  bool Array() {
    pos_++;  // [
    Ws();
    if (Peek() == ']') {
      pos_++;
      return true;
    }
    while (true) {
      Ws();
      if (!Value()) {
        return false;
      }
      Ws();
      if (Peek() == ',') {
        pos_++;
        continue;
      }
      if (Peek() == ']') {
        pos_++;
        return true;
      }
      return false;
    }
  }
  bool String() {
    if (Peek() != '"') {
      return false;
    }
    pos_++;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        pos_++;
      }
      pos_++;
    }
    if (pos_ >= s_.size()) {
      return false;
    }
    pos_++;
    return true;
  }
  bool Number() {
    size_t start = pos_;
    if (Peek() == '-') {
      pos_++;
    }
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-')) {
      pos_++;
    }
    return pos_ > start;
  }
  void Ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      pos_++;
    }
  }
  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  std::string_view s_;
  size_t pos_ = 0;
};

TEST(ObsTracer, ChromeJsonIsWellFormed) {
  Tracer& t = Tracer::Global();
  t.Clear();
  t.Enable();
  { OBS_SPAN("obstest.json_span"); }
  t.Emit(EventKind::kInstant, "obstest.json_instant", 7);
  t.Emit(EventKind::kCounter, "obstest.json_counter", 3);
  t.Disable();
  std::string json = t.RenderChromeJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  // An empty ring is still a valid document.
  t.Clear();
  EXPECT_TRUE(JsonChecker(t.RenderChromeJson()).Valid());
}

// The /mnt/help/stats byte format, pinned exactly: header line, one
// "op count errs p50us p99us" row per op with traffic (enum order), the
// three scalar totals, the lock-wait line, the socket-layer lines, then the
// outbox-drain line. NinepMetrics is a registry view; its Render() must not
// drift.
TEST(NinepMetricsCompat, StatsByteFormatPinnedExactly) {
  Registry::Global().Reset();
  NinepMetrics m;
  m.RecordOp(NinepOp::kWalk, 0, false);
  m.RecordOp(NinepOp::kWalk, 100, true);  // bucket 7 → upper bound 127us
  m.RecordOp(NinepOp::kRead, 3, false);   // bucket 2 → upper bound 3us
  m.AddBytesIn(5);
  m.AddBytesOut(7);
  EXPECT_EQ(m.Render(),
            "op count errs p50us p99us\n"
            "walk 2 1 127 127\n"
            "read 1 0 3 3\n"
            "bytes_in 5\n"
            "bytes_out 7\n"
            "in_flight 0\n"
            "lock_wait_p99us 0\n"
            "net_accepts 0\n"
            "net_active_conns 0\n"
            "net_reaped 0\n"
            "net_backpressure_stalls 0\n"
            "net_frame_errors 0\n"
            "net_bytes_in 0\n"
            "net_bytes_out 0\n"
            "net_writev_calls 0\n");
  // And the same numbers are visible through the registry's own file format.
  std::string metrics = Registry::Global().RenderText();
  EXPECT_NE(metrics.find("ninep.walk.count 2\n"), std::string::npos);
  EXPECT_NE(metrics.find("ninep.walk.errors 1\n"), std::string::npos);
  EXPECT_NE(metrics.find("ninep.bytes_in 5\n"), std::string::npos);
  EXPECT_NE(metrics.find("ninep.walk.latency_us 2 127 127\n"), std::string::npos);
  m.Reset();
  EXPECT_EQ(m.Render(),
            "op count errs p50us p99us\n"
            "bytes_in 0\nbytes_out 0\nin_flight 0\n"
            "lock_wait_p99us 0\n"
            "net_accepts 0\nnet_active_conns 0\nnet_reaped 0\n"
            "net_backpressure_stalls 0\nnet_frame_errors 0\n"
            "net_bytes_in 0\nnet_bytes_out 0\n"
            "net_writev_calls 0\n");
}

TEST(ObsTracer, RenderTextLinesCarryAllStamps) {
  Tracer& t = Tracer::Global();
  Clock clock;
  clock.Set(671803200);
  t.BindClock(&clock);
  t.Clear();
  t.Enable();
  t.Emit(EventKind::kInstant, "obstest.stamped", 99);
  t.Disable();
  t.UnbindClock(&clock);
  std::string text = t.RenderText();
  // "seq ns tick tid I obstest.stamped 99"
  EXPECT_NE(text.find(" 671803200 "), std::string::npos) << text;
  EXPECT_NE(text.find(" I obstest.stamped 99\n"), std::string::npos) << text;
}

}  // namespace
}  // namespace help
