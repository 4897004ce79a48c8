#include "src/obs/trace.h"

#include <chrono>
#include <cstdio>

namespace help {
namespace obs {

// --- Histogram ---------------------------------------------------------------

size_t Histogram::BucketOf(uint64_t v) {
  size_t b = 0;
  while (v > 0 && b < kBuckets - 1) {
    v >>= 1;
    b++;
  }
  return b;
}

uint64_t Histogram::count() const {
  uint64_t total = 0;
  for (const auto& b : buckets_) {
    total += b.load(std::memory_order_relaxed);
  }
  return total;
}

std::array<uint64_t, Histogram::kBuckets> Histogram::Snapshot() const {
  std::array<uint64_t, kBuckets> out{};
  for (size_t i = 0; i < kBuckets; i++) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

uint64_t Histogram::PercentileOf(const std::array<uint64_t, kBuckets>& h, double p) {
  uint64_t total = 0;
  for (uint64_t c : h) {
    total += c;
  }
  if (total == 0) {
    return 0;
  }
  uint64_t rank = static_cast<uint64_t>(p / 100.0 * static_cast<double>(total));
  if (rank >= total) {
    rank = total - 1;
  }
  uint64_t seen = 0;
  for (size_t b = 0; b < kBuckets; b++) {
    seen += h[b];
    if (seen > rank) {
      return b == 0 ? 0 : (1ull << b) - 1;  // bucket upper bound
    }
  }
  return (1ull << (kBuckets - 1)) - 1;
}

uint64_t Histogram::Percentile(double p) const {
  return PercentileOf(Snapshot(), p);
}

void Histogram::Reset() {
  for (auto& b : buckets_) {
    b.store(0, std::memory_order_relaxed);
  }
}

// --- Registry ----------------------------------------------------------------

Registry& Registry::Global() {
  static Registry* r = new Registry;
  return *r;
}

Counter* Registry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>(std::string(name)))
             .first;
  }
  return it->second.get();
}

Histogram* Registry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::make_unique<Histogram>(std::string(name)))
             .first;
  }
  return it->second.get();
}

std::string Registry::RenderText() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::string out;
  char line[192];
  for (const auto& [name, c] : counters_) {
    std::snprintf(line, sizeof(line), "%s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(c->value()));
    out += line;
  }
  for (const auto& [name, h] : histograms_) {
    uint64_t n = h->count();
    if (n == 0) {
      continue;
    }
    std::snprintf(line, sizeof(line), "%s %llu %llu %llu\n", name.c_str(),
                  static_cast<unsigned long long>(n),
                  static_cast<unsigned long long>(h->Percentile(50)),
                  static_cast<unsigned long long>(h->Percentile(99)));
    out += line;
  }
  return out;
}

void Registry::Reset() {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& [name, c] : counters_) {
    c->Store(0);
  }
  for (const auto& [name, h] : histograms_) {
    h->Reset();
  }
}

// --- Tracer ------------------------------------------------------------------

Tracer& Tracer::Global() {
  static Tracer* t = new Tracer;
  return *t;
}

Tracer::Tracer()
    : emitted_counter_(Registry::Global().GetCounter("trace.events")),
      dropped_counter_(Registry::Global().GetCounter("trace.dropped")),
      epoch_ns_(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now().time_since_epoch())
              .count())),
      slots_(std::make_unique<Slot[]>(kCapacity)) {
  static_assert((kCapacity & (kCapacity - 1)) == 0, "capacity must be a power of two");
}

uint64_t Tracer::NowNs() const {
  uint64_t now = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  return now - epoch_ns_;
}

uint32_t Tracer::ThreadId() {
  static std::atomic<uint32_t> next_tid{0};
  thread_local uint32_t tid = next_tid.fetch_add(1, std::memory_order_relaxed) + 1;
  return tid;
}

void Tracer::UnbindClock(const Clock* c) {
  const Clock* expected = c;
  clock_.compare_exchange_strong(expected, nullptr, std::memory_order_acq_rel);
}

uint64_t Tracer::dropped() const { return dropped_counter_->value(); }

void Tracer::Emit(EventKind kind, const char* name, uint64_t arg) {
  EmitAt(kind, name, arg, 0, NowNs());
}

void Tracer::SetThreadName(std::string name) {
  std::lock_guard<std::mutex> lk(names_mu_);
  thread_names_[ThreadId()] = std::move(name);
}

std::map<uint32_t, std::string> Tracer::ThreadNames() const {
  std::lock_guard<std::mutex> lk(names_mu_);
  return thread_names_;
}

void Tracer::EmitAt(EventKind kind, const char* name, uint64_t arg,
                    uint64_t rid, uint64_t ns) {
  if (!enabled()) {
    return;
  }
  uint64_t seq = next_.fetch_add(1, std::memory_order_acq_rel);
  Slot& s = slots_[seq & (kCapacity - 1)];
  // Claim the slot by CAS rather than a blind store: a writer that stalled
  // after reserving seq can be lapped by one holding seq + kCapacity (same
  // slot, one ring revolution later). The lapped writer must yield — if it
  // stored last it would leave the older event in the slot forever. The CAS
  // also doubles as the mid-write mark so readers reject torn payloads.
  uint64_t cur = s.seq.load(std::memory_order_acquire);
  for (;;) {
    if (cur != ~0ull) {
      if ((cur & ~kBusyBit) > seq) {
        // Lapped: the slot already carries (or is being given) a newer
        // event. Ours is by definition the oldest live event, so drop it.
        // Accounting stays "one drop per emit past capacity": the lapping
        // writer's emit already paid for the displacement.
        emitted_counter_->Add();
        if (seq >= kCapacity) {
          dropped_counter_->Add();
        }
        return;
      }
      if ((cur & kBusyBit) != 0) {
        // An older writer is mid-publish. Claiming now would interleave two
        // payloads and let its final store resurrect the older seq, so wait
        // for its release store (a handful of instructions away).
        cur = s.seq.load(std::memory_order_acquire);
        continue;
      }
    }
    if (s.seq.compare_exchange_weak(cur, seq | kBusyBit,
                                    std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
      break;
    }
  }
  const Clock* c = clock_.load(std::memory_order_acquire);
  s.ns.store(ns, std::memory_order_relaxed);
  s.tick.store(c != nullptr ? c->Now() : 0, std::memory_order_relaxed);
  s.arg.store(arg, std::memory_order_relaxed);
  s.rid.store(rid, std::memory_order_relaxed);
  s.name.store(name, std::memory_order_relaxed);
  s.tid.store(ThreadId(), std::memory_order_relaxed);
  s.kind.store(static_cast<uint8_t>(kind), std::memory_order_relaxed);
  s.seq.store(seq, std::memory_order_release);
  emitted_counter_->Add();
  if (seq >= kCapacity) {
    dropped_counter_->Add();  // this write overwrote event seq - kCapacity
  }
}

void Tracer::Clear() {
  // Invalidate every quiescent slot. A slot whose writer is mid-publish is
  // left alone — its event postdates the clear anyway, and blanking it would
  // let a second writer claim the slot while the first is still storing,
  // reintroducing the interleaved-payload race the claim CAS exists to
  // prevent. Likewise, if a writer claims between our load and CAS, the CAS
  // fails and we keep its fresh event.
  for (size_t i = 0; i < kCapacity; i++) {
    uint64_t cur = slots_[i].seq.load(std::memory_order_acquire);
    if (cur == ~0ull || (cur & kBusyBit) != 0) {
      continue;
    }
    slots_[i].seq.compare_exchange_strong(cur, ~0ull, std::memory_order_acq_rel,
                                          std::memory_order_relaxed);
  }
}

std::vector<TraceEvent> Tracer::Snapshot() const {
  uint64_t end = next_.load(std::memory_order_acquire);
  uint64_t begin = end > kCapacity ? end - kCapacity : 0;
  std::vector<TraceEvent> out;
  out.reserve(static_cast<size_t>(end - begin));
  for (uint64_t q = begin; q < end; q++) {
    const Slot& s = slots_[q & (kCapacity - 1)];
    if (s.seq.load(std::memory_order_acquire) != q) {
      continue;  // overwritten, cleared, or mid-write
    }
    TraceEvent e;
    e.seq = q;
    e.ns = s.ns.load(std::memory_order_relaxed);
    e.tick = s.tick.load(std::memory_order_relaxed);
    e.arg = s.arg.load(std::memory_order_relaxed);
    e.rid = s.rid.load(std::memory_order_relaxed);
    e.tid = s.tid.load(std::memory_order_relaxed);
    e.kind = static_cast<EventKind>(s.kind.load(std::memory_order_relaxed));
    e.name = s.name.load(std::memory_order_relaxed);
    if (s.seq.load(std::memory_order_acquire) != q) {
      continue;  // a writer raced us; the payload may be torn — drop it
    }
    out.push_back(e);
  }
  return out;  // ascending by construction: q only increases
}

namespace {

char KindChar(EventKind k) {
  switch (k) {
    case EventKind::kBegin:
      return 'B';
    case EventKind::kEnd:
      return 'E';
    case EventKind::kInstant:
      return 'I';
    case EventKind::kCounter:
      return 'C';
    case EventKind::kComplete:
      return 'X';
  }
  return '?';
}

const char* KindPh(EventKind k) {
  switch (k) {
    case EventKind::kBegin:
      return "B";
    case EventKind::kEnd:
      return "E";
    case EventKind::kInstant:
      return "i";
    case EventKind::kCounter:
      return "C";
    case EventKind::kComplete:
      return "X";
  }
  return "i";
}

}  // namespace

std::string Tracer::RenderText() const {
  std::string out;
  char line[224];
  for (const TraceEvent& e : Snapshot()) {
    // Request-scoped events carry one extra trailing column, the trace id in
    // hex; plain events have the seven columns "seq ns tick tid kind name arg".
    if (e.rid != 0) {
      std::snprintf(line, sizeof(line), "%llu %llu %llu %u %c %s %llu 0x%llx\n",
                    static_cast<unsigned long long>(e.seq),
                    static_cast<unsigned long long>(e.ns),
                    static_cast<unsigned long long>(e.tick), e.tid,
                    KindChar(e.kind), e.name != nullptr ? e.name : "?",
                    static_cast<unsigned long long>(e.arg),
                    static_cast<unsigned long long>(e.rid));
    } else {
      std::snprintf(line, sizeof(line), "%llu %llu %llu %u %c %s %llu\n",
                    static_cast<unsigned long long>(e.seq),
                    static_cast<unsigned long long>(e.ns),
                    static_cast<unsigned long long>(e.tick), e.tid,
                    KindChar(e.kind), e.name != nullptr ? e.name : "?",
                    static_cast<unsigned long long>(e.arg));
    }
    out += line;
  }
  return out;
}

std::string Tracer::RenderChromeJson() const {
  // Chrome trace-event format (the JSON Array Format wrapped in an object),
  // loadable in chrome://tracing and Perfetto. Event names are C string
  // literals from instrumentation sites — no JSON escaping is required for
  // them; thread names come from SetThreadName callers and are plain
  // identifiers by convention.
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char buf[320];
  bool first = true;
  // Metadata first: name the process and every registered thread so the
  // lanes are readable.
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
                "\"args\":{\"name\":\"help\"}}");
  out += buf;
  first = false;
  for (const auto& [tid, name] : ThreadNames()) {
    std::snprintf(buf, sizeof(buf),
                  ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"tid\":%u,\"args\":{\"name\":\"%s\"}}",
                  tid, name.c_str());
    out += buf;
  }
  // Request trace ids become flow events: the first sighting of a rid opens
  // the flow ("s"), every later phase continues it ("t"), so one request
  // renders as a connected arrow chain across its phases.
  std::map<uint64_t, bool> seen_rid;
  for (const TraceEvent& e : Snapshot()) {
    double ts_us = static_cast<double>(e.ns) / 1000.0;
    const char* extra = e.kind == EventKind::kInstant ? ",\"s\":\"t\"" : "";
    char dur[48] = "";
    if (e.kind == EventKind::kComplete) {
      std::snprintf(dur, sizeof(dur), ",\"dur\":%.3f",
                    static_cast<double>(e.arg) / 1000.0);
    }
    char rid[48] = "";
    if (e.rid != 0) {
      std::snprintf(rid, sizeof(rid), ",\"rid\":\"0x%llx\"",
                    static_cast<unsigned long long>(e.rid));
    }
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"help\",\"ph\":\"%s\",\"pid\":1,"
                  "\"tid\":%u,\"ts\":%.3f%s%s,\"args\":{\"seq\":%llu,"
                  "\"tick\":%llu,\"arg\":%llu%s}}",
                  first ? "" : ",", e.name != nullptr ? e.name : "?", KindPh(e.kind),
                  e.tid, ts_us, extra, dur, static_cast<unsigned long long>(e.seq),
                  static_cast<unsigned long long>(e.tick),
                  static_cast<unsigned long long>(e.arg), rid);
    out += buf;
    first = false;
    if (e.rid != 0 && e.kind != EventKind::kCounter) {
      bool& opened = seen_rid[e.rid];
      std::snprintf(buf, sizeof(buf),
                    ",{\"name\":\"req\",\"cat\":\"help\",\"ph\":\"%s\",\"pid\":1,"
                    "\"tid\":%u,\"ts\":%.3f,\"id\":\"0x%llx\"%s}",
                    opened ? "t" : "s", e.tid, ts_us,
                    static_cast<unsigned long long>(e.rid),
                    opened ? ",\"bp\":\"e\"" : "");
      out += buf;
      opened = true;
    }
  }
  out += "]}\n";
  return out;
}

std::string Tracer::RenderStatus() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "tracing %s\nevents %llu\ndropped %llu\ncapacity %zu\n",
                enabled() ? "on" : "off",
                static_cast<unsigned long long>(emitted()),
                static_cast<unsigned long long>(dropped()), kCapacity);
  return buf;
}

// --- Spans -------------------------------------------------------------------

SpanSite::SpanSite(const char* site_name)
    : name(site_name),
      hist(Registry::Global().GetHistogram(std::string(site_name) + ".ns")) {}

void Span::Begin() {
  Tracer& t = Tracer::Global();
  start_ns_ = t.NowNs();
  t.Emit(EventKind::kBegin, site_->name, 0);
}

void Span::End() {
  Tracer& t = Tracer::Global();
  uint64_t dur = t.NowNs() - start_ns_;
  t.Emit(EventKind::kEnd, site_->name, dur);
  site_->hist->Record(dur);
}

}  // namespace obs
}  // namespace help
