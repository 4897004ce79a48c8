// P-3: observability cost — what the tracing subsystem charges the hot paths.
//
// Three groups:
//   1. Primitive costs: a Span / instant / counter with tracing disabled
//      (the price every instrumented call site pays, always) and enabled
//      (the price of actually capturing).
//   2. The perf_text hot path (big-document appends, the BM_BigAppendLine
//      shape) with tracing off vs on — the acceptance gate is that the
//      *off* variant stays within 3% of the uninstrumented baseline, which
//      is visible by comparing BM_TextAppend_TracingOff here against
//      BM_BigAppendLine in perf_text on the same machine.
//   3. The perf_ninep hot path (full byte path: walk/open/read/clunk over
//      the wire) off vs on.
//
//   4. The socket read path (a real NinepListener + unix socket, the PR 8
//      request-tracing instrumentation live on every frame) off vs on — the
//      acceptance gate is TracingOn within 5% of TracingOff.
//
// Run: ./build/bench/perf_obs  — compare *_TracingOff vs *_TracingOn rows.
// Passing --json appends one machine-readable line with every run, for the
// CI bench-smoke artifact.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/base/strings.h"
#include "src/core/help.h"
#include "src/fs/listener.h"
#include "src/fs/ninep.h"
#include "src/fs/server.h"
#include "src/fs/transport.h"
#include "src/obs/trace.h"
#include "src/text/text.h"

namespace help {
namespace {

using obs::EventKind;
using obs::Registry;
using obs::Tracer;

// --- 1. Primitive costs ------------------------------------------------------

void BM_SpanDisabled(benchmark::State& state) {
  Tracer::Global().Disable();
  for (auto _ : state) {
    OBS_SPAN("perfobs.span");
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanDisabled);

void BM_SpanEnabled(benchmark::State& state) {
  Tracer::Global().Enable();
  for (auto _ : state) {
    OBS_SPAN("perfobs.span");
    benchmark::ClobberMemory();
  }
  Tracer::Global().Disable();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanEnabled);

void BM_InstantDisabled(benchmark::State& state) {
  Tracer::Global().Disable();
  for (auto _ : state) {
    OBS_INSTANT("perfobs.instant", 1);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InstantDisabled);

void BM_InstantEnabled(benchmark::State& state) {
  Tracer::Global().Enable();
  for (auto _ : state) {
    OBS_INSTANT("perfobs.instant", 1);
    benchmark::ClobberMemory();
  }
  Tracer::Global().Disable();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InstantEnabled);

void BM_CounterAdd(benchmark::State& state) {
  for (auto _ : state) {
    OBS_COUNT("perfobs.counter", 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterAdd);

void BM_HistogramRecord(benchmark::State& state) {
  obs::Histogram* h = Registry::Global().GetHistogram("perfobs.hist");
  uint64_t v = 0;
  for (auto _ : state) {
    h->Record(v++);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

// --- 2. The text hot path, off vs on -----------------------------------------

std::string MakeShortLines(int n) {
  std::string s;
  s.reserve(static_cast<size_t>(n) * 10);
  for (int i = 0; i < n; i++) {
    s += "line text\n";
  }
  return s;
}

constexpr int kBigLines = 1'000'000;

// Same shape as perf_text's BM_BigAppendLine: appends to a 1M-line document
// through Text::InsertNoUndo — the instrumented DoInsert funnel.
void BM_TextAppend_TracingOff(benchmark::State& state) {
  Tracer::Global().Disable();
  static Text* t = new Text(MakeShortLines(kBigLines));
  for (auto _ : state) {
    t->InsertNoUndo(t->size(), U"appended error line\n");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TextAppend_TracingOff);

void BM_TextAppend_TracingOn(benchmark::State& state) {
  Tracer::Global().Enable();
  static Text* t = new Text(MakeShortLines(kBigLines));
  for (auto _ : state) {
    t->InsertNoUndo(t->size(), U"appended error line\n");
  }
  Tracer::Global().Disable();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TextAppend_TracingOn);

// --- 3. The 9P byte path, off vs on ------------------------------------------

// One full wire round: walk + open + read + clunk of /mnt/help/index, through
// decode/dispatch/encode with all their spans.
void NinepRound(NinepClient& client) {
  auto r = client.ReadFile("/mnt/help/index");
  benchmark::DoNotOptimize(r.ok());
}

void BM_NinepReadFile_TracingOff(benchmark::State& state) {
  Tracer::Global().Disable();
  Help h(Help::Options{.install_userland = false});
  NinepServer::SessionId sid = h.ninep().OpenSession();
  NinepClient client(h.ninep().TransportFor(sid));
  if (!client.Connect("perf").ok()) {
    state.SkipWithError("connect failed");
    return;
  }
  for (auto _ : state) {
    NinepRound(client);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NinepReadFile_TracingOff);

void BM_NinepReadFile_TracingOn(benchmark::State& state) {
  Help h(Help::Options{.install_userland = false});
  NinepServer::SessionId sid = h.ninep().OpenSession();
  NinepClient client(h.ninep().TransportFor(sid));
  if (!client.Connect("perf").ok()) {
    state.SkipWithError("connect failed");
    return;
  }
  Tracer::Global().Enable();
  for (auto _ : state) {
    NinepRound(client);
  }
  Tracer::Global().Disable();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NinepReadFile_TracingOn);

// --- 4. The socket read path, off vs on --------------------------------------

// The same wire round through a real listener: frame reassembly, the inbox
// hop to a worker, dispatch, and the outbox flush — i.e. every point where
// PR 8 stamps a request id and measures a phase. TracingOn must stay within
// 5% of TracingOff (the per-frame cost with capture off is a few relaxed
// loads; with capture on, a handful of ring writes per request).
void SocketRound(benchmark::State& state, bool tracing) {
  Help h(Help::Options{.install_userland = false});
  NinepListener lis(&h.ninep());
  std::string path = StrFormat("perf_obs.%d.sock", getpid());
  if (!lis.ListenUnix(path).ok() || !lis.Start().ok()) {
    state.SkipWithError("listen failed");
    return;
  }
  auto tr = SocketTransport::ConnectUnix(path);
  if (!tr.ok()) {
    state.SkipWithError("connect failed");
    return;
  }
  NinepClient client(tr.value()->AsTransport());
  if (!client.Connect("perf").ok()) {
    state.SkipWithError("handshake failed");
    return;
  }
  if (tracing) {
    Tracer::Global().Enable();
  }
  for (auto _ : state) {
    NinepRound(client);
  }
  Tracer::Global().Disable();
  state.SetItemsProcessed(state.iterations());
  lis.Stop();
  ::unlink(path.c_str());
}

void BM_SocketReadFile_TracingOff(benchmark::State& state) {
  SocketRound(state, /*tracing=*/false);
}
BENCHMARK(BM_SocketReadFile_TracingOff);

void BM_SocketReadFile_TracingOn(benchmark::State& state) {
  SocketRound(state, /*tracing=*/true);
}
BENCHMARK(BM_SocketReadFile_TracingOn);

// Console output without color codes (they would prefix the JSON line),
// plus a collected (name, per-iteration time, items/sec) record per run for
// the trailing JSON line (same shape as perf_text's).
class JsonLineReporter : public benchmark::ConsoleReporter {
 public:
  JsonLineReporter() : ConsoleReporter(OO_Tabular) {}

  struct Entry {
    std::string name;
    double real_time;
    double items_per_second;
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) {
        continue;
      }
      Entry e;
      e.name = run.benchmark_name();
      e.real_time = run.GetAdjustedRealTime();
      auto it = run.counters.find("items_per_second");
      e.items_per_second = it != run.counters.end() ? it->second.value : 0.0;
      entries_.push_back(std::move(e));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

}  // namespace
}  // namespace help

int main(int argc, char** argv) {
  bool json = false;
  // Strip --json before google-benchmark sees (and rejects) it.
  std::vector<char*> args;
  for (int i = 0; i < argc; i++) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  // The line-collecting reporter only for --json; otherwise the default one,
  // which honours --benchmark_format.
  help::JsonLineReporter reporter;
  benchmark::RunSpecifiedBenchmarks(json ? &reporter : nullptr);
  if (json) {
    std::string runs;
    for (const auto& e : reporter.entries()) {
      if (!runs.empty()) {
        runs += ",";
      }
      runs += help::StrFormat(
          "{\"name\":\"%s\",\"real_time\":%.1f,\"items_per_second\":%.1f}",
          e.name.c_str(), e.real_time, e.items_per_second);
    }
    std::printf("{\"bench\":\"perf_obs\",\"runs\":[%s]}\n", runs.c_str());
  }
  benchmark::Shutdown();
  return 0;
}
