// P-1: text-substrate performance — gap buffer edits, line bookkeeping, undo,
// and the 1M-line before/after comparison for the incremental line index.
//
// Passing --json (before any --benchmark_* flags are parsed out) appends one
// JSON object as the last line of stdout — the machine-readable contract the
// BENCH_* trajectory files and the CI bench-smoke artifact consume.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/base/strings.h"
#include "src/text/address.h"
#include "src/text/gapbuffer.h"
#include "src/text/text.h"

namespace help {
namespace {

void BM_GapBufferAppend(benchmark::State& state) {
  for (auto _ : state) {
    GapBuffer g;
    for (int i = 0; i < state.range(0); i++) {
      g.Insert(g.size(), U"x");
    }
    benchmark::DoNotOptimize(g.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GapBufferAppend)->Range(256, 16384);

void BM_GapBufferInsertAtPoint(benchmark::State& state) {
  // The editor's hot path: repeated inserts at the same spot (typing).
  GapBuffer g(RuneString(static_cast<size_t>(state.range(0)), 'a'));
  size_t point = static_cast<size_t>(state.range(0)) / 2;
  for (auto _ : state) {
    g.Insert(point, U"t");
    point++;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GapBufferInsertAtPoint)->Range(1024, 65536);

void BM_GapBufferScatterInsert(benchmark::State& state) {
  // Worst case: alternating far-apart inserts force gap moves.
  GapBuffer g(RuneString(static_cast<size_t>(state.range(0)), 'a'));
  bool front = true;
  for (auto _ : state) {
    g.Insert(front ? 0 : g.size(), U"t");
    front = !front;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GapBufferScatterInsert)->Range(1024, 65536);

std::string MakeLines(int n) {
  std::string s;
  for (int i = 0; i < n; i++) {
    s += "a line of source text, about like this one here\n";
  }
  return s;
}

void BM_TextLineStart(benchmark::State& state) {
  Text t(MakeLines(static_cast<int>(state.range(0))));
  size_t line = static_cast<size_t>(state.range(0)) / 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.LineStart(line));
  }
}
BENCHMARK(BM_TextLineStart)->Range(64, 4096);

// --- 1M-line document: indexed queries vs the pre-index scan -----------------
//
// The *_Scan benchmarks preserve the pre-LineIndex implementation verbatim
// (an O(n) rune walk per query); the *_Indexed ones go through Text's line
// index. Running the binary prints both, so the before/after ratio for the
// production-scale case is always visible in the same report.

constexpr int kBigLines = 1'000'000;

std::string MakeShortLines(int n) {
  std::string s;
  s.reserve(static_cast<size_t>(n) * 10);
  for (int i = 0; i < n; i++) {
    s += "line text\n";
  }
  return s;
}

const Text& BigText() {
  static const Text* t = new Text(MakeShortLines(kBigLines));
  return *t;
}

// Pre-index implementations (what Text::LineAt / Text::LineStart used to do).
size_t ScanLineAt(const Text& t, size_t pos) {
  size_t sz = t.size();
  pos = std::min(pos, sz);
  size_t line = 1;
  for (size_t i = 0; i < pos; i++) {
    if (t.At(i) == '\n') {
      line++;
    }
  }
  return line;
}

size_t ScanLineStart(const Text& t, size_t line) {
  if (line <= 1) {
    return 0;
  }
  size_t sz = t.size();
  size_t cur = 1;
  for (size_t i = 0; i < sz; i++) {
    if (t.At(i) == '\n') {
      cur++;
      if (cur == line) {
        return i + 1;
      }
    }
  }
  size_t i = sz;
  while (i > 0 && t.At(i - 1) != '\n') {
    i--;
  }
  return i;
}

struct Lcg {
  uint32_t state = 12345;
  uint32_t Next() {
    state = state * 1664525 + 1013904223;
    return state >> 8;
  }
};

void BM_BigLineAtRandom_Scan(benchmark::State& state) {
  const Text& t = BigText();
  Lcg rng;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ScanLineAt(t, rng.Next() % t.size()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BigLineAtRandom_Scan);

void BM_BigLineAtRandom_Indexed(benchmark::State& state) {
  const Text& t = BigText();
  Lcg rng;
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.LineAt(rng.Next() % t.size()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BigLineAtRandom_Indexed);

void BM_BigLineStartRandom_Scan(benchmark::State& state) {
  const Text& t = BigText();
  Lcg rng;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ScanLineStart(t, 1 + rng.Next() % kBigLines));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BigLineStartRandom_Scan);

void BM_BigLineStartRandom_Indexed(benchmark::State& state) {
  const Text& t = BigText();
  Lcg rng;
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.LineStart(1 + rng.Next() % kBigLines));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BigLineStartRandom_Indexed);

// `name:line` address resolution on the big body (the Open errs.c:27 path).
void BM_BigAddressResolve(benchmark::State& state) {
  const Text& t = BigText();
  Lcg rng;
  for (auto _ : state) {
    std::string addr = std::to_string(1 + rng.Next() % kBigLines);
    auto s = EvalAddress(t, addr);
    benchmark::DoNotOptimize(s.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BigAddressResolve);

// Appending to a 1M-line body (the Errors-window / bodyapp path): the index
// must keep per-append cost independent of document size.
void BM_BigAppendLine(benchmark::State& state) {
  static Text* t = new Text(MakeShortLines(kBigLines));
  for (auto _ : state) {
    t->InsertNoUndo(t->size(), U"appended error line\n");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BigAppendLine);

// The 9P body-read window: indexed byte-range read vs encode-everything.
void BM_BigBodyReadWindow_Scan(benchmark::State& state) {
  const Text& t = BigText();
  Lcg rng;
  for (auto _ : state) {
    std::string all = t.Utf8();
    benchmark::DoNotOptimize(all.substr(rng.Next() % all.size(), 8192));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BigBodyReadWindow_Scan);

void BM_BigBodyReadWindow_Indexed(benchmark::State& state) {
  const Text& t = BigText();
  Lcg rng;
  uint64_t total = t.Utf8Bytes();
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.Utf8Substr(rng.Next() % total, 8192));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BigBodyReadWindow_Indexed);

// A 512 B 9P body read on a 32 KiB body: the copying reader and the
// zero-copy one plus its encode, at random byte offsets. Ascii is browse's
// body; Mixed draws a third of its words from multi-byte UTF-8, as crowd's
// bodies do.
const Text& ReadBody(bool mixed) {
  static const char* const kAscii[] = {"window", "body", "tag", "the", "exec", "help",
                                       "file", "mouse", "button", "column"};
  static const char* const kMixed[] = {"héllo", "naïve", "Grüße", "日本語", "αβγ",
                                       "привет", "€uro", "😀"};
  static const Text* texts[2] = {nullptr, nullptr};
  if (texts[mixed] == nullptr) {
    Lcg rng;
    std::string s;
    while (s.size() < 32 * 1024) {
      s += mixed && rng.Next() % 3 == 0 ? kMixed[rng.Next() % std::size(kMixed)]
                                        : kAscii[rng.Next() % std::size(kAscii)];
      s += rng.Next() % 8 == 0 ? '\n' : ' ';
    }
    texts[mixed] = new Text(s);
  }
  return *texts[mixed];
}

void BodyRead512(benchmark::State& state, bool mixed) {
  const Text& t = ReadBody(mixed);
  Lcg rng;
  uint64_t total = t.Utf8Bytes();
  std::string payload;
  for (auto _ : state) {
    uint64_t off = rng.Next() % (total - 512);
    benchmark::DoNotOptimize(t.Utf8Substr(off, 512));
    Text::GatherResult g = t.GatherUtf8(off, 512);
    payload.assign(g.prefix);
    AppendUtf8FromRunes(g.runes, &payload);
    payload += g.suffix;
    benchmark::DoNotOptimize(payload.data());
  }
  state.SetItemsProcessed(state.iterations());
}
void BM_BodyRead512_Ascii(benchmark::State& state) { BodyRead512(state, false); }
void BM_BodyRead512_Mixed(benchmark::State& state) { BodyRead512(state, true); }
BENCHMARK(BM_BodyRead512_Ascii);
BENCHMARK(BM_BodyRead512_Mixed);

void BM_TextUndoRedoCycle(benchmark::State& state) {
  Text t(MakeLines(100));
  for (auto _ : state) {
    t.BeginChange();
    t.Insert(0, U"edit ");
    t.Undo(nullptr);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TextUndoRedoCycle);

void BM_TextExpandFilename(benchmark::State& state) {
  Text t("see /usr/rob/src/help/exec.c:213 for the bug\n");
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.ExpandFilename(10));
  }
}
BENCHMARK(BM_TextExpandFilename);

// Console output without color codes (they would prefix the JSON line),
// plus a collected (name, per-iteration time, items/sec) record per run for
// the trailing JSON line.
class JsonLineReporter : public benchmark::ConsoleReporter {
 public:
  JsonLineReporter() : ConsoleReporter(OO_Tabular) {}

  struct Entry {
    std::string name;
    double real_time;  // adjusted per-iteration, in the run's time unit
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
    std::printf("{\"bench\":\"perf_text\",\"runs\":[%s]}\n", runs.c_str());
  }
  benchmark::Shutdown();
  return 0;
}
