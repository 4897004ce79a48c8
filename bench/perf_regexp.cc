// P-2: regexp engine performance — compile, search, the Pike VM's linearity,
// and the zero-copy streaming search layer against its materialized baseline.
//
// The *Stream benches run over a Text's gap-buffer spans with the literal
// prefilter (the production path); the paired *Materialized benches
// reproduce the pre-streaming behavior — copy the whole document out of the
// gap buffer, then run the plain Pike VM (Regexp::VmSearch) over it.
//
// Passing --json (stripped before google-benchmark parses flags) appends one
// JSON object as the last line of stdout, including a `speedups` map computed
// from each Stream/Materialized pair — the CI bench-smoke artifact consumes
// it, and the ≥10x literal-search acceptance gate reads `speedups.literal`.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/base/strings.h"
#include "src/regexp/cache.h"
#include "src/regexp/regexp.h"
#include "src/text/search.h"
#include "src/text/text.h"

namespace help {
namespace {

RuneString MakeText(int n) {
  RuneString t;
  const char* words[] = {"the", "quick", "textinsert", "strlen", "window", "n"};
  for (int i = 0; i < n; i++) {
    for (char c : std::string(words[i % 6])) {
      t.push_back(static_cast<Rune>(c));
    }
    t.push_back(i % 11 == 0 ? '\n' : ' ');
  }
  return t;
}

// A ~1.6M-rune document with a unique needle near the end, so a literal
// search must cross essentially the whole body. The gap is parked mid-file —
// the adversarial position for span-aware scanning.
constexpr int kBigWords = 200000;
constexpr const char* kNeedle = "needle_so_rare";

const Text& BigDoc() {
  static const Text* doc = [] {
    RuneString body = MakeText(kBigWords);
    body += RunesFromUtf8(kNeedle);
    body += RunesFromUtf8("\ntail line\n");
    Text* t = new Text;
    t->SetAll(Utf8FromRunes(body));
    t->InsertNoUndo(body.size() / 2, U"x");  // park the gap mid-document
    t->DeleteNoUndo(body.size() / 2, 1);
    return t;
  }();
  return *doc;
}

const Regexp& CompiledOrDie(const char* pattern) {
  static std::vector<std::shared_ptr<const Regexp>>* keep =
      new std::vector<std::shared_ptr<const Regexp>>;
  auto re = RegexpCache::Global().Get(pattern);
  if (!re.ok()) {
    std::fprintf(stderr, "bad pattern %s\n", pattern);
    std::abort();
  }
  keep->push_back(re.value());
  return *keep->back();
}

void BM_RegexpCompile(benchmark::State& state) {
  for (auto _ : state) {
    auto re = Regexp::Compile("(a|b)*c[d-f]+g?");
    benchmark::DoNotOptimize(re.ok());
  }
}
BENCHMARK(BM_RegexpCompile);

void BM_RegexpCacheGet(benchmark::State& state) {
  // The Look/plumb shape: the same pattern re-resolved on every gesture.
  RegexpCache cache;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Get("(a|b)*c[d-f]+g?").ok());
  }
}
BENCHMARK(BM_RegexpCacheGet);

// --- Stream vs materialized pairs over the ~1.6M-rune document -------------

void RunStream(benchmark::State& state, const char* pattern) {
  const Text& t = BigDoc();
  const Regexp& re = CompiledOrDie(pattern);
  for (auto _ : state) {
    auto m = StreamSearch(t, re, 0);
    benchmark::DoNotOptimize(m.has_value());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(t.size()));
}

void RunMaterialized(benchmark::State& state, const char* pattern) {
  const Text& t = BigDoc();
  const Regexp& re = CompiledOrDie(pattern);
  for (auto _ : state) {
    RuneString copy = t.ReadAll();  // what every search paid before streaming
    auto m = re.VmSearch(RuneStringView(copy), 0);
    benchmark::DoNotOptimize(m.has_value());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(t.size()));
}

void BM_LiteralStream(benchmark::State& state) { RunStream(state, kNeedle); }
BENCHMARK(BM_LiteralStream);
void BM_LiteralMaterialized(benchmark::State& state) {
  RunMaterialized(state, kNeedle);
}
BENCHMARK(BM_LiteralMaterialized);

// A required prefix but no literal-only bypass: BMH skips to candidates, the
// VM finishes each one.
void BM_RegexpStream(benchmark::State& state) {
  RunStream(state, "needle_(so|very)_rare");
}
BENCHMARK(BM_RegexpStream);
void BM_RegexpMaterialized(benchmark::State& state) {
  RunMaterialized(state, "needle_(so|very)_rare");
}
BENCHMARK(BM_RegexpMaterialized);

// ^-anchored: the streaming side enumerates line starts and prechecks the
// literal; the materialized side feeds every rune through the VM.
void BM_AnchoredStream(benchmark::State& state) {
  RunStream(state, "^tail");
}
BENCHMARK(BM_AnchoredStream);
void BM_AnchoredMaterialized(benchmark::State& state) {
  RunMaterialized(state, "^tail");
}
BENCHMARK(BM_AnchoredMaterialized);

void BM_RegexpClassSearch(benchmark::State& state) {
  auto re = Regexp::Compile("[0-9][0-9]*");
  RuneString text = MakeText(static_cast<int>(state.range(0)));
  text += RunesFromUtf8("176153");
  for (auto _ : state) {
    benchmark::DoNotOptimize(re.value().Search(RuneStringView(text)));
  }
  state.SetItemsProcessed(state.iterations() * text.size());
}
BENCHMARK(BM_RegexpClassSearch)->Range(256, 16384);

void BM_RegexpPathological(benchmark::State& state) {
  // a?a?a?...aaa... — exponential for backtrackers, linear for the Pike VM.
  int n = static_cast<int>(state.range(0));
  std::string pattern;
  for (int i = 0; i < n; i++) {
    pattern += "a?";
  }
  pattern += std::string(static_cast<size_t>(n), 'a');
  auto re = Regexp::Compile(pattern);
  RuneString text(static_cast<size_t>(n), 'a');
  for (auto _ : state) {
    benchmark::DoNotOptimize(re.value().Search(RuneStringView(text)));
  }
}
BENCHMARK(BM_RegexpPathological)->DenseRange(8, 24, 8);

// Console output without color codes (they would prefix the JSON line),
// plus a collected (name, per-iteration time, items/sec) record per run for
// the trailing JSON line (perf_text idiom).
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

double TimeOf(const std::vector<JsonLineReporter::Entry>& entries,
              const char* name) {
  for (const auto& e : entries) {
    if (e.name == name) {
      return e.real_time;
    }
  }
  return 0.0;
}

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
    // Stream-vs-materialized speedups for whichever pairs ran (0 when a side
    // was filtered out).
    struct Pair {
      const char* key;
      const char* stream;
      const char* materialized;
    };
    const Pair kPairs[] = {
        {"literal", "BM_LiteralStream", "BM_LiteralMaterialized"},
        {"regexp", "BM_RegexpStream", "BM_RegexpMaterialized"},
        {"anchored", "BM_AnchoredStream", "BM_AnchoredMaterialized"},
    };
    std::string speedups;
    for (const Pair& p : kPairs) {
      double s = help::TimeOf(reporter.entries(), p.stream);
      double m = help::TimeOf(reporter.entries(), p.materialized);
      if (!speedups.empty()) {
        speedups += ",";
      }
      speedups += help::StrFormat("\"%s\":%.1f", p.key, s > 0.0 ? m / s : 0.0);
    }
    std::printf("{\"bench\":\"perf_regexp\",\"runs\":[%s],\"speedups\":{%s}}\n",
                runs.c_str(), speedups.c_str());
  }
  benchmark::Shutdown();
  return 0;
}
