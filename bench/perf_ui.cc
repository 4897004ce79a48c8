// P-6: user-interface path performance — frame layout, hit testing, the full
// click-to-execute pipeline, rendering. The paper's bar: the interface must
// "feel good … dynamic and responsive"; every figure here is a per-gesture
// cost that must sit far under perceptual thresholds.
//
// Passing --json (before any --benchmark_* flags are parsed out) appends one
// JSON object as the last line of stdout, in perf_text's shape.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/base/strings.h"
#include "src/tools/demo.h"

namespace help {
namespace {

// A demo at the Figure 11 screen: 11 windows, exec.c open at line 213.
std::unique_ptr<PaperDemo> Fig11Demo() {
  auto demo = std::make_unique<PaperDemo>();
  demo->Fig04_Boot();
  demo->Fig05_Headers();
  demo->Fig06_Messages();
  demo->Fig07_Stack();
  demo->Fig08_OpenTextC();
  demo->Fig09_CloseAndOpenExecC();
  demo->Fig10_Uses();
  demo->Fig11_OpenHelpCAndExec213();
  return demo;
}

// Fill records the text; the read (end()) lays the frame out.
void BM_FrameFill(benchmark::State& state) {
  std::string content;
  for (int i = 0; i < state.range(0); i++) {
    content += "a line of body text that is reasonably long, like source code\n";
  }
  Text t(content);
  Frame f;
  f.SetRect({0, 0, 60, 40});
  for (auto _ : state) {
    f.Fill(t, 0);
    benchmark::DoNotOptimize(f.end());
  }
}
BENCHMARK(BM_FrameFill)->Range(64, 4096);

void BM_PointToOffset(benchmark::State& state) {
  Text t(std::string(4000, 'x'));
  Frame f;
  f.SetRect({0, 0, 60, 40});
  f.Fill(t, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.PointToOffset({30, 20}));
  }
}
BENCHMARK(BM_PointToOffset);

void BM_FullScreenRender(benchmark::State& state) {
  PaperDemo demo;
  demo.Fig04_Boot();
  for (auto _ : state) {
    benchmark::DoNotOptimize(demo.help().Render());
  }
}
BENCHMARK(BM_FullScreenRender);

// What every gesture step ends with: repaint the Figure 11 screen and
// render it with selection annotations.
void BM_RenderAnnotated(benchmark::State& state) {
  auto demo = Fig11Demo();
  for (auto _ : state) {
    benchmark::DoNotOptimize(demo->help().Render(/*annotated=*/true));
  }
}
BENCHMARK(BM_RenderAnnotated);

// Locating a word in one window of the Figure 11 screen (PaperDemo::Locate
// does this before every click).
void BM_FindInWindow(benchmark::State& state) {
  auto demo = Fig11Demo();
  Window* edit_stf = demo->FindWindowTagged("/help/edit/stf");
  for (auto _ : state) {
    benchmark::DoNotOptimize(demo->help().FindInWindow(edit_stf, "Open"));
  }
}
BENCHMARK(BM_FindInWindow);

// Relayout of every window on the Figure 11 screen. This only marks the
// frames; the layout itself moves to the next read, which
// BM_RelayoutAllWindowsThenRender includes.
void BM_RelayoutAllWindows(benchmark::State& state) {
  auto demo = Fig11Demo();
  std::vector<Window*> all = demo->help().AllWindows();
  for (auto _ : state) {
    for (Window* w : all) {
      w->Relayout();
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(all.size()));
}
BENCHMARK(BM_RelayoutAllWindows);

void BM_RelayoutAllWindowsThenRender(benchmark::State& state) {
  auto demo = Fig11Demo();
  std::vector<Window*> all = demo->help().AllWindows();
  for (auto _ : state) {
    for (Window* w : all) {
      w->Relayout();
    }
    benchmark::DoNotOptimize(demo->help().Render(/*annotated=*/true));
  }
}
BENCHMARK(BM_RelayoutAllWindowsThenRender);

void BM_MouseSelectGesture(benchmark::State& state) {
  PaperDemo demo;
  demo.Fig04_Boot();
  Help& h = demo.help();
  Window* stf = demo.FindWindowTagged("/help/edit/stf");
  Rect r = stf->rect();
  for (auto _ : state) {
    h.MouseSelect({r.x0, r.y0 + 1}, {r.x0 + 4, r.y0 + 1});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MouseSelectGesture);

void BM_OpenCloseWindow(benchmark::State& state) {
  PaperDemo demo;
  demo.Fig04_Boot();
  Help& h = demo.help();
  for (auto _ : state) {
    auto w = h.OpenFile("/usr/rob/src/help/errs.c", "/", nullptr);
    h.CloseWindow(w.value());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OpenCloseWindow);

void BM_ExecuteBuiltinCut(benchmark::State& state) {
  PaperDemo demo;
  demo.Fig04_Boot();
  Help& h = demo.help();
  auto w = h.OpenFile("/usr/rob/src/help/errs.c", "/", nullptr);
  for (auto _ : state) {
    w.value()->body().sel = {0, 4};
    h.SetCurrent(&w.value()->body());
    h.ExecuteText("Cut", w.value());
    h.ExecuteText("Paste", w.value());
  }
}
BENCHMARK(BM_ExecuteBuiltinCut);

void BM_ExecuteExternalEcho(benchmark::State& state) {
  // Full middle-click-to-Errors-window pipeline for an external command.
  PaperDemo demo;
  demo.Fig04_Boot();
  Help& h = demo.help();
  for (auto _ : state) {
    h.ExecuteText("echo responsiveness", nullptr);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExecuteExternalEcho);

void BM_PlacementHeuristic(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Page page(100, 50, 2);
    std::vector<std::shared_ptr<Text>> bodies;
    state.ResumeTiming();
    for (int i = 0; i < 10; i++) {
      auto body = std::make_shared<Text>("some\nbody\ntext\n");
      bodies.push_back(body);
      page.Create(i + 1, std::make_shared<Text>("tag"), body, 0);
    }
    benchmark::DoNotOptimize(page.col(0).windows().size());
  }
  state.SetItemsProcessed(state.iterations() * 10);
}
BENCHMARK(BM_PlacementHeuristic);

// Console output without color codes (they would prefix the JSON line),
// plus a collected (name, per-iteration time, items/sec) record per run for
// the trailing JSON line (same shape as perf_text's).
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
    std::printf("{\"bench\":\"perf_ui\",\"runs\":[%s]}\n", runs.c_str());
  }
  benchmark::Shutdown();
  return 0;
}
