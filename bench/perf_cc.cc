// P-5: C front-end performance — lexing, preprocessing, the cpp+lex stage
// of the 13-unit call, whole-corpus browsing (the `uses` query path), the
// two commands the gesture path runs: Figure 10's `help/rcc -u` and the `vc`
// that Figure 12's mk drives, and the `cpp | help/rcc` pipeline of `decl`.
//
// Passing --json (stripped before google-benchmark parses flags) appends one
// JSON object as the last line of stdout, one entry per run with its real
// and CPU time per iteration in ns — the CI bench-smoke artifact.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/base/strings.h"
#include "src/cc/browser.h"
#include "src/cc/clex.h"
#include "src/cc/cpp.h"
#include "src/tools/demo.h"
#include "src/tools/tools.h"

namespace help {
namespace {

constexpr char kDir[] = "/usr/rob/src/help";

struct Corpus {
  Corpus() {
    InstallTools(&h);
    BuildPaperWorld(&h);
  }
  Help h;
};

Corpus* corpus() {
  static Corpus* c = new Corpus();
  return c;
}

void BM_CLexExecC(benchmark::State& state) {
  std::string src = corpus()->h.vfs().ReadFile("/usr/rob/src/help/exec.c").value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(CLex(src, "exec.c"));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(src.size()));
}
BENCHMARK(BM_CLexExecC);

void BM_CppExpandTranslationUnit(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(Preprocess(corpus()->h.vfs(), "/usr/rob/src/help/exec.c"));
  }
}
BENCHMARK(BM_CppExpandTranslationUnit);

constexpr const char* kFiles[] = {"clik.c", "ctrl.c", "errs.c", "exec.c", "file.c",
                                  "help.c", "page.c", "pick.c", "proc.c", "scrl.c",
                                  "text.c", "util.c", "xtrn.c"};

// The cpp+lex stage of the fig10 query: one source table reads, lexes and
// interns each file once and lists the 13 units' token runs, as rcc does
// before it parses.
void BM_CppLexWholeProgram(benchmark::State& state) {
  CUnit unit;
  for (auto _ : state) {
    CNames names;
    CSources sources(corpus()->h.vfs(), &names);
    for (const char* f : kFiles) {
      benchmark::DoNotOptimize(sources.Unit(std::string(kDir) + "/" + f, &unit));
    }
  }
  state.SetItemsProcessed(state.iterations() * 13);
}
BENCHMARK(BM_CppLexWholeProgram);

void BM_BrowserParseTranslationUnit(benchmark::State& state) {
  auto pp = Preprocess(corpus()->h.vfs(), "/usr/rob/src/help/exec.c");
  for (auto _ : state) {
    CBrowser b;
    benchmark::DoNotOptimize(b.AddTranslationUnit(pp.value(), "exec.c"));
  }
}
BENCHMARK(BM_BrowserParseTranslationUnit);

void BM_BrowserWholeProgramUses(benchmark::State& state) {
  // The fig10 query: parse all 13 sources, resolve n, list its uses.
  for (auto _ : state) {
    CBrowser b;
    for (const char* f : kFiles) {
      b.AddFile(corpus()->h.vfs(), std::string("/usr/rob/src/help/") + f);
    }
    const CSymbol* n = b.ResolveAt("n", "/usr/rob/src/help/exec.c", 252);
    benchmark::DoNotOptimize(b.UsesOf(n->id));
  }
  state.SetItemsProcessed(state.iterations() * 13);
}
BENCHMARK(BM_BrowserWholeProgramUses);

void BM_BrowserResolveAt(benchmark::State& state) {
  CBrowser b;
  static const char* kFour[] = {"errs.c", "exec.c", "help.c", "text.c"};
  for (const char* f : kFour) {
    b.AddFile(corpus()->h.vfs(), std::string("/usr/rob/src/help/") + f);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(b.ResolveAt("n", "/usr/rob/src/help/exec.c", 252));
  }
}
BENCHMARK(BM_BrowserResolveAt);

// Runs `cmd` through the shell of a booted PaperDemo in the help source
// directory, once per iteration, and checks its output every time.
void RunCommand(benchmark::State& state, const char* cmd, const char* want) {
  PaperDemo demo;
  Env env;
  std::string out;
  std::string err;
  Io io;
  io.out = &out;
  io.err = &err;
  for (auto _ : state) {
    out.clear();
    auto r = demo.help().shell().Run(cmd, &env, kDir, {}, io);
    if (!r.ok() || r.value() != 0 || out != want) {
      state.SkipWithError(("unexpected result: " + out + err).c_str());
      break;
    }
  }
}

// Figure 10, exactly as the uses script runs it after `cd $dir`.
void BM_RccUsesCommand(benchmark::State& state) {
  RunCommand(state, "help/rcc -u -in -n213 -fexec.c *.c",
             "./dat.h:136\nexec.c:213\nexec.c:252\nhelp.c:35\n");
}
BENCHMARK(BM_RccUsesCommand);

// The pipeline of the decl and decl.o scripts for n at exec.c:213: cpp
// renders the unit as text, which rcc lexes and parses again.
void BM_RccDeclCommand(benchmark::State& state) {
  RunCommand(state, "cpp exec.c | help/rcc -w -g -in -n213 -fexec.c | sed 1q",
             "./dat.h:136 n\n");
}
BENCHMARK(BM_RccDeclCommand);

// The compile mk runs for exec.c in Figure 12.
void BM_VcExecC(benchmark::State& state) { RunCommand(state, "vc -w exec.c", ""); }
BENCHMARK(BM_VcExecC);

// Console output without color codes (they would prefix the JSON line),
// plus a (name, real ns, CPU ns) record per run for the trailing JSON line.
class JsonLineReporter : public benchmark::ConsoleReporter {
 public:
  JsonLineReporter() : ConsoleReporter(OO_Tabular) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) {
        continue;
      }
      double to_ns = 1e9 / benchmark::GetTimeUnitMultiplier(run.time_unit);
      if (!json_.empty()) {
        json_ += ",";
      }
      json_ += StrFormat("{\"name\":\"%s\",\"real_ns\":%.1f,\"cpu_ns\":%.1f}",
                         run.benchmark_name().c_str(), run.GetAdjustedRealTime() * to_ns,
                         run.GetAdjustedCPUTime() * to_ns);
    }
    ConsoleReporter::ReportRuns(runs);
  }

  const std::string& json() const { return json_; }

 private:
  std::string json_;
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
    std::printf("{\"bench\":\"perf_cc\",\"runs\":[%s]}\n", reporter.json().c_str());
  }
  benchmark::Shutdown();
  return 0;
}
