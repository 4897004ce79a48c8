// P-4: shell performance — the parse stage, the script cache, and whole
// runs of the evaluator over cached parse trees.
//
// The run benches take the production path: scripts resolve through the
// process-wide script cache, so after the first iteration each run walks a
// cached tree (a `decl` run invoked by path does not even read its file).
//
// Passing --json (stripped before google-benchmark parses flags) appends one
// JSON object as the last line of stdout; the CI bench-smoke artifact
// consumes it.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/base/strings.h"
#include "src/shell/coreutils.h"
#include "src/shell/mk.h"
#include "src/shell/scriptcache.h"
#include "src/shell/shell.h"

namespace help {
namespace {

// A decl-shaped tool script: positional args, flag accumulation, matches,
// list assignments. Deliberately long, so that a run which re-read and
// re-parsed it would show.
std::string DeclScript() {
  std::string s = "file=$1\nflags=(-w -g)\n";
  // Dispatch on file type, decl-style: one arm per suffix the tool knows,
  // of which a single one fires for any given file.
  for (int i = 0; i < 32; i++) {
    s += StrFormat(
        "if(~ $file *.x%d){flags=($flags -DX%d); out%d=(alpha beta gamma "
        "$file); echo selecting x%d rules for $file^' ('^$#flags^' flags)'}\n",
        i, i, i, i);
  }
  s += "if(~ $file *.c){flags=($flags -c)}\n";
  s += "echo $flags\n";
  return s;
}

struct World {
  World() : shell(&vfs, &registry, &procs) {
    RegisterCoreutils(&vfs, &registry);
    RegisterMk(&vfs, &registry);
    for (int i = 0; i < 40; i++) {
      vfs.WriteFile("/src/f" + std::to_string(i) + ".c", "int x;\n");
    }
    vfs.WriteFile("/lines", [] {
      std::string s;
      for (int i = 0; i < 500; i++) {
        s += "line " + std::to_string(i) + "\n";
      }
      return s;
    }());
    vfs.WriteFile("/bin/decl", DeclScript());
    // Phony targets: the recipes never create their target files, so every
    // mk run rebuilds all of them and replays every recipe line.
    vfs.WriteFile("/mkfile",
                  "all: t0 t1 t2 t3\n"
                  "t0:\n\techo built $target\n"
                  "t1:\n\techo built $target\n"
                  "t2:\n\techo built $target\n"
                  "t3:\n\techo built $target\n");
  }
  Vfs vfs;
  CommandRegistry registry;
  ProcTable procs;
  Shell shell;
};

void RunSrc(World& w, const char* src) {
  Env env;
  std::string out;
  std::string err;
  Io io;
  io.out = &out;
  io.err = &err;
  benchmark::DoNotOptimize(w.shell.Run(src, &env, "/", {}, io));
}

// Each bench shares one World across iterations: a warm script cache, the
// steady state of a repeatedly plumbed tool.
void RunBench(benchmark::State& state, const char* src) {
  World w;
  ShellScriptCache::Global().Clear();
  for (auto _ : state) {
    RunSrc(w, src);
  }
  state.SetItemsProcessed(state.iterations());
}

// decl: a 50-line tool script invoked by path, the paper's central workload —
// every Open/plumb of a C file runs one of these.
void BM_ShellDecl(benchmark::State& state) { RunBench(state, "decl /src/f3.c"); }
BENCHMARK(BM_ShellDecl);

// mk: four always-stale phony targets; each recipe line routes through
// Shell::Run and hence the source-keyed cache layer.
void BM_ShellMk(benchmark::State& state) { RunBench(state, "mk all"); }
BENCHMARK(BM_ShellMk);

// pipeline: dominated by the coreutils themselves.
void BM_ShellPipeline(benchmark::State& state) {
  RunBench(state, "cat /lines | grep 7 | sort | sed 3q");
}
BENCHMARK(BM_ShellPipeline);

// glob: a for loop over 40 expanded paths.
void BM_ShellGlobFor(benchmark::State& state) {
  RunBench(state, "for(f in /src/*.c){echo $f}");
}
BENCHMARK(BM_ShellGlobFor);

// --- pipeline stages in isolation ------------------------------------------

void BM_ShellParseDeclScript(benchmark::State& state) {
  std::string decl = DeclScript();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ParseShell(decl));
  }
}
BENCHMARK(BM_ShellParseDeclScript);

void BM_ShellCacheHit(benchmark::State& state) {
  std::string decl = DeclScript();
  ShellScriptCache::Global().Clear();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ShellScriptCache::Global().Get(decl).ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShellCacheHit);

void BM_ShellGlob(benchmark::State& state) {
  World w;
  for (auto _ : state) {
    benchmark::DoNotOptimize(GlobExpand(w.vfs, "/src", "*.c"));
  }
  state.SetItemsProcessed(state.iterations() * 40);
}
BENCHMARK(BM_ShellGlob);

// Console output without color codes (they would prefix the JSON line),
// plus a collected (name, per-iteration time, items/sec) record per run for
// the trailing JSON line (perf_regexp idiom).
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
    std::printf("{\"bench\":\"perf_shell\",\"runs\":[%s]}\n", runs.c_str());
  }
  benchmark::Shutdown();
  return 0;
}
