// P-4: shell performance — parse, compile, and the bytecode VM against the
// tree-walking evaluator it replaced.
//
// The *Vm benches run the production path: scripts resolve through the
// process-wide compiled-script cache and execute as bytecode. The paired
// *TreeWalk benches flip Shell::SetVmEnabled(false), reproducing the
// pre-VM behavior — every run re-reads, re-parses, and re-walks the AST.
//
// Passing --json (stripped before google-benchmark parses flags) appends one
// JSON object as the last line of stdout, including a `speedups` map computed
// from each Vm/TreeWalk pair — the CI bench-smoke artifact consumes it, and
// the ≥3x cached-script acceptance gate reads `speedups.decl`.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/base/strings.h"
#include "src/shell/compile.h"
#include "src/shell/coreutils.h"
#include "src/shell/mk.h"
#include "src/shell/scriptcache.h"
#include "src/shell/shell.h"

namespace help {
namespace {

// A decl-shaped tool script: positional args, flag accumulation, matches,
// list assignments. Deliberately long — the tree-walker pays the whole
// re-read + re-parse on every invocation, the VM a signature check.
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

// Each pair shares one World across iterations: the VM side exercises a warm
// compile cache (the steady state of a repeatedly-plumbed tool), the
// tree-walk side the old always-reparse behavior on identical state.
void RunPair(benchmark::State& state, const char* src, bool vm) {
  World w;
  ShellScriptCache::Global().Clear();
  Shell::SetVmEnabled(vm);
  for (auto _ : state) {
    RunSrc(w, src);
  }
  Shell::SetVmEnabled(true);
  state.SetItemsProcessed(state.iterations());
}

// decl: a 50-line tool script invoked by path, the paper's central workload —
// every Open/plumb of a C file runs one of these.
void BM_ShellDeclVm(benchmark::State& state) {
  RunPair(state, "decl /src/f3.c", true);
}
BENCHMARK(BM_ShellDeclVm);
void BM_ShellDeclTreeWalk(benchmark::State& state) {
  RunPair(state, "decl /src/f3.c", false);
}
BENCHMARK(BM_ShellDeclTreeWalk);

// mk: four always-stale phony targets; each recipe line routes through
// Shell::Run and hence (on the VM side) the source-keyed cache layer.
void BM_ShellMkVm(benchmark::State& state) { RunPair(state, "mk all", true); }
BENCHMARK(BM_ShellMkVm);
void BM_ShellMkTreeWalk(benchmark::State& state) {
  RunPair(state, "mk all", false);
}
BENCHMARK(BM_ShellMkTreeWalk);

// pipeline: dominated by the coreutils themselves — the honest case where
// the VM can only win back parse time.
constexpr const char* kPipeline = "cat /lines | grep 7 | sort | sed 3q";
void BM_ShellPipelineVm(benchmark::State& state) {
  RunPair(state, kPipeline, true);
}
BENCHMARK(BM_ShellPipelineVm);
void BM_ShellPipelineTreeWalk(benchmark::State& state) {
  RunPair(state, kPipeline, false);
}
BENCHMARK(BM_ShellPipelineTreeWalk);

// glob: a for loop over 40 expanded paths.
constexpr const char* kGlobFor = "for(f in /src/*.c){echo $f}";
void BM_ShellGlobForVm(benchmark::State& state) {
  RunPair(state, kGlobFor, true);
}
BENCHMARK(BM_ShellGlobForVm);
void BM_ShellGlobForTreeWalk(benchmark::State& state) {
  RunPair(state, kGlobFor, false);
}
BENCHMARK(BM_ShellGlobForTreeWalk);

// --- pipeline stages in isolation ------------------------------------------

void BM_ShellParseDeclScript(benchmark::State& state) {
  std::string decl = DeclScript();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ParseShell(decl));
  }
}
BENCHMARK(BM_ShellParseDeclScript);

void BM_ShellCompileDeclScript(benchmark::State& state) {
  std::string decl = DeclScript();
  auto ast = ParseShell(decl);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CompileShell(*ast.value()));
  }
}
BENCHMARK(BM_ShellCompileDeclScript);

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
  help::JsonLineReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
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
    // VM-vs-tree-walk speedups for whichever pairs ran (0 when a side was
    // filtered out).
    struct Pair {
      const char* key;
      const char* vm;
      const char* treewalk;
    };
    const Pair kPairs[] = {
        {"decl", "BM_ShellDeclVm", "BM_ShellDeclTreeWalk"},
        {"mk", "BM_ShellMkVm", "BM_ShellMkTreeWalk"},
        {"pipeline", "BM_ShellPipelineVm", "BM_ShellPipelineTreeWalk"},
        {"glob", "BM_ShellGlobForVm", "BM_ShellGlobForTreeWalk"},
    };
    std::string speedups;
    for (const Pair& p : kPairs) {
      double v = help::TimeOf(reporter.entries(), p.vm);
      double t = help::TimeOf(reporter.entries(), p.treewalk);
      if (!speedups.empty()) {
        speedups += ",";
      }
      speedups += help::StrFormat("\"%s\":%.1f", p.key, v > 0.0 ? t / v : 0.0);
    }
    std::printf("{\"bench\":\"perf_shell\",\"runs\":[%s],\"speedups\":{%s}}\n",
                runs.c_str(), speedups.c_str());
  }
  benchmark::Shutdown();
  return 0;
}
