// P-3: file-system + protocol performance — VFS ops and full 9P round trips.
#include <benchmark/benchmark.h>

#include "src/fs/server.h"
#include "src/fs/vfs.h"

namespace help {
namespace {

void BM_VfsWalk(benchmark::State& state) {
  Vfs vfs;
  vfs.MkdirAll("/usr/rob/src/help/deep/nest");
  vfs.WriteFile("/usr/rob/src/help/deep/nest/f.c", "x");
  for (auto _ : state) {
    benchmark::DoNotOptimize(vfs.Walk("/usr/rob/src/help/deep/nest/f.c"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VfsWalk);

// A failing probe, the common walk: the shell's command search, mk's
// prerequisite checks and cpp's include search ask for files that are not
// there.
void BM_VfsWalkMiss(benchmark::State& state) {
  Vfs vfs;
  vfs.MkdirAll("/usr/rob/src/help/deep/nest");
  for (auto _ : state) {
    benchmark::DoNotOptimize(vfs.Walk("/usr/rob/src/help/deep/nest/missing.h"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VfsWalkMiss);

// A path with "..", "." and "//", resolved as CleanPath would.
void BM_VfsWalkUnclean(benchmark::State& state) {
  Vfs vfs;
  vfs.MkdirAll("/usr/rob/src/help/deep/nest");
  vfs.WriteFile("/usr/rob/src/help/deep/nest/f.c", "x");
  for (auto _ : state) {
    benchmark::DoNotOptimize(vfs.Walk("/usr/rob/src//help/./sub/../deep/nest/f.c"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VfsWalkUnclean);

// A long path whose ".."s all come at its end, "/a/x/x/.../x/../../..", as a
// 9P Tcreate name may be. Cleaning is one pass, so the time per byte stays
// level as the path grows.
void BM_VfsWalkLongDotDot(benchmark::State& state) {
  Vfs vfs;
  vfs.MkdirAll("/a");
  std::string xs = "/a";
  std::string dotdots;
  while (xs.size() + dotdots.size() < static_cast<size_t>(state.range(0))) {
    xs += "/x";
    dotdots += "/..";
  }
  std::string path = xs + dotdots;
  for (auto _ : state) {
    benchmark::DoNotOptimize(vfs.Walk(path));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(path.size()));
}
BENCHMARK(BM_VfsWalkLongDotDot)->Range(1 << 10, 1 << 16);

void BM_VfsWriteRead(benchmark::State& state) {
  Vfs vfs;
  std::string payload(static_cast<size_t>(state.range(0)), 'b');
  for (auto _ : state) {
    vfs.WriteFile("/f", payload);
    benchmark::DoNotOptimize(vfs.ReadFile("/f"));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_VfsWriteRead)->Range(256, 65536);

void BM_VfsReadDir(benchmark::State& state) {
  Vfs vfs;
  for (int i = 0; i < state.range(0); i++) {
    vfs.WriteFile("/dir/f" + std::to_string(i), "");
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(vfs.ReadDir("/dir"));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_VfsReadDir)->Range(16, 1024);

void BM_NinepCodecRoundTrip(benchmark::State& state) {
  Fcall f;
  f.type = MsgType::kTwrite;
  f.tag = 1;
  f.fid = 9;
  f.offset = 4096;
  f.data = std::string(static_cast<size_t>(state.range(0)), 'd');
  for (auto _ : state) {
    std::string bytes = EncodeFcall(f);
    benchmark::DoNotOptimize(DecodeFcall(bytes));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NinepCodecRoundTrip)->Range(64, 65536);

void BM_NinepReadFileRpc(benchmark::State& state) {
  // Full client->server->client path: walk, open, read(s), clunk.
  Vfs vfs;
  vfs.WriteFile("/data", std::string(static_cast<size_t>(state.range(0)), 'z'));
  NinepServer server(&vfs);
  NinepClient client(server.Transport());
  client.Connect();
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.ReadFile("/data"));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NinepReadFileRpc)->Range(256, 262144);

void BM_NinepWriteFileRpc(benchmark::State& state) {
  Vfs vfs;
  NinepServer server(&vfs);
  NinepClient client(server.Transport());
  client.Connect();
  std::string payload(static_cast<size_t>(state.range(0)), 'w');
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.WriteFile("/out", payload).ok());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NinepWriteFileRpc)->Range(256, 65536);

}  // namespace
}  // namespace help

BENCHMARK_MAIN();
