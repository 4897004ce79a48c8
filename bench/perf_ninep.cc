// P-7: multi-client 9P throughput. N concurrent client threads, each with
// its own Session, hammer walk/open/read/write against one Help instance's
// /mnt/help tree over the full encode → dispatch → decode byte path.
// Reports ops/sec and p50/p99 latency straight from the server's own
// metrics layer (the same numbers /mnt/help/stats serves).
//
//   usage: perf_ninep [threads] [ops-per-thread] [flags]
//
//   --read-heavy   90% body reads / 10% bodyapp appends over pre-opened fids
//                  instead of the default mixed walk/open/read/write workload
//   --sweep        run thread counts 1,2,4,8 instead of one run, then the
//                  --pipeline pairs
//   --json         emit one JSON object as the last line of stdout
//   --socket       the PR 7 C10K workload: positionals become [conns]
//                  [ops-per-conn] (default 1000 x 20). Serves over a
//                  Unix-domain socket through the epoll listener; driver
//                  threads hold every connection open concurrently — each
//                  its own session and pre-opened body fid — and round-robin
//                  range reads across them. Exits nonzero on any protocol
//                  error.
//   --pipeline     one Unix-socket connection, [_] [ops] random 512-byte
//                  body reads (default 4000): a client window of 16 vs 1,
//                  each with zero-copy and staged Rreads — four runs
//   --trace FILE   run with request tracing enabled and write the captured
//                  ring as Chrome trace-event JSON to FILE when the runs
//                  finish (open it in chrome://tracing or Perfetto; each
//                  request's phases chain on one rid on the net.loop
//                  thread)
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/base/strings.h"
#include "src/core/help.h"
#include "src/fs/listener.h"
#include "src/fs/server.h"
#include "src/fs/transport.h"
#include "src/obs/trace.h"

namespace help {
namespace {

struct Totals {
  std::atomic<uint64_t> ops{0};
  std::atomic<uint64_t> failures{0};
};

// Deterministic per-thread offsets: the benches must not depend on rand().
struct Lcg {
  uint32_t state;
  explicit Lcg(uint32_t seed) : state(seed * 2654435761u + 1) {}
  uint32_t Next() {
    state = state * 1664525 + 1013904223;
    return state >> 8;
  }
};

// The mixed workload: index read / bodyapp append / body read /
// walk-open-read-clunk, one window per client.
void MixedLoop(Help* h, int id, int ops, Totals* totals) {
  NinepServer& srv = h->ninep();
  NinepServer::SessionId sid = srv.OpenSession();
  NinepClient client(srv.TransportFor(sid));
  if (!client.Connect(StrFormat("bench%d", id)).ok()) {
    totals->failures++;
    return;
  }
  auto ctl = client.ReadFile("/mnt/help/new/ctl");
  if (!ctl.ok()) {
    totals->failures++;
    return;
  }
  std::string base = "/mnt/help/" + std::string(TrimSpace(ctl.value()));
  uint64_t done = 0;
  for (int i = 0; i < ops; i++) {
    bool ok = true;
    switch (i % 4) {
      case 0:
        ok = client.ReadFile("/mnt/help/index").ok();
        break;
      case 1:
        ok = client.AppendFile(base + "/bodyapp", "line\n").ok();
        break;
      case 2:
        ok = client.ReadFile(base + "/body").ok();
        break;
      case 3: {
        auto fid = client.WalkFid(base + "/tag");
        ok = fid.ok() && client.OpenFid(fid.value(), kOread).ok() &&
             client.ReadFid(fid.value(), 0, 256).ok() &&
             client.Clunk(fid.value()).ok();
        break;
      }
    }
    if (ok) {
      done++;
    } else {
      totals->failures++;
    }
  }
  totals->ops += done;
  srv.CloseSession(sid);
}

// The read-heavy workload: every client keeps a read-only body fid and
// a write-only bodyapp fid open, seeds the body, then issues 90% single-Tread
// range reads at pseudo-random offsets and 10% single-Twrite appends. This is
// the shape the paper's interface produces — browsers and scripts polling
// window bodies — boiled down to raw dispatches.
void ReadHeavyLoop(Help* h, int id, int ops, Totals* totals) {
  NinepServer& srv = h->ninep();
  NinepServer::SessionId sid = srv.OpenSession();
  NinepClient client(srv.TransportFor(sid));
  if (!client.Connect(StrFormat("bench%d", id)).ok()) {
    totals->failures++;
    return;
  }
  auto ctl = client.ReadFile("/mnt/help/new/ctl");
  if (!ctl.ok()) {
    totals->failures++;
    return;
  }
  std::string base = "/mnt/help/" + std::string(TrimSpace(ctl.value()));
  // Seed ~32KB of body so range reads have something to return.
  std::string seed;
  for (int i = 0; i < 640; i++) {
    seed += "a line of body text about like this one here, window body\n";
  }
  if (!client.WriteFile(base + "/bodyapp", seed).ok()) {
    totals->failures++;
    return;
  }
  auto body = client.WalkFid(base + "/body");
  auto app = client.WalkFid(base + "/bodyapp");
  if (!body.ok() || !app.ok() || !client.OpenFid(body.value(), kOread).ok() ||
      !client.OpenFid(app.value(), kOwrite).ok()) {
    totals->failures++;
    return;
  }
  Lcg rng(static_cast<uint32_t>(id) + 7);
  uint64_t done = 0;
  for (int i = 0; i < ops; i++) {
    bool ok;
    if (i % 10 == 9) {
      ok = client.WriteFid(app.value(), 0, "appended line\n").ok();
    } else {
      ok = client.ReadFid(body.value(), rng.Next() % seed.size(), 512).ok();
    }
    if (ok) {
      done++;
    } else {
      totals->failures++;
    }
  }
  client.Clunk(body.value());
  client.Clunk(app.value());
  totals->ops += done;
  srv.CloseSession(sid);
}

struct RunResult {
  int threads = 0;
  uint64_t client_ops = 0;
  uint64_t failures = 0;
  uint64_t msgs = 0;
  double secs = 0;
  uint64_t p50_us = 0;
  uint64_t p99_us = 0;
  uint64_t conns = 0;       // --socket: concurrent socket connections held
  uint64_t peak_conns = 0;  // --socket: listener's live gauge at full load
  // --pipeline pairs: which config this run measured, plus the zero-copy
  // accounting. staged_body_delta is ninep.bytes_staged growth across the
  // timed read phase alone — the CI gate pins it to 0 for zero-copy runs
  // (setup traffic like new/ctl reads stages by design).
  std::string label;
  uint64_t bytes_zero_copy = 0;
  uint64_t bytes_staged = 0;
  uint64_t staged_body_delta = 0;
  uint64_t writev_calls = 0;
  double ops_per_sec() const { return static_cast<double>(client_ops) / secs; }
  double msgs_per_sec() const { return static_cast<double>(msgs) / secs; }
};

// One socket connection's client state, held open for the whole run.
struct SocketConn {
  std::unique_ptr<SocketTransport> tr;
  std::unique_ptr<NinepClient> client;
  uint32_t fid = kNoFid;
  bool ok = false;
};

// The C10K workload: `conns` concurrent Unix-socket connections against one
// listener, every one live for the whole run. A small driver-thread pool
// multiplexes them (1000 blocking client threads would bench the host
// scheduler, not the server); concurrency on the server side is real — every
// connection is accepted, polled, and dispatched independently.
RunResult RunSocketOnce(int conns, int ops) {
  Help::Options opt;
  opt.install_userland = false;
  Help h(opt);
  h.ninep().metrics().Reset();  // registry entries are process-global
  NinepListener lis(&h.ninep());
  std::string path = StrFormat("perf_ninep.%d.sock", getpid());
  RunResult r;
  r.conns = static_cast<uint64_t>(conns);
  if (!lis.ListenUnix(path).ok() || !lis.Start().ok()) {
    r.failures = 1;
    return r;
  }
  RaiseFdLimit(static_cast<uint64_t>(conns) * 2 + 256);

  // Seed one window body for everyone to read.
  std::string base;
  constexpr size_t kBodyBytes = 32 * 1024;
  {
    auto tr = SocketTransport::ConnectUnix(path);
    if (!tr.ok()) {
      r.failures = 1;
      return r;
    }
    NinepClient seeder(tr.value()->AsTransport());
    std::string seed;
    while (seed.size() < kBodyBytes) {
      seed += "a line of body text about like this one here, window body\n";
    }
    auto ctl = seeder.Connect("seeder").ok()
                   ? seeder.ReadFile("/mnt/help/new/ctl")
                   : Result<std::string>(Status::Error("connect failed"));
    if (!ctl.ok()) {
      r.failures = 1;
      return r;
    }
    base = "/mnt/help/" + std::string(TrimSpace(ctl.value()));
    if (!seeder.WriteFile(base + "/bodyapp", seed).ok()) {
      r.failures = 1;
      return r;
    }
  }

  const int drivers = conns < 16 ? conns : 16;
  r.threads = drivers;
  std::vector<SocketConn> table(static_cast<size_t>(conns));
  std::atomic<uint64_t> failures{0};

  // Phase 1: establish every connection — handshake plus a pre-opened
  // read-only body fid — and keep all of them open.
  {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(drivers));
    for (int d = 0; d < drivers; d++) {
      pool.emplace_back([&, d] {
        for (int i = d; i < conns; i += drivers) {
          SocketConn& c = table[static_cast<size_t>(i)];
          auto tr = SocketTransport::ConnectUnix(path);
          if (!tr.ok()) {
            failures++;
            continue;
          }
          c.tr = tr.take();
          c.client = std::make_unique<NinepClient>(c.tr->AsTransport());
          if (!c.client->Connect(StrFormat("c10k%d", i)).ok()) {
            failures++;
            continue;
          }
          auto fid = c.client->WalkFid(base + "/body");
          if (!fid.ok() || !c.client->OpenFid(fid.value(), kOread).ok()) {
            failures++;
            continue;
          }
          c.fid = fid.value();
          c.ok = true;
        }
      });
    }
    for (std::thread& t : pool) {
      t.join();
    }
  }
  r.peak_conns = lis.active_conns();  // every connection is live right now

  // Phase 2: round-robin range reads over every open connection.
  std::atomic<uint64_t> total_ok{0};
  auto start = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(drivers));
    for (int d = 0; d < drivers; d++) {
      pool.emplace_back([&, d] {
        Lcg rng(static_cast<uint32_t>(d) + 31);
        uint64_t ok = 0;
        for (int op = 0; op < ops; op++) {
          for (int i = d; i < conns; i += drivers) {
            SocketConn& c = table[static_cast<size_t>(i)];
            if (!c.ok) {
              continue;
            }
            uint64_t off = rng.Next() % (kBodyBytes / 2);
            auto data = c.client->ReadFid(c.fid, off, 512);
            if (data.ok() && !data.value().empty()) {
              ok++;
            } else {
              failures++;
            }
          }
        }
        total_ok += ok;
      });
    }
    for (std::thread& t : pool) {
      t.join();
    }
  }
  r.secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
               .count();

  const NinepMetrics& m = h.ninep().metrics();
  r.client_ops = total_ok.load();
  r.failures = failures.load();
  r.msgs = m.total_ops();
  r.p50_us = m.OverallPercentileUs(50);
  r.p99_us = m.OverallPercentileUs(99);
  table.clear();  // closes every client socket
  lis.Stop();
  return r;
}

// Pipeline pair runs: one Unix-socket connection, `ops` random 512-byte body
// reads. `pipelined` issues them through ReadFidPipelined with a 16-deep
// client window; the baseline uses a window of 1 (one RTT per read).
// `zero_copy` toggles the scatter-gather Rread path vs. the staged escape
// hatch. The pipelined win is syscall and wakeup amortization — the client
// keeps the window full while the listener answers every frame of a read
// burst and drains the replies with one sendmsg.
RunResult RunPipelineOnce(const char* label, bool pipelined, bool zero_copy,
                          int ops) {
  Help::Options opt;
  opt.install_userland = false;
  Help h(opt);
  h.ninep().metrics().Reset();  // registry entries are process-global
  h.ninep().set_disable_zero_copy(!zero_copy);
  NinepListener lis(&h.ninep());
  std::string path = StrFormat("perf_pipe.%d.sock", getpid());
  RunResult r;
  r.label = label;
  r.threads = 1;
  if (!lis.ListenUnix(path).ok() || !lis.Start().ok()) {
    r.failures = 1;
    return r;
  }

  auto tr = SocketTransport::ConnectUnix(path);
  if (!tr.ok()) {
    r.failures = 1;
    return r;
  }
  NinepClient client(tr.value()->AsTransport());
  auto strp = tr.take();
  client.set_pipe_io(strp->AsPipeIo());
  constexpr size_t kBodyBytes = 32 * 1024;
  std::string base;
  uint32_t fid = kNoFid;
  {
    std::string seed;
    while (seed.size() < kBodyBytes) {
      seed += "a line of body text about like this one here, window body\n";
    }
    auto ctl = client.Connect("pipe").ok()
                   ? client.ReadFile("/mnt/help/new/ctl")
                   : Result<std::string>(Status::Error("connect failed"));
    if (!ctl.ok()) {
      r.failures = 1;
      return r;
    }
    base = "/mnt/help/" + std::string(TrimSpace(ctl.value()));
    if (!client.WriteFile(base + "/bodyapp", seed).ok()) {
      r.failures = 1;
      return r;
    }
    auto f = client.WalkFid(base + "/body");
    if (!f.ok() || !client.OpenFid(f.value(), kOread).ok()) {
      r.failures = 1;
      return r;
    }
    fid = f.value();
  }

  const NinepMetrics& m = h.ninep().metrics();
  const uint64_t staged0 = m.bytes_staged();
  const int window = pipelined ? 16 : 1;
  Lcg rng(97);
  auto start = std::chrono::steady_clock::now();
  int done = 0;
  while (done < ops) {
    std::vector<NinepClient::ReadRange> ranges;
    while (static_cast<int>(ranges.size()) < window &&
           done + static_cast<int>(ranges.size()) < ops) {
      ranges.push_back({rng.Next() % (kBodyBytes / 2), 512});
    }
    auto got = client.ReadFidPipelined(fid, ranges, window);
    if (!got.ok()) {
      r.failures++;
      break;
    }
    done += static_cast<int>(ranges.size());
  }
  r.secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
               .count();
  r.client_ops = static_cast<uint64_t>(done);
  r.msgs = m.total_ops();
  r.p50_us = m.OverallPercentileUs(50);
  r.p99_us = m.OverallPercentileUs(99);
  r.staged_body_delta = m.bytes_staged() - staged0;
  r.bytes_zero_copy = m.bytes_zero_copy();
  r.bytes_staged = m.bytes_staged();
  r.writev_calls = m.net_writev_calls();
  strp.reset();  // close the socket before the listener stops
  lis.Stop();
  return r;
}

RunResult RunOnce(int threads, int ops, bool read_heavy) {
  Help::Options opt;
  opt.install_userland = false;  // just the file service, no coreutils needed
  Help h(opt);
  h.ninep().metrics().Reset();  // registry entries are process-global
  Totals totals;

  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; t++) {
    workers.emplace_back(read_heavy ? ReadHeavyLoop : MixedLoop, &h, t, ops,
                         &totals);
  }
  for (std::thread& w : workers) {
    w.join();
  }

  const NinepMetrics& m = h.ninep().metrics();
  RunResult r;
  r.threads = threads;
  r.secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
               .count();
  r.client_ops = totals.ops.load();
  r.failures = totals.failures.load();
  r.msgs = m.total_ops();
  r.p50_us = m.OverallPercentileUs(50);
  r.p99_us = m.OverallPercentileUs(99);
  return r;
}

void PrintHuman(const RunResult& r, const char* workload) {
  if (!r.label.empty()) {
    std::printf("config             %s\n", r.label.c_str());
  }
  if (r.conns > 0) {
    std::printf("connections        %llu concurrent (%llu live at peak), "
                "%d driver threads\n",
                static_cast<unsigned long long>(r.conns),
                static_cast<unsigned long long>(r.peak_conns), r.threads);
  }
  std::printf("clients            %d  (%s)\n", r.threads, workload);
  std::printf("client ops         %llu (%llu failed)\n",
              static_cast<unsigned long long>(r.client_ops),
              static_cast<unsigned long long>(r.failures));
  std::printf("9P messages        %llu\n", static_cast<unsigned long long>(r.msgs));
  std::printf("elapsed            %.3f s\n", r.secs);
  std::printf("throughput         %.0f client-ops/s, %.0f msgs/s\n",
              r.ops_per_sec(), r.msgs_per_sec());
  std::printf("latency p50/p99    %llu us / %llu us (all ops)\n",
              static_cast<unsigned long long>(r.p50_us),
              static_cast<unsigned long long>(r.p99_us));
  if (!r.label.empty()) {
    std::printf("zero-copy bytes    %llu (%llu staged, %llu staged during "
                "reads)\n",
                static_cast<unsigned long long>(r.bytes_zero_copy),
                static_cast<unsigned long long>(r.bytes_staged),
                static_cast<unsigned long long>(r.staged_body_delta));
    std::printf("writev calls       %llu\n",
                static_cast<unsigned long long>(r.writev_calls));
  }
}

std::string JsonOf(const RunResult& r) {
  std::string json = StrFormat(
      "{\"threads\":%d,\"client_ops\":%llu,\"failures\":%llu,\"msgs\":%llu,"
      "\"elapsed_s\":%.3f,\"ops_per_sec\":%.1f,\"msgs_per_sec\":%.1f,"
      "\"p50_us\":%llu,\"p99_us\":%llu",
      r.threads, static_cast<unsigned long long>(r.client_ops),
      static_cast<unsigned long long>(r.failures),
      static_cast<unsigned long long>(r.msgs), r.secs, r.ops_per_sec(),
      r.msgs_per_sec(), static_cast<unsigned long long>(r.p50_us),
      static_cast<unsigned long long>(r.p99_us));
  if (r.conns > 0) {
    json += StrFormat(",\"conns\":%llu,\"peak_conns\":%llu",
                      static_cast<unsigned long long>(r.conns),
                      static_cast<unsigned long long>(r.peak_conns));
  }
  if (!r.label.empty()) {
    json += StrFormat(
        ",\"label\":\"%s\",\"bytes_zero_copy\":%llu,\"bytes_staged\":%llu,"
        "\"staged_body_delta\":%llu,\"writev_calls\":%llu",
        r.label.c_str(), static_cast<unsigned long long>(r.bytes_zero_copy),
        static_cast<unsigned long long>(r.bytes_staged),
        static_cast<unsigned long long>(r.staged_body_delta),
        static_cast<unsigned long long>(r.writev_calls));
  }
  return json + "}";
}

int Main(int argc, char** argv) {
  int threads = 8;
  int ops = 2000;
  bool read_heavy = false;
  bool json = false;
  bool sweep = false;
  bool socket = false;
  bool pipeline = false;
  std::string trace_path;
  int positional = 0;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--read-heavy") == 0) {
      read_heavy = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--sweep") == 0) {
      sweep = true;
    } else if (std::strcmp(argv[i], "--socket") == 0) {
      socket = true;
    } else if (std::strcmp(argv[i], "--pipeline") == 0) {
      pipeline = true;
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr,
                   "usage: perf_ninep [threads] [ops-per-thread] "
                   "[--read-heavy] [--sweep] [--json]\n"
                   "       perf_ninep --socket [conns] [ops-per-conn] "
                   "[--json] [--trace FILE]\n"
                   "       perf_ninep --pipeline [_] [ops] [--json]\n");
      return 2;
    } else if (positional == 0) {
      threads = std::atoi(argv[i]);
      positional++;
    } else {
      ops = std::atoi(argv[i]);
      positional++;
    }
  }
  if (socket) {
    // The positionals mean [conns] [ops-per-conn] here; defaults prove the
    // acceptance bar (1000 concurrent connections, zero protocol errors).
    if (positional == 0) {
      threads = 1000;
    }
    if (positional < 2) {
      ops = 20;
    }
  }
  if (threads < 1 || ops < 1) {
    std::fprintf(stderr, "perf_ninep: threads and ops must be >= 1\n");
    return 2;
  }

  if (!trace_path.empty()) {
    obs::Tracer::Global().Clear();
    obs::Tracer::Global().Enable();
  }

  const char* workload = socket       ? "socket"
                         : pipeline   ? "pipeline"
                         : read_heavy ? "read-heavy"
                                      : "mixed";
  uint64_t failures = 0;
  std::vector<RunResult> results;
  if (!pipeline) {
    std::vector<int> counts = sweep && !socket ? std::vector<int>{1, 2, 4, 8}
                                               : std::vector<int>{threads};
    for (int n : counts) {
      RunResult r = socket ? RunSocketOnce(n, ops)
                           : RunOnce(n, ops, read_heavy);
      failures += r.failures;
      if (!json) {
        PrintHuman(r, workload);
        if (sweep) {
          std::printf("\n");
        }
      }
      results.push_back(r);
    }
  }
  // The comparison pairs: zero-copy vs staged Rreads, and a client window of
  // 16 vs 1. `--pipeline` runs just these; a non-socket `--sweep` appends
  // them after the thread sweep.
  if (pipeline || (sweep && !socket)) {
    int pops = pipeline && positional >= 2 ? ops : 4000;
    struct Cfg {
      const char* label;
      bool pipelined;
      bool zero_copy;
    };
    const Cfg cfgs[] = {
        {"pipelined_zero_copy", true, true},
        {"pipelined_staged", true, false},
        {"inorder_zero_copy", false, true},
        {"inorder_staged", false, false},
    };
    for (const Cfg& cfg : cfgs) {
      RunResult r = RunPipelineOnce(cfg.label, cfg.pipelined, cfg.zero_copy,
                                    pops);
      failures += r.failures;
      if (!json) {
        PrintHuman(r, "pipeline");
        std::printf("\n");
      }
      results.push_back(r);
    }
  }
  if (!trace_path.empty()) {
    obs::Tracer::Global().Disable();
    std::string trace = obs::Tracer::Global().RenderChromeJson();
    std::FILE* f = std::fopen(trace_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "perf_ninep: cannot write %s\n", trace_path.c_str());
      failures++;
    } else {
      std::fwrite(trace.data(), 1, trace.size(), f);
      std::fclose(f);
      std::fprintf(stderr, "perf_ninep: wrote %zu-byte Chrome trace to %s\n",
                   trace.size(), trace_path.c_str());
    }
  }

  if (json) {
    // One JSON object, the last line of stdout (the machine-readable
    // contract for the BENCH_* trajectory files and the CI artifact).
    std::string runs;
    for (const RunResult& r : results) {
      if (!runs.empty()) {
        runs += ",";
      }
      runs += JsonOf(r);
    }
    std::printf(
        "{\"bench\":\"perf_ninep\",\"workload\":\"%s\","
        "\"ops_per_thread\":%d,\"runs\":[%s]}\n",
        workload, ops, runs.c_str());
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace help

int main(int argc, char** argv) { return help::Main(argc, argv); }
