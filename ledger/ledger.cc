// ledger: the benchmark for help's three end-to-end paths.
//
//   ledger --workload gesture|browse|crowd --seed N --seconds S --trace 0|1
//
// Every workload is a closed loop in this one process. It builds
// the world several times and reports the median as setup_s (warm-up
// included), then measures for S seconds and checks every output.
//
// --trace 0 prints the end-to-end metrics: op latency as the client sees it
// (p50, p99), throughput, process CPU per op, setup time and peak memory.
// --trace 1 runs S/2 seconds untraced (program-counter deltas and the CPU
// baseline), then S/2 seconds traced, and prints the per-layer metrics and
// a table of each layer's time and self time per op.
//
// Stdout ends with one JSON line: correct, attempted, failed, metrics.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

#include "ledger/ledger.h"
#include "src/base/strings.h"
#include "src/fs/metrics.h"
#include "src/obs/trace.h"

namespace ledger {

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

uint64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull + static_cast<uint64_t>(ts.tv_nsec);
}

const char* LayerName(Layer l) {
  static const char* const kNames[kLayerCount] = {
      "gesture.step", "help.exec",   "shell.run",       "draw.render",     "wm.place",
      "search.address", "net.rtt",   "ninep.dispatch",  "ninep.lock_wait", "ninep.handler",
      "ninep.encode", "help.win_lookup", "text.utf8_substr", "help.append", "wm.relayout"};
  return kNames[l];
}

Counters Counters::Read() {
  help::obs::Registry& reg = help::obs::Registry::Global();
  auto v = [&](const char* name) { return reg.GetCounter(name)->value(); };
  Counters c;
  for (size_t i = 0; i < help::kNinepOpCount; i++) {
    c.ninep_ops += reg.GetCounter(help::StrFormat(
                                      "ninep.%s.count",
                                      help::NinepOpName(static_cast<help::NinepOp>(i))))
                       ->value();
  }
  c.shared_reads = v("ninep.read.shared");
  c.read_retries = v("ninep.read.retry");
  c.epoch_exclusive = v("ninep.lock.epoch_exclusive");
  c.bytes_zero_copy = v("ninep.bytes_zero_copy");
  c.bytes_staged = v("ninep.bytes_staged");
  c.writev_calls = v("net.writev_calls");
  c.shell_cache_hit = v("shell.compile_cache_hit");
  c.shell_cache_miss = v("shell.compile_cache_miss");
  c.vm_ops = v("shell.vm_ops");
  c.regexp_cache_hit = v("search.regexp_cache_hit");
  c.regexp_cache_miss = v("search.regexp_cache_miss");
  auto q = reg.GetHistogram("net.queue_wait_us")->Snapshot();
  std::copy(q.begin(), q.end(), c.queue_wait.begin());
  return c;
}

Counters Counters::operator-(const Counters& b) const {
  Counters d;
  d.ninep_ops = ninep_ops - b.ninep_ops;
  d.shared_reads = shared_reads - b.shared_reads;
  d.read_retries = read_retries - b.read_retries;
  d.epoch_exclusive = epoch_exclusive - b.epoch_exclusive;
  d.bytes_zero_copy = bytes_zero_copy - b.bytes_zero_copy;
  d.bytes_staged = bytes_staged - b.bytes_staged;
  d.writev_calls = writev_calls - b.writev_calls;
  d.shell_cache_hit = shell_cache_hit - b.shell_cache_hit;
  d.shell_cache_miss = shell_cache_miss - b.shell_cache_miss;
  d.vm_ops = vm_ops - b.vm_ops;
  d.regexp_cache_hit = regexp_cache_hit - b.regexp_cache_hit;
  d.regexp_cache_miss = regexp_cache_miss - b.regexp_cache_miss;
  for (size_t i = 0; i < queue_wait.size(); i++) {
    d.queue_wait[i] = queue_wait[i] - b.queue_wait[i];
  }
  return d;
}

namespace {

// Nearest-rank percentile of a sorted sample of nanoseconds, in microseconds.
double PercentileUs(const std::vector<uint32_t>& sorted, double p) {
  if (sorted.empty()) {
    return 0;
  }
  size_t rank = static_cast<size_t>(p / 100 * static_cast<double>(sorted.size()) + 0.999999);
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1] / 1000.0;
}

}  // namespace

void Phase::Merge(const Phase& o) {
  attempted += o.attempted;
  failed += o.failed;
  lat_ns.insert(lat_ns.end(), o.lat_ns.begin(), o.lat_ns.end());
  bytes_read += o.bytes_read;
  non_ascii_read += o.non_ascii_read;
  write_ops += o.write_ops;
  wire_replies += o.wire_replies;
  traced_ops += o.traced_ops;
  if (first_error.empty()) {
    first_error = o.first_error;
  }
}

void Phase::EndSlice(uint64_t ops, double wall_s, double cpu_s, bool keep_samples) {
  if (ops == 0) {
    return;
  }
  Slice s;
  s.ops_per_s = static_cast<double>(ops) / wall_s;
  s.cpu_us_per_op = cpu_s * 1e6 / static_cast<double>(ops);
  std::sort(lat_ns.begin(), lat_ns.end());
  s.p50_us = PercentileUs(lat_ns, 50);
  s.p99_us = PercentileUs(lat_ns, 99);
  if (keep_samples) {
    s.lat_ns = std::move(lat_ns);
  }
  lat_ns.clear();
  slices.push_back(std::move(s));
}

void Phase::Fail(const std::string& why) {
  failed++;
  if (first_error.empty()) {
    first_error = why;
  }
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// The end-to-end rates and latencies of a phase. Load from outside the
// process only ever slows a slice down: on a shared host the same work
// takes up to 1.7x the CPU time for seconds at a stretch while a neighbour
// is busy, with no steal time to show for it. So they come from the tenth
// of the slices with the highest throughput (at least kMinQuiet slices),
// which a run of 30 s has even when most of it is slowed; the spread of all
// slices is printed.
constexpr double kQuietShare = 0.1;
constexpr size_t kMinQuiet = 3;

struct Summary {
  double p50_us = 0;
  double p99_us = 0;
  double ops_per_s = 0;
  double cpu_us_per_op = 0;
};

Summary Summarize(const Phase& ph) {
  std::vector<const Slice*> quiet;
  for (const Slice& s : ph.slices) {
    quiet.push_back(&s);
  }
  std::sort(quiet.begin(), quiet.end(),
            [](const Slice* a, const Slice* b) { return a->ops_per_s > b->ops_per_s; });
  const size_t n = std::min(quiet.size(), std::max(kMinQuiet, static_cast<size_t>(
                                                            static_cast<double>(quiet.size()) *
                                                            kQuietShare)));
  // A stall of a few milliseconds lands in a slice's tail but barely moves
  // its throughput, so the p99 takes its own quiet tenth: the lowest p99s.
  std::vector<double> p99;
  for (const Slice* s : quiet) {
    p99.push_back(s->p99_us);
  }
  std::sort(p99.begin(), p99.end());
  p99.resize(n);
  quiet.resize(n);
  std::vector<double> p50, ops, cpu;
  std::vector<uint32_t> pooled;
  for (const Slice* s : quiet) {
    p50.push_back(s->p50_us);
    ops.push_back(s->ops_per_s);
    cpu.push_back(s->cpu_us_per_op);
    pooled.insert(pooled.end(), s->lat_ns.begin(), s->lat_ns.end());
  }
  Summary sum{Median(p50), Median(p99), Median(ops), Median(cpu)};
  if (!pooled.empty()) {
    std::sort(pooled.begin(), pooled.end());
    sum.p50_us = PercentileUs(pooled, 50);
    sum.p99_us = PercentileUs(pooled, 99);
  }
  return sum;
}

// The resident high-water mark of this program image. getrusage's ru_maxrss
// would also count the parent's pages that a fork copied before the exec.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) {
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void Usage() {
  std::fprintf(stderr,
               "usage: ledger --workload gesture|browse|crowd --seed N --seconds S "
               "--trace 0|1\n");
}

// How many times setup runs; setup_s is the median.
constexpr int kSetups = 5;

int Main(int argc, char** argv) {
  std::string workload;
  long long seed = -1;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* val = argv[i + 1];
    if (flag == "--workload") {
      workload = val;
    } else if (flag == "--seed") {
      seed = std::atoll(val);
    } else if (flag == "--seconds") {
      seconds = std::atof(val);
    } else if (flag == "--trace") {
      trace = std::atoi(val);
    } else {
      Usage();
      return 2;
    }
  }
  if (argc % 2 != 1 || seed < 0 || seconds <= 0 || (trace != 0 && trace != 1)) {
    Usage();
    return 2;
  }
  // Each connection is a client thread, and its requests also run on the
  // listener's loop and worker threads. Two connections keep the runnable
  // threads below a 4-core machine's cores; with four, the scheduler's
  // choices show in every metric.
  int conns = static_cast<int>(std::min(2u, std::max(1u, std::thread::hardware_concurrency())));
  std::unique_ptr<Workload> wl;
  if (workload == "gesture") {
    wl = MakeGesture(static_cast<uint64_t>(seed));
  } else if (workload == "browse" || workload == "crowd") {
    wl = MakeSocket(static_cast<uint64_t>(seed), workload == "crowd", conns);
  } else {
    Usage();
    return 2;
  }

  std::vector<double> setups;
  for (int i = 0; i < kSetups; i++) {
    std::string why;
    uint64_t t0 = NowNs();
    if (!wl->Setup(&why)) {
      std::fprintf(stderr, "ledger: %s setup failed: %s\n", workload.c_str(), why.c_str());
      return 1;
    }
    setups.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  const double setup_s = Median(setups);

  Phase base = wl->Run(trace ? seconds / 2 : seconds, false);
  Phase traced;
  if (trace) {
    traced = wl->Run(seconds / 2, true);
  }
  std::string why;
  bool final_ok = wl->FinalCheck(&why);
  Phase all = base;
  all.Merge(traced);
  if (!final_ok) {
    all.Fail(why);
  }
  if (!all.first_error.empty()) {
    std::fprintf(stderr, "ledger: %s: %s\n", workload.c_str(), all.first_error.c_str());
  }

  const Counters& d = base.delta;
  std::printf("workload %s  seed %lld  seconds %g  connections %d  trace %d\n",
              workload.c_str(), seed, seconds, workload == "gesture" ? 0 : conns, trace);
  std::printf("ops %llu  failed %llu  latency samples %llu in %zu slices\n",
              static_cast<unsigned long long>(all.attempted),
              static_cast<unsigned long long>(all.failed),
              static_cast<unsigned long long>(base.attempted), base.slices.size());
  std::printf("shares  non-ASCII bytes read %.4f  write ops %.4f  epoch-exclusive %.4f  "
              "windows %zu -> %zu\n",
              Ratio(base.non_ascii_read, base.bytes_read),
              Ratio(base.write_ops, base.attempted), Ratio(d.epoch_exclusive, d.ninep_ops),
              base.windows_start, base.windows_end);

  // How much the slices of this run differ: load from outside the process
  // shows here first.
  for (auto [name, field] : {std::pair{"op_p50_us", &Slice::p50_us},
                             std::pair{"op_p99_us", &Slice::p99_us},
                             std::pair{"ops_per_s", &Slice::ops_per_s},
                             std::pair{"cpu_us_per_op", &Slice::cpu_us_per_op}}) {
    std::vector<double> s;
    for (const Slice& sl : base.slices) {
      s.push_back(sl.*field);
    }
    std::sort(s.begin(), s.end());
    if (!s.empty()) {
      std::printf("slices %-14s n %3zu  min %10.1f  q1 %10.1f  median %10.1f  q3 %10.1f  "
                  "max %10.1f\n",
                  name, s.size(), s.front(), s[s.size() / 4], s[s.size() / 2],
                  s[s.size() * 3 / 4], s.back());
    }
  }
  const Summary sum = Summarize(base);
  std::vector<Metric> metrics;
  if (!trace) {
    metrics = {
        {"op_p50_us", sum.p50_us, "us"},
        {"op_p99_us", sum.p99_us, "us"},
        {"ops_per_s", sum.ops_per_s, "1/s"},
        {"cpu_us_per_op", sum.cpu_us_per_op, "us"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
  } else {
    const LayerTable& t = traced.layers;
    auto mean_us = [&](Layer l) { return Ratio(t[l].ns / 1000.0, t[l].calls); };
    metrics = {
        {"net.wire_us", Ratio((static_cast<double>(t[kNetRtt].ns) - t[kDispatch].ns) / 1000.0,
                              t[kNetRtt].calls),
         "us"},
        {"net.queue_wait_us",
         static_cast<double>(help::obs::Histogram::PercentileOf(d.queue_wait, 99)), "us"},
        {"net.writev_per_reply", Ratio(d.writev_calls, base.wire_replies), "writev/reply"},
        {"ninep.dispatch_us", mean_us(kDispatch), "us"},
        {"ninep.lock_wait_us", mean_us(kLockWait), "us"},
        {"ninep.handler_us", mean_us(kHandler), "us"},
        {"ninep.encode_us", mean_us(kEncode), "us"},
        {"ninep.read_retry_ratio", Ratio(d.read_retries, d.shared_reads), "ratio"},
        {"ninep.epoch_exclusive_ratio", Ratio(d.epoch_exclusive, d.ninep_ops), "ratio"},
        {"ninep.zero_copy_ratio", Ratio(d.bytes_zero_copy, d.bytes_zero_copy + d.bytes_staged),
         "ratio"},
        {"help.win_lookup_us", mean_us(kWinLookup), "us"},
        {"help.append_us", mean_us(kAppend), "us"},
        {"help.exec_us", mean_us(kExec), "us"},
        {"text.utf8_substr_us", mean_us(kUtf8Substr), "us"},
        {"wm.relayout_us", mean_us(kRelayout), "us"},
        {"wm.place_us", mean_us(kPlace), "us"},
        {"draw.render_us", mean_us(kRender), "us"},
        {"shell.run_us", mean_us(kShellRun), "us"},
        {"shell.cache_hit_ratio",
         Ratio(d.shell_cache_hit, d.shell_cache_hit + d.shell_cache_miss), "ratio"},
        {"shell.vm_ops_per_script", Ratio(d.vm_ops, d.shell_cache_hit + d.shell_cache_miss),
         "ops/script"},
        {"search.address_us", mean_us(kAddress), "us"},
        // The walkthrough evaluates no /re/ address itself; the traced
        // phase's address probes do.
        {"search.regexp_cache_hit_ratio",
         Ratio(traced.delta.regexp_cache_hit,
               traced.delta.regexp_cache_hit + traced.delta.regexp_cache_miss),
         "ratio"},
        {"trace.overhead_ratio", Ratio(Summarize(traced).cpu_us_per_op, sum.cpu_us_per_op),
         "ratio"},
        {"failed_ratio", Ratio(all.failed, all.attempted), "ratio"},
        {"op_samples", static_cast<double>(base.attempted), "count"},
        {"work.non_ascii_read_share", Ratio(base.non_ascii_read, base.bytes_read), "ratio"},
        {"work.write_op_share", Ratio(base.write_ops, base.attempted), "ratio"},
        {"work.windows_start", static_cast<double>(base.windows_start), "count"},
        {"work.windows_end", static_cast<double>(base.windows_end), "count"},
    };

    // Per-layer table. Layers are timed by separate calls on the same
    // inputs, so a layer's self time per op is its time per op minus that
    // of its children in the workload's layer model (Workload::Parent).
    double ops = static_cast<double>(traced.traced_ops);
    std::printf("\n%-18s %-16s %9s %11s %11s %11s\n", "layer", "parent", "calls", "us/call",
                "us/op", "self us/op");
    for (int l = 0; l < kLayerCount; l++) {
      if (t[l].calls == 0) {
        continue;
      }
      double per_op = Ratio(t[l].ns / 1000.0, ops);
      double children = 0;
      for (int c = 0; c < kLayerCount; c++) {
        if (wl->Parent(static_cast<Layer>(c)) == l) {
          children += Ratio(t[c].ns / 1000.0, ops);
        }
      }
      int parent = wl->Parent(static_cast<Layer>(l));
      std::printf("%-18s %-16s %9llu %11.3f %11.3f %11.3f\n", LayerName(static_cast<Layer>(l)),
                  parent < 0 ? "-" : LayerName(static_cast<Layer>(parent)),
                  static_cast<unsigned long long>(t[l].calls), mean_us(static_cast<Layer>(l)),
                  per_op, std::max(0.0, per_op - children));
    }
    std::printf("traced ops %llu, untraced cpu %.3f us/op, traced cpu %.3f us/op\n\n",
                static_cast<unsigned long long>(traced.traced_ops), sum.cpu_us_per_op,
                Summarize(traced).cpu_us_per_op);
  }

  std::string json;
  for (const Metric& m : metrics) {
    std::printf("%-30s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
    json += help::StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                            json.empty() ? "" : ", ", m.name.c_str(), m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              all.failed == 0 ? "true" : "false", static_cast<unsigned long long>(all.attempted),
              static_cast<unsigned long long>(all.failed), json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace ledger

int main(int argc, char** argv) { return ledger::Main(argc, argv); }
