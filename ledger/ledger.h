// The ledger benchmark's shared pieces: the seeded generator, clocks, the
// per-layer span table, program-counter snapshots, and the Workload interface
// that gesture.cc and socket.cc implement.
//
// Spans are recorded only here, around calls into each layer's public
// functions; the program itself is not instrumented for the benchmark.
#ifndef LEDGER_LEDGER_H_
#define LEDGER_LEDGER_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace ledger {

// splitmix64: every input the program receives derives from --seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t s_;
};

uint64_t NowNs();        // steady clock
uint64_t ProcessCpuNs();  // user + system CPU of the whole process

// The layers a traced run times. Each is a span around one public call.
enum Layer : int {
  kStep,        // gesture: one walkthrough step, gestures through render
  kExec,        // Help::MouseExec (button 2)
  kShellRun,    // a registered native tool command (outermost only)
  kRender,      // Help::Render
  kPlace,       // Help::OpenFile on the step's address
  kAddress,     // EvalAddress on file:line and /re/ addresses
  kNetRtt,      // one client request over the socket
  kDispatch,    // NinepServer::HandleBytes replayed in-process
  kLockWait,    //   its RequestObs lock wait
  kHandler,     //   its RequestObs handler time
  kEncode,      //   its RequestObs reply encode
  kWinLookup,   // Help::AllWindows
  kUtf8Substr,  // Text::Utf8Substr on the request's range
  kAppend,      // Help::AppendBody
  kRelayout,    // Window::Relayout
  kLayerCount,
};
const char* LayerName(Layer l);

struct LayerStat {
  uint64_t calls = 0;
  uint64_t ns = 0;
};
using LayerTable = std::array<LayerStat, kLayerCount>;

// One thread's span totals; merged into the phase after the threads join.
// A null sink (untraced runs) records nothing.
class SpanSink {
 public:
  void Add(Layer l, uint64_t ns) {
    t_[l].calls++;
    t_[l].ns += ns;
  }
  const LayerTable& table() const { return t_; }

 private:
  LayerTable t_{};
};

class Span {
 public:
  Span(SpanSink* sink, Layer l) : sink_(sink), layer_(l), t0_(sink ? NowNs() : 0) {}
  ~Span() {
    if (sink_ != nullptr) {
      sink_->Add(layer_, NowNs() - t0_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanSink* sink_;
  Layer layer_;
  uint64_t t0_;
};

// Process-global program counters (the obs registry behind NinepMetrics and
// /mnt/help/metrics), read as before/after deltas and never reset.
struct Counters {
  uint64_t ninep_ops = 0;
  uint64_t shared_reads = 0;
  uint64_t read_retries = 0;
  uint64_t epoch_exclusive = 0;
  uint64_t bytes_zero_copy = 0;
  uint64_t bytes_staged = 0;
  uint64_t writev_calls = 0;
  uint64_t shell_cache_hit = 0;
  uint64_t shell_cache_miss = 0;
  uint64_t vm_ops = 0;
  uint64_t regexp_cache_hit = 0;
  uint64_t regexp_cache_miss = 0;
  std::array<uint64_t, 32> queue_wait{};  // net.queue_wait_us buckets

  static Counters Read();
  Counters operator-(const Counters& before) const;
};

// One slice of the timed interval: a round of walks, or half a second of
// socket traffic.
struct Slice {
  double ops_per_s = 0;
  double cpu_us_per_op = 0;  // process CPU
  double p50_us = 0;
  double p99_us = 0;
  // Kept when a slice is too small for its own p99 (a round of walks), so
  // the percentiles can be taken over several slices' samples together.
  std::vector<uint32_t> lat_ns;
};

// What one timed phase measured.
struct Phase {
  uint64_t attempted = 0;
  uint64_t failed = 0;           // failed requests and wrong outputs
  std::vector<uint32_t> lat_ns;  // the current slice's op latencies
  std::vector<Slice> slices;
  uint64_t bytes_read = 0;
  uint64_t non_ascii_read = 0;
  uint64_t write_ops = 0;
  uint64_t wire_replies = 0;     // replies received over the socket
  size_t windows_start = 0;
  size_t windows_end = 0;
  uint64_t traced_ops = 0;       // ops whose layers were timed
  LayerTable layers{};
  Counters delta;
  std::string first_error;

  void Merge(const Phase& o);
  void Fail(const std::string& why);
  // Closes the current slice: `ops` completed in `wall_s` using `cpu_s`.
  void EndSlice(uint64_t ops, double wall_s, double cpu_s, bool keep_samples);
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds the world and warms it up; false (with *why) on failure. Setup
  // runs several times per invocation and its median is setup_s, so it
  // first discards any previous world.
  virtual bool Setup(std::string* why) = 0;
  // Runs the closed loop for `seconds`; with `trace`, also times the layers.
  virtual Phase Run(double seconds, bool trace) = 0;
  // Output checks that need the whole run (crowd: final body lengths).
  virtual bool FinalCheck(std::string* why) { return true; }
  // The parent of each layer in this workload's layer model (or -1), used
  // to turn per-op layer totals into self times.
  virtual int Parent(Layer l) const = 0;
};

std::unique_ptr<Workload> MakeGesture(uint64_t seed);
// browse: 8 windows of 32 KiB ASCII, reads only. crowd: 2000 windows of
// mixed UTF-8, reads, appends and ctl writes.
std::unique_ptr<Workload> MakeSocket(uint64_t seed, bool crowd, int conns);

}  // namespace ledger

#endif  // LEDGER_LEDGER_H_
