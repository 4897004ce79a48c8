// Observability for the 9P service: per-op counters, error counts, byte
// totals, an in-flight gauge, and log2-bucketed latency histograms. Since
// PR 3 this is a *view* over the process-wide obs::Registry (src/obs/trace.h)
// — the values live in named registry entries ("ninep.walk.count",
// "ninep.walk.latency_us", "ninep.bytes_in", ...) so /mnt/help/metrics sees
// the same numbers — but the public API and the byte format Render() produces
// for /mnt/help/stats are unchanged from PR 1.
#ifndef SRC_FS_METRICS_H_
#define SRC_FS_METRICS_H_

#include <array>
#include <cstdint>
#include <string>

#include "src/obs/trace.h"

namespace help {

enum class MsgType : uint8_t;

// The operations the service counts. kBad collects undecodable packets and
// non-T messages.
enum class NinepOp : uint8_t {
  kVersion,
  kAttach,
  kFlush,
  kWalk,
  kOpen,
  kCreate,
  kRead,
  kWrite,
  kClunk,
  kRemove,
  kStat,
  kBad,
};
inline constexpr size_t kNinepOpCount = static_cast<size_t>(NinepOp::kBad) + 1;

NinepOp OpOfMsgType(MsgType t);
const char* NinepOpName(NinepOp op);

class NinepMetrics {
 public:
  // Latency buckets: bucket i holds samples with floor(log2(us)) == i-1,
  // bucket 0 holds sub-microsecond samples. 2^31 us ≈ 36 min caps the top.
  static constexpr size_t kBuckets = obs::Histogram::kBuckets;

  NinepMetrics();

  void RecordOp(NinepOp op, uint64_t latency_us, bool error);
  void AddBytesIn(uint64_t n) { bytes_in_->Add(n); }
  void AddBytesOut(uint64_t n) { bytes_out_->Add(n); }
  void BeginRequest() { in_flight_->Add(); }
  void EndRequest() { in_flight_->Sub(); }
  void RecordFlushCancel() { flush_cancels_->Add(); }
  // Time a dispatch spent waiting for the dispatch lock.
  void RecordLockWait(uint64_t wait_us) { lock_wait_->Record(wait_us); }
  // PR 7 socket transport: connection-layer counters ("net.*" in the
  // registry), recorded by NinepListener. bytes here are raw wire bytes —
  // ninep.bytes_{in,out} keep counting framed protocol bytes, so the two
  // pairs agree only when every byte frames cleanly.
  void RecordAccept() {
    net_accepts_->Add();
    net_active_->Add();
  }
  void RecordDisconnect() { net_active_->Sub(); }
  void RecordReap() { net_reaped_->Add(); }
  void RecordBackpressureStall() { net_stalls_->Add(); }
  void RecordFrameError() { net_frame_errors_->Add(); }
  void AddNetBytesIn(uint64_t n) { net_bytes_in_->Add(n); }
  void AddNetBytesOut(uint64_t n) { net_bytes_out_->Add(n); }
  // Request tracing: time a frame sat in a connection's inbox before it
  // was dispatched ("net.queue_wait_us" — the registry/metrics view;
  // per-connection copies live in ConnInfo).
  void RecordNetQueueWait(uint64_t us) { net_queue_wait_->Record(us); }
  // send() calls that drained listener outboxes ("net.writev_calls").
  void RecordWritev() { net_writev_calls_->Add(); }

  uint64_t count(NinepOp op) const { return ops_[Idx(op)].count->value(); }
  uint64_t errors(NinepOp op) const { return ops_[Idx(op)].errors->value(); }
  uint64_t bytes_in() const { return bytes_in_->value(); }
  uint64_t bytes_out() const { return bytes_out_->value(); }
  uint64_t in_flight() const { return in_flight_->value(); }
  uint64_t flush_cancels() const { return flush_cancels_->value(); }
  uint64_t net_accepts() const { return net_accepts_->value(); }
  uint64_t net_active_conns() const { return net_active_->value(); }
  uint64_t net_reaped() const { return net_reaped_->value(); }
  uint64_t net_backpressure_stalls() const { return net_stalls_->value(); }
  uint64_t net_frame_errors() const { return net_frame_errors_->value(); }
  uint64_t net_bytes_in() const { return net_bytes_in_->value(); }
  uint64_t net_bytes_out() const { return net_bytes_out_->value(); }
  uint64_t net_writev_calls() const { return net_writev_calls_->value(); }
  uint64_t total_ops() const;

  // Approximate percentile (0 < p <= 100) of one op's latency, in
  // microseconds: the upper bound of the bucket holding the p-th sample.
  // Returns 0 when the op has no samples.
  uint64_t LatencyPercentileUs(NinepOp op, double p) const;
  // Percentile over all ops combined (used by the benchmarks).
  uint64_t OverallPercentileUs(double p) const;

  // The /mnt/help/stats payload: one "op count errs p50us p99us" line per
  // op that has traffic, then the scalar totals. Byte-compatible with PR 1.
  std::string Render() const;

  void Reset();

 private:
  struct PerOp {
    obs::Counter* count = nullptr;
    obs::Counter* errors = nullptr;
    obs::Histogram* latency = nullptr;
  };

  static size_t Idx(NinepOp op) { return static_cast<size_t>(op); }

  std::array<PerOp, kNinepOpCount> ops_{};
  obs::Counter* bytes_in_;
  obs::Counter* bytes_out_;
  obs::Counter* in_flight_;
  obs::Counter* flush_cancels_;
  obs::Histogram* lock_wait_;
  obs::Counter* net_accepts_;
  obs::Counter* net_active_;
  obs::Counter* net_reaped_;
  obs::Counter* net_stalls_;
  obs::Counter* net_frame_errors_;
  obs::Counter* net_bytes_in_;
  obs::Counter* net_bytes_out_;
  obs::Histogram* net_queue_wait_;
  obs::Counter* net_writev_calls_;
};

}  // namespace help

#endif  // SRC_FS_METRICS_H_
