#include "src/fs/metrics.h"

#include <cstdio>

#include "src/base/strings.h"
#include "src/fs/ninep.h"

namespace help {

NinepOp OpOfMsgType(MsgType t) {
  switch (t) {
    case MsgType::kTversion:
      return NinepOp::kVersion;
    case MsgType::kTattach:
      return NinepOp::kAttach;
    case MsgType::kTflush:
      return NinepOp::kFlush;
    case MsgType::kTwalk:
      return NinepOp::kWalk;
    case MsgType::kTopen:
      return NinepOp::kOpen;
    case MsgType::kTcreate:
      return NinepOp::kCreate;
    case MsgType::kTread:
      return NinepOp::kRead;
    case MsgType::kTwrite:
      return NinepOp::kWrite;
    case MsgType::kTclunk:
      return NinepOp::kClunk;
    case MsgType::kTremove:
      return NinepOp::kRemove;
    case MsgType::kTstat:
      return NinepOp::kStat;
    default:
      return NinepOp::kBad;
  }
}

const char* NinepOpName(NinepOp op) {
  switch (op) {
    case NinepOp::kVersion:
      return "version";
    case NinepOp::kAttach:
      return "attach";
    case NinepOp::kFlush:
      return "flush";
    case NinepOp::kWalk:
      return "walk";
    case NinepOp::kOpen:
      return "open";
    case NinepOp::kCreate:
      return "create";
    case NinepOp::kRead:
      return "read";
    case NinepOp::kWrite:
      return "write";
    case NinepOp::kClunk:
      return "clunk";
    case NinepOp::kRemove:
      return "remove";
    case NinepOp::kStat:
      return "stat";
    case NinepOp::kBad:
      return "bad";
  }
  return "?";
}

NinepMetrics::NinepMetrics() {
  // All NinepServer instances in a process share the registry entries:
  // /mnt/help/metrics and /mnt/help/stats agree by construction, and the
  // counters survive server teardown (they describe the process, not one
  // server). Handles are cached once here so the hot path never takes the
  // registry lock.
  obs::Registry& reg = obs::Registry::Global();
  for (size_t i = 0; i < kNinepOpCount; i++) {
    const char* op = NinepOpName(static_cast<NinepOp>(i));
    ops_[i].count = reg.GetCounter(StrFormat("ninep.%s.count", op));
    ops_[i].errors = reg.GetCounter(StrFormat("ninep.%s.errors", op));
    ops_[i].latency = reg.GetHistogram(StrFormat("ninep.%s.latency_us", op));
  }
  bytes_in_ = reg.GetCounter("ninep.bytes_in");
  bytes_out_ = reg.GetCounter("ninep.bytes_out");
  in_flight_ = reg.GetCounter("ninep.in_flight");
  flush_cancels_ = reg.GetCounter("ninep.flush_cancels");
  lock_wait_ = reg.GetHistogram("ninep.lock.wait_us");
  net_accepts_ = reg.GetCounter("net.accepts");
  net_active_ = reg.GetCounter("net.active_conns");
  net_reaped_ = reg.GetCounter("net.reaped");
  net_stalls_ = reg.GetCounter("net.backpressure_stalls");
  net_frame_errors_ = reg.GetCounter("net.frame_errors");
  net_bytes_in_ = reg.GetCounter("net.bytes_in");
  net_bytes_out_ = reg.GetCounter("net.bytes_out");
  net_queue_wait_ = reg.GetHistogram("net.queue_wait_us");
  net_writev_calls_ = reg.GetCounter("net.writev_calls");
}

void NinepMetrics::RecordOp(NinepOp op, uint64_t latency_us, bool error) {
  PerOp& p = ops_[Idx(op)];
  p.count->Add();
  if (error) {
    p.errors->Add();
  }
  p.latency->Record(latency_us);
}

uint64_t NinepMetrics::total_ops() const {
  uint64_t total = 0;
  for (const PerOp& p : ops_) {
    total += p.count->value();
  }
  return total;
}

uint64_t NinepMetrics::LatencyPercentileUs(NinepOp op, double p) const {
  return ops_[Idx(op)].latency->Percentile(p);
}

uint64_t NinepMetrics::OverallPercentileUs(double p) const {
  std::array<uint64_t, kBuckets> h{};
  for (const PerOp& per : ops_) {
    std::array<uint64_t, kBuckets> s = per.latency->Snapshot();
    for (size_t b = 0; b < kBuckets; b++) {
      h[b] += s[b];
    }
  }
  return obs::Histogram::PercentileOf(h, p);
}

std::string NinepMetrics::Render() const {
  char line[160];
  std::string out = "op count errs p50us p99us\n";
  for (size_t i = 0; i < kNinepOpCount; i++) {
    NinepOp op = static_cast<NinepOp>(i);
    uint64_t n = count(op);
    if (n == 0) {
      continue;
    }
    std::snprintf(line, sizeof(line), "%s %llu %llu %llu %llu\n", NinepOpName(op),
                  static_cast<unsigned long long>(n),
                  static_cast<unsigned long long>(errors(op)),
                  static_cast<unsigned long long>(LatencyPercentileUs(op, 50)),
                  static_cast<unsigned long long>(LatencyPercentileUs(op, 99)));
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "bytes_in %llu\nbytes_out %llu\nin_flight %llu\nflush_cancels %llu\n",
                static_cast<unsigned long long>(bytes_in()),
                static_cast<unsigned long long>(bytes_out()),
                static_cast<unsigned long long>(in_flight()),
                static_cast<unsigned long long>(flush_cancels()));
  out += line;
  // Later blocks are appended after the first one so consumers that parse
  // from the top keep working.
  std::snprintf(line, sizeof(line), "lock_wait_p99us %llu\n",
                static_cast<unsigned long long>(lock_wait_->Percentile(99)));
  out += line;
  // The socket transport's connection-layer counters.
  std::snprintf(line, sizeof(line),
                "net_accepts %llu\nnet_active_conns %llu\nnet_reaped %llu\n",
                static_cast<unsigned long long>(net_accepts()),
                static_cast<unsigned long long>(net_active_conns()),
                static_cast<unsigned long long>(net_reaped()));
  out += line;
  std::snprintf(line, sizeof(line),
                "net_backpressure_stalls %llu\nnet_frame_errors %llu\n"
                "net_bytes_in %llu\nnet_bytes_out %llu\n",
                static_cast<unsigned long long>(net_backpressure_stalls()),
                static_cast<unsigned long long>(net_frame_errors()),
                static_cast<unsigned long long>(net_bytes_in()),
                static_cast<unsigned long long>(net_bytes_out()));
  out += line;
  // Outbox drains.
  std::snprintf(line, sizeof(line), "net_writev_calls %llu\n",
                static_cast<unsigned long long>(net_writev_calls()));
  out += line;
  return out;
}

void NinepMetrics::Reset() {
  for (PerOp& p : ops_) {
    p.count->Store(0);
    p.errors->Store(0);
    p.latency->Reset();
  }
  bytes_in_->Store(0);
  bytes_out_->Store(0);
  flush_cancels_->Store(0);
  lock_wait_->Reset();
  net_accepts_->Store(0);
  net_reaped_->Store(0);
  net_stalls_->Store(0);
  net_frame_errors_->Store(0);
  net_bytes_in_->Store(0);
  net_bytes_out_->Store(0);
  net_queue_wait_->Reset();
  net_writev_calls_->Store(0);
  // in_flight_ and net_active_ are live gauges; leave them alone.
}

}  // namespace help
