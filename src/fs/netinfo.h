// Per-connection introspection state and the slow-request flight recorder,
// following the Plan 9 /net idiom: every live connection is a numbered
// directory under /mnt/help/net/ with `status` and `stats` files, and the N
// slowest completed requests are a file (`net/slow`) instead of a profiler
// session. Everything here is updated with relaxed atomics from the listener
// loop and read by synthetic-file handlers on other threads WITHOUT the
// dispatch lock — a stalled dispatch can always be diagnosed from the very
// files that would deadlock if they serialized behind it.
#ifndef SRC_FS_NETINFO_H_
#define SRC_FS_NETINFO_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/fs/metrics.h"
#include "src/obs/trace.h"

namespace help {

class NinepServer;

// The request trace id that stamps every phase event of one request:
// connection id (24 bits) | 9P tag (16 bits) | per-connection monotonic
// frame seq (24 bits). seq starts at 1 so a valid rid is never 0 (0 means
// "not request-scoped" throughout the tracer).
inline uint64_t MakeRequestId(uint64_t cid, uint16_t tag, uint64_t seq) {
  return ((cid & 0xFFFFFFull) << 40) | (static_cast<uint64_t>(tag) << 24) |
         (seq & 0xFFFFFFull);
}

// One completed request's phase breakdown in nanoseconds. total_ns runs from
// the FrameReader yielding the frame to the last reply byte entering the
// kernel socket buffer; the phases cover the interesting interior but do not
// sum to total (scheduling gaps between phases are real time too).
struct RequestRecord {
  uint64_t rid = 0;
  uint64_t cid = 0;
  uint16_t tag = 0;
  NinepOp op = NinepOp::kBad;
  uint64_t total_ns = 0;
  uint64_t queue_ns = 0;    // inbox wait: frame yield → dispatch
  uint64_t lock_ns = 0;     // dispatch-lock wait
  uint64_t handler_ns = 0;  // Session::Dispatch (the handler proper)
  uint64_t encode_ns = 0;   // reply encode
  uint64_t outbox_ns = 0;   // outbox append → wire write completed
};

// Keeps the kSlots slowest completed requests (by total_ns) at or above an
// optional threshold. Record() is called once per completed request on the
// listener loop thread; the common case — faster than everything already
// kept — is two relaxed loads and no lock.
class FlightRecorder {
 public:
  static constexpr size_t kSlots = 64;

  // Considers one completed request for the ring.
  void Record(const RequestRecord& r);
  void Clear();

  // Minimum total latency (µs) a request must reach to be considered at all.
  void set_threshold_us(uint64_t us) {
    threshold_ns_.store(us * 1000, std::memory_order_relaxed);
  }
  uint64_t threshold_us() const {
    return threshold_ns_.load(std::memory_order_relaxed) / 1000;
  }
  uint64_t seen() const { return seen_.load(std::memory_order_relaxed); }
  size_t kept() const;

  // Current entries, slowest first.
  std::vector<RequestRecord> Snapshot() const;
  // /mnt/help/net/slow: header + one line per kept request, slowest first.
  std::string RenderText() const;
  // /mnt/help/net/slowctl status payload.
  std::string RenderCtl() const;

 private:
  std::atomic<uint64_t> threshold_ns_{0};
  // Fast reject: once the ring is full, the smallest kept total. A request
  // below it can't displace anything, so Record returns without the lock.
  std::atomic<uint64_t> floor_ns_{0};
  std::atomic<uint64_t> seen_{0};
  mutable std::mutex mu_;
  std::vector<RequestRecord> slots_;
};

enum class ConnState : uint8_t { kActive, kStalled, kClosing };

const char* ConnStateName(ConnState s);

// Live counters for one socket connection. The writer is the listener loop
// thread; readers are the /mnt/help/net/<cid>/{status,stats} handlers. All
// fields are relaxed atomics or set-once — no lock anywhere.
class ConnInfo {
 public:
  ConnInfo(NinepServer* srv, uint64_t cid, std::string peer);

  uint64_t cid() const { return cid_; }
  const std::string& peer() const { return peer_; }

  void set_state(ConnState s) {
    state_.store(static_cast<uint8_t>(s), std::memory_order_relaxed);
  }
  ConnState state() const {
    return static_cast<ConnState>(state_.load(std::memory_order_relaxed));
  }

  void AddBytesIn(uint64_t n) { bytes_in_.fetch_add(n, std::memory_order_relaxed); }
  void AddBytesOut(uint64_t n) { bytes_out_.fetch_add(n, std::memory_order_relaxed); }
  void AddFrameIn() { frames_in_.fetch_add(1, std::memory_order_relaxed); }
  void RecordOp(NinepOp op, uint64_t latency_us, bool error);
  void RecordQueueWait(uint64_t us) { queue_wait_us_.Record(us); }
  // send() calls that drained this connection's outbox.
  void RecordWritev() { writev_calls_.fetch_add(1, std::memory_order_relaxed); }

  uint64_t bytes_in() const { return bytes_in_.load(std::memory_order_relaxed); }
  uint64_t bytes_out() const { return bytes_out_.load(std::memory_order_relaxed); }
  uint64_t frames_in() const { return frames_in_.load(std::memory_order_relaxed); }
  // Every request gets exactly one reply, so this is total_ops().
  uint64_t replies_out() const { return total_ops(); }
  uint64_t writev_calls() const {
    return writev_calls_.load(std::memory_order_relaxed);
  }
  uint64_t op_count(NinepOp op) const {
    return ops_[static_cast<size_t>(op)].count.load(std::memory_order_relaxed);
  }
  uint64_t total_ops() const;

  // /mnt/help/net/<cid>/status: peer, state, negotiated msize, live fid
  // count, frame/byte totals. Queries the owning server's session table
  // (state_mu_ and atomics only — never the dispatch lock).
  std::string RenderStatus() const;
  // /mnt/help/net/<cid>/stats: the op table of /mnt/help/stats for this
  // connection, then its latency (all ops merged) and queue-wait histograms.
  std::string RenderStats() const;
  // One roll-up line for /mnt/help/net/clients.
  std::string RenderClientLine() const;

 private:
  // Every op's count, errors and latency on this connection.
  OpTallies Tally() const;

  NinepServer* srv_;
  uint64_t cid_;
  std::string peer_;
  std::atomic<uint8_t> state_{0};
  std::atomic<uint64_t> bytes_in_{0};
  std::atomic<uint64_t> bytes_out_{0};
  std::atomic<uint64_t> frames_in_{0};
  std::atomic<uint64_t> writev_calls_{0};
  struct PerOp {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> errors{0};
    obs::Histogram latency_us{"latency_us"};
  };
  std::array<PerOp, kNinepOpCount> ops_;
  obs::Histogram queue_wait_us_{"queue_wait_us"};
};

// One server's connection table plus its flight recorder. Owned by
// NinepServer so lifetimes are trivial: the listener registers a connection
// at accept and deregisters it at close, and every ConnInfo's back-pointer is
// to the server that owns this NetState.
class NetState {
 public:
  explicit NetState(NinepServer* srv) : srv_(srv) {}

  NetState(const NetState&) = delete;
  NetState& operator=(const NetState&) = delete;

  std::shared_ptr<ConnInfo> Register(uint64_t cid, std::string peer);
  void Deregister(uint64_t cid);
  std::shared_ptr<ConnInfo> Find(uint64_t cid) const;
  // All live connections, ascending by cid.
  std::vector<std::shared_ptr<ConnInfo>> List() const;
  size_t conn_count() const;

  FlightRecorder& recorder() { return recorder_; }
  const FlightRecorder& recorder() const { return recorder_; }

  // /mnt/help/net/clients: header + one line per live connection.
  std::string RenderClients() const;

 private:
  NinepServer* srv_;
  mutable std::mutex mu_;
  std::map<uint64_t, std::shared_ptr<ConnInfo>> conns_;
  FlightRecorder recorder_;
};

}  // namespace help

#endif  // SRC_FS_NETINFO_H_
