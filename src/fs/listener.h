// The socket front end of the 9P service: one event-loop thread multiplexes
// every accepted connection with epoll (poll on non-Linux, or on request) and
// runs each request to completion. One connection == one Session, so fid
// tables, msize, and tag bookkeeping isolate exactly as they do in-process.
//
// The loop thread does everything: accept, read, deframe, dispatch, flush,
// timers, close. Each readable event deframes what arrived, runs the frames
// through NinepServer::HandleBytes in arrival order, appends every reply to
// the connection's outbox, and drains the outbox with one scatter-gather
// sendmsg. Replies therefore leave each connection in request order. A
// pipelining client still gains from its window: one wakeup and one sendmsg
// carry many requests and replies. The dispatch lock is still taken per
// request, because the UI thread and the in-process transports dispatch too.
//
// Backpressure: each connection's outbound queue is bounded. When the outbox
// exceeds max_outbox_bytes the loop stops dispatching that connection
// (stalled) with frames still in its inbox and drops read interest, so the
// kernel socket buffer — and eventually the peer — absorbs the pressure.
// Once the outbox drains below half the bound the connection unstalls,
// dispatches its pending frames, and reads again. Counted in
// net.backpressure_stalls.
//
// Idle reaping: a connection with no traffic for idle_timeout_ms is closed
// and its session torn down — CloseSession clunks every open fid through the
// normal handler path, so an abandoned client cannot pin windows or leak
// sessions. Counted in net.reaped.
//
// Hostile-wire policy: a frame header that lies (size < 7 or > max_frame)
// poisons the stream — the connection is closed immediately, counted in
// net.frame_errors. There is no resynchronizing a framed stream after a bad
// length. On EOF, a poisoned stream, or a broken socket, frames not yet
// dispatched and replies not yet written are discarded with the connection.
#ifndef SRC_FS_LISTENER_H_
#define SRC_FS_LISTENER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/base/status.h"
#include "src/fs/server.h"
#include "src/fs/transport.h"

namespace help {

// Readiness-notification backend: epoll on Linux, poll(2) everywhere (and on
// Linux when forced, so the fallback stays tested on CI hardware that has
// epoll).
class Poller {
 public:
  struct Event {
    int fd;
    bool readable;
    bool writable;
    bool error;  // EPOLLERR/EPOLLHUP (POLLERR/POLLHUP/POLLNVAL)
  };

  virtual ~Poller() = default;
  virtual Status Add(int fd, bool want_read, bool want_write) = 0;
  virtual Status Mod(int fd, bool want_read, bool want_write) = 0;
  virtual void Del(int fd) = 0;
  // Blocks up to timeout_ms; appends ready fds to *out. Returns the event
  // count (0 on timeout), -1 on hard failure.
  virtual int Wait(std::vector<Event>* out, int timeout_ms) = 0;
};

// kAuto picks epoll on Linux, poll elsewhere.
enum class PollerKind : uint8_t { kAuto, kEpoll, kPoll };
std::unique_ptr<Poller> MakePoller(PollerKind kind);

// Namespace-scope (not nested) so `NinepListener(&srv, {.tick_ms = 10})` and
// the defaulted-argument constructor both work — a nested aggregate's default
// member initializers are not usable until the enclosing class is complete.
struct ListenerOptions {
  uint32_t max_frame = kMaxFrameSize;  // inbound frame cap (protocol limit)
  size_t max_outbox_bytes = 1 << 20;   // backpressure high-water per conn
  int idle_timeout_ms = 0;             // 0 = never reap idle connections
  int tick_ms = 50;                    // loop wakeup granularity
  // Cadence of the idle-reap scan. 0 scans on every loop wakeup (bounded by
  // tick_ms / idle_timeout_ms, the historical behavior); a short tick makes
  // reaping prompt even when tick_ms is long, a long one amortizes the scan
  // on busy listeners.
  int reap_tick_ms = 0;
  PollerKind poller = PollerKind::kAuto;
};

class NinepListener {
 public:
  using Options = ListenerOptions;

  explicit NinepListener(NinepServer* srv, Options opt = {});
  ~NinepListener();

  NinepListener(const NinepListener&) = delete;
  NinepListener& operator=(const NinepListener&) = delete;

  // Bind endpoints (either or both, before Start). TCP port 0 binds an
  // ephemeral port; read it back with port().
  Status ListenTcp(const std::string& host, uint16_t port);
  Status ListenUnix(const std::string& path);
  uint16_t port() const { return port_; }

  // Spawns the event-loop thread. Stop() (or the destructor) closes every
  // connection, tears down every session, and joins it.
  Status Start();
  void Stop();

  // Live connection count (the net.active_conns gauge reads the same).
  size_t active_conns() const;

 private:
  struct Conn;
  using ConnPtr = std::shared_ptr<Conn>;

  void LoopMain();
  void HandleAccept(int listen_fd);
  void HandleReadable(const ConnPtr& c);
  // Dispatches c's inbox and flushes its outbox until the inbox is empty,
  // the connection stalls on a full outbox the socket cannot drain, or it
  // closes; then updates its poller interest.
  void Pump(const ConnPtr& c);
  // Runs inbox frames through the server in order until the inbox is empty
  // or the outbox exceeds max_outbox_bytes (which stalls the connection).
  void Dispatch(const ConnPtr& c);
  // Writes c->outbox as far as the socket allows (scatter-gather over the
  // segment deque). False when the socket broke and the connection closed.
  bool Flush(const ConnPtr& c);
  void UpdateInterest(const ConnPtr& c);
  // Deregisters the fd (its close(2) waits for the end of this event batch),
  // erases the connection, and tears its session down.
  void CloseConn(const ConnPtr& c, bool reaped);
  void ReapIdle();
  void WakeLoop();
  void DrainWakePipe();
  uint64_t NowMs() const;

  NinepServer* srv_;
  Options opt_;
  std::unique_ptr<Poller> poller_;
  std::vector<int> listen_fds_;
  std::string unix_path_;  // unlinked on Stop
  uint16_t port_ = 0;
  int wake_rd_ = -1;  // the wake pipe: Stop() interrupts the loop's wait
  int wake_wr_ = -1;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};

  std::thread loop_;

  // The connection table. Only the loop touches it, except that
  // active_conns() reads its size from other threads: inserts, erases, and
  // that read take the mutex.
  mutable std::mutex conns_mu_;
  std::map<int, ConnPtr> conns_;

  // fds whose close(2) is deferred to the end of the current event batch, so
  // a just-closed fd cannot be reused by an accept earlier in the same batch
  // and alias a stale event.
  std::vector<int> deferred_close_;
  uint64_t next_reap_ms_ = 0;  // 0 or overdue: scan on the next pass
};

}  // namespace help

#endif  // SRC_FS_LISTENER_H_
