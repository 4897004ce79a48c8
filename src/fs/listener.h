// The socket front end of the 9P service, for Linux: one event-loop thread
// multiplexes every accepted connection on its own epoll fd and runs each
// request to completion. One connection == one Session, so fid tables, msize,
// and tag bookkeeping isolate exactly as they do in-process.
//
// The loop thread does everything: accept, read, deframe, dispatch, flush,
// idle reaping, close. Each readable event deframes what arrived, runs the
// frames through NinepServer::HandleBytes in arrival order, appends every
// reply to the connection's outbox (one byte string), and drains it with one
// send. Replies therefore leave each connection in request order. A
// pipelining client still gains from its window: one wakeup and one send
// carry many requests and replies. The dispatch lock is still taken per
// request, because the UI thread and the in-process transports dispatch too.
// The loop wakes only for socket events, the wake pipe (Stop), and the idle
// deadline.
//
// Backpressure: each connection's outbound queue is bounded. When the outbox
// exceeds max_outbox_bytes the loop stops dispatching that connection
// (stalled) with frames still in its inbox and drops read interest, so the
// kernel socket buffer — and eventually the peer — absorbs the pressure.
// Once the outbox drains below half the bound the connection unstalls,
// dispatches its pending frames, and reads again. Counted in
// net.backpressure_stalls. An outbox that drains empty frees its buffer, so
// an idle connection holds no outbox memory however large a burst grew it.
//
// Idle reaping: a connection with no traffic for idle_timeout_ms is closed
// and its session torn down — CloseSession clunks every open fid through the
// normal handler path, so an abandoned client cannot pin windows or leak
// sessions. Counted in net.reaped. The loop keeps one deadline, the earliest
// last-activity time plus the timeout, and scans the connections only when
// it passes: activity only moves a connection's deadline later, and a new
// connection's deadline is never earlier than an existing one's, so the
// deadline is never late.
//
// Hostile-wire policy: a frame header that lies (size < 7 or > kMaxFrameSize)
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

// Namespace-scope (not nested) so `NinepListener(&srv, {.idle_timeout_ms =
// 100})` and the defaulted-argument constructor both work — a nested
// aggregate's default member initializers are not usable until the enclosing
// class is complete.
struct ListenerOptions {
  size_t max_outbox_bytes = 1 << 20;  // backpressure high-water per conn
  int idle_timeout_ms = 0;            // 0 = never reap idle connections
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
  // closes; then updates its epoll interest.
  void Pump(const ConnPtr& c);
  // Runs inbox frames through the server in order until the inbox is empty
  // or the outbox exceeds max_outbox_bytes (which stalls the connection).
  void Dispatch(const ConnPtr& c);
  // Sends c->outbox's unsent bytes as far as the socket allows, in one send,
  // and frees the buffer once it is empty. False when the socket broke and
  // the connection closed.
  bool Flush(const ConnPtr& c);
  // Registers (EPOLL_CTL_ADD) or changes (EPOLL_CTL_MOD) fd's interest.
  Status Watch(int op, int fd, bool want_read, bool want_write);
  // Issues EPOLL_CTL_MOD only when c's read or write interest changed.
  void UpdateInterest(const ConnPtr& c);
  // Deregisters the fd (its close(2) waits for the end of this event batch),
  // erases the connection, and tears its session down.
  void CloseConn(const ConnPtr& c, bool reaped);
  // Closes every connection idle for idle_timeout_ms and sets next_reap_ms_
  // to the earliest deadline among the survivors.
  void ReapIdle();
  // Closes the epoll fd and the wake pipe, whichever are open.
  void CloseLoopFds();
  void WakeLoop();
  void DrainWakePipe();
  uint64_t NowMs() const;

  NinepServer* srv_;
  Options opt_;
  int ep_ = -1;  // the epoll fd
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
  uint64_t next_reap_ms_ = 0;  // the idle deadline; 0: scan on the first pass
};

}  // namespace help

#endif  // SRC_FS_LISTENER_H_
