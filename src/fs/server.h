// The multi-client 9P service front end. A NinepServer serves any number of
// transports — each client connection is a Session (see ninep.h) — and may be
// driven from any thread: the socket listener's loop, the in-process
// transports, and the UI thread touching /mnt/help files directly.
//
// Every dispatch runs under one exclusive dispatch lock, so the Vfs and
// Help's synthetic-file handlers always see a single-threaded tree. Decode
// and encode run outside it. The listener serves all sockets from one
// thread, so on the socket path the lock is uncontended unless the UI
// thread or an in-process transport holds it.
//
// Tflush and duplicate-tag rejection happen against the session's tag table
// before the dispatch lock, so a client can cancel a request that is still
// waiting for the lock; the waiting request checks its cancellation mark
// once it holds the lock. Per-op counters and latency histograms — plus the
// lock-wait histogram — are recorded into a NinepMetrics (a view over the
// process-wide obs::Registry) which /mnt/help/stats serves.
//
// Lock order (acquire strictly downward — enforced in debug builds by
// src/fs/lockorder.h when HELP_LOCK_ASSERT is on):
//   1. dispatch_mu_          the dispatch lock, held around each dispatch
//                            and by LockDispatch
//   leaf: Session::fid_mu_   per-session fid-table bookkeeping; held only
//                            around map lookups/mutations, never across a
//                            handler call
//   leaf: state_mu_          the session table; held briefly, nothing else
//                            is ever acquired under it
//   leaf: Session::tag_mu_   tag bookkeeping, taken from outside the
//                            dispatch path too (Tflush must never wait
//                            behind a dispatch)
// A thread never takes dispatch_mu_ twice: re-entry (a /mnt/help handler
// invoked from a dispatch that already holds the lock) is detected with a
// thread-local holder check and becomes a no-op.
#ifndef SRC_FS_SERVER_H_
#define SRC_FS_SERVER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string_view>

#include "src/fs/metrics.h"
#include "src/fs/netinfo.h"
#include "src/fs/ninep.h"

namespace help {

// Per-request observability context the socket listener threads through
// HandleBytes: the request trace id goes in, the phase breakdown comes out
// (for the flight recorder). The in-process transports pass nullptr and pay
// nothing. Phase trace events are additionally emitted — stamped with `rid`
// — when the tracer is enabled.
struct RequestObs {
  uint64_t rid = 0;                // in: trace id (0 = unscoped)
  NinepOp op = NinepOp::kBad;      // out: decoded op
  bool error = false;              // out: reply was Rerror
  uint64_t lock_wait_ns = 0;       // out: dispatch-lock wait
  uint64_t handler_ns = 0;         // out: Session::Dispatch
  uint64_t encode_ns = 0;          // out: reply encode
};

// One complete reply packet, the out-parameter of the four-argument
// HandleBytes.
struct ReplyFrame {
  std::string bytes;
};

class NinepServer {
 public:
  using SessionId = uint64_t;

  // RAII ownership of one acquisition of the dispatch lock. A
  // default-constructed (or re-entrant) guard owns nothing.
  class DispatchGuard {
   public:
    DispatchGuard() = default;
    DispatchGuard(DispatchGuard&& o) noexcept
        : srv_(o.srv_), prev_srv_(o.prev_srv_) {
      o.srv_ = nullptr;
      o.prev_srv_ = nullptr;
    }
    DispatchGuard& operator=(DispatchGuard&& o) noexcept {
      if (this != &o) {
        Release();
        srv_ = o.srv_;
        prev_srv_ = o.prev_srv_;
        o.srv_ = nullptr;
        o.prev_srv_ = nullptr;
      }
      return *this;
    }
    ~DispatchGuard() { Release(); }
    DispatchGuard(const DispatchGuard&) = delete;
    DispatchGuard& operator=(const DispatchGuard&) = delete;

   private:
    friend class NinepServer;
    DispatchGuard(NinepServer* srv, const NinepServer* prev_srv)
        : srv_(srv), prev_srv_(prev_srv) {}
    void Release();

    NinepServer* srv_ = nullptr;  // nullptr: owns no lock
    // The thread's dispatch holder to restore on release. Normally null;
    // non-null when this guard nested inside a different server's dispatch
    // (a handler serializing against Help's own server while the request
    // arrived through another NinepServer over the same Vfs).
    const NinepServer* prev_srv_ = nullptr;
  };

  explicit NinepServer(Vfs* vfs);
  ~NinepServer();

  NinepServer(const NinepServer&) = delete;
  NinepServer& operator=(const NinepServer&) = delete;

  // --- Sessions (one per client connection/transport) -----------------------
  SessionId OpenSession();
  void CloseSession(SessionId id);
  size_t session_count() const;

  // Full byte path for one client: decode, dispatch under the dispatch
  // lock, encode. Thread-safe; any thread may drive any session. Every reply,
  // Rread included, is built by EncodeFcall from the dispatch's Fcall.
  std::string HandleBytes(SessionId id, std::string_view packet);
  // As above, with a request-observability context (see RequestObs; the
  // listener passes one per frame, `obs` may be null) and the reply written
  // into *out.
  void HandleBytes(SessionId id, std::string_view packet, RequestObs* obs,
                   ReplyFrame* out);

  // A Transport for NinepClient bound to one session of this server.
  NinepClient::Transport TransportFor(SessionId id);

  // --- Single-session convenience (the original in-process transport) ------
  // These drive an implicit default session, so `NinepServer server(&vfs);
  // NinepClient client(server.Transport());` keeps working.
  std::string HandleBytes(std::string_view packet);
  NinepClient::Transport Transport();
  Fcall Dispatch(const Fcall& t);
  size_t open_fids() const;

  // Per-session fid count (0 for unknown sessions).
  size_t open_fids(SessionId id) const;

  // The msize a session negotiated via Tversion (kDefaultMsize before, 0 for
  // unknown sessions). Leaf locks + one relaxed load — safe from the
  // /mnt/help/net status handlers, which must not touch the dispatch lock.
  uint32_t session_msize(SessionId id) const;

  // Serializes arbitrary work with protocol dispatch: acquires the dispatch
  // lock, or — when this thread already holds it (a /mnt/help handler
  // invoked from a dispatch) — returns a no-op guard instead of
  // deadlocking. The /mnt/help handlers take this so UI-thread file access
  // and socket dispatch cannot interleave inside Help.
  DispatchGuard LockDispatch();

  NinepMetrics& metrics() { return metrics_; }
  const NinepMetrics& metrics() const { return metrics_; }

  // This server's live-connection table and slow-request flight recorder
  // (populated by NinepListener, served by /mnt/help/net/).
  NetState& net() { return net_; }
  const NetState& net() const { return net_; }

  // Test hook: is `tag` currently in flight on `id`?
  bool TagInFlight(SessionId id, uint16_t tag) const;

 private:
  std::shared_ptr<Session> FindSession(SessionId id) const;
  SessionId EnsureDefaultSession();
  // Tag bookkeeping and Tflush, then the dispatch itself under the lock.
  Fcall Process(SessionId id, const Fcall& t);

  Vfs* vfs_;
  NinepMetrics metrics_;
  NetState net_{this};

  // state_mu_ guards the session table only; per-session bookkeeping lives
  // behind each Session's own locks (see ninep.h), so sessions never contend
  // with each other on fid or tag bookkeeping.
  mutable std::mutex state_mu_;
  std::mutex dispatch_mu_;
  std::map<SessionId, std::shared_ptr<Session>> sessions_;
  SessionId next_session_ = 1;
  SessionId default_session_ = 0;  // 0 = not yet created
};

}  // namespace help

#endif  // SRC_FS_SERVER_H_
