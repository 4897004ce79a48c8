// The multi-client 9P service front end. A NinepServer serves any number of
// transports; each client connection is a Session (see ninep.h).
//
// The contract: a Vfs is served by exactly one NinepServer (Help::ninep()
// for Help's tree), and a session has one driver at a time. The listener
// runs each connection's frames in arrival order on its one thread, and an
// in-process transport has one caller. Several threads may still use one
// server: the listener's loop, in-process transports, and the UI thread
// touching /mnt/help files through the Vfs.
//
// Every dispatch runs under one exclusive dispatch lock, so the Vfs and
// Help's synthetic-file handlers always see a single-threaded tree. Decode
// and encode run outside it. Tflush is dispatched like any request and
// answered Rflush: on a serial session the request it names was answered
// before it arrived. A thread never takes the dispatch lock twice: re-entry
// (a /mnt/help handler invoked from a dispatch that already holds the lock)
// is detected with a thread-local holder check and becomes a no-op.
//
// state_mu_ guards the session table, which the listener and the
// /mnt/help/net files reach outside the dispatch lock; it is held briefly
// and nothing is taken under it. Per-op counters and latency histograms,
// plus the lock-wait histogram, are recorded into a NinepMetrics (a view
// over the process-wide obs::Registry) which /mnt/help/stats serves.
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
    DispatchGuard(DispatchGuard&& o) noexcept : srv_(o.srv_) { o.srv_ = nullptr; }
    DispatchGuard& operator=(DispatchGuard&& o) noexcept {
      if (this != &o) {
        Release();
        srv_ = o.srv_;
        o.srv_ = nullptr;
      }
      return *this;
    }
    ~DispatchGuard() { Release(); }
    DispatchGuard(const DispatchGuard&) = delete;
    DispatchGuard& operator=(const DispatchGuard&) = delete;

   private:
    friend class NinepServer;
    explicit DispatchGuard(NinepServer* srv) : srv_(srv) {}
    void Release();

    NinepServer* srv_ = nullptr;  // nullptr: owns no lock
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
  // lock, encode. Any thread may drive a session, one at a time. Every reply,
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
  // unknown sessions). This and open_fids(id) take only state_mu_ and read
  // an atomic, so the /mnt/help/net status handlers, which must not touch
  // the dispatch lock, may call them.
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

 private:
  std::shared_ptr<Session> FindSession(SessionId id) const;
  SessionId EnsureDefaultSession();
  // Looks up the session and dispatches `t` under the lock.
  Fcall Process(SessionId id, const Fcall& t);

  Vfs* vfs_;
  NinepMetrics metrics_;
  NetState net_{this};

  // state_mu_ guards the session table only.
  mutable std::mutex state_mu_;
  std::mutex dispatch_mu_;
  std::map<SessionId, std::shared_ptr<Session>> sessions_;
  SessionId next_session_ = 1;
  SessionId default_session_ = 0;  // 0 = not yet created
};

}  // namespace help

#endif  // SRC_FS_SERVER_H_
