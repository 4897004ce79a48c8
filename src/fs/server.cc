#include "src/fs/server.h"

#include <chrono>

#include "src/fs/lockorder.h"
#include "src/obs/trace.h"

namespace help {

namespace {

// Which server the calling thread currently holds the dispatch lock of. One
// entry suffices even when a handler serializes against a *different* server
// mid-dispatch (SerializedHandler taking Help's own server's LockDispatch
// while the bytes arrived through another NinepServer over the same Vfs): the
// inner guard saves the outer holder and restores it on release.
thread_local const NinepServer* tls_holder = nullptr;

// The RequestObs of the request this thread is currently dispatching, set by
// HandleBytes around Process so LockDispatch and Process can attribute
// lock-wait and handler time to it without threading a parameter through the
// dispatch chain. Null on the in-process transports and the UI thread.
thread_local RequestObs* tls_req_obs = nullptr;

}  // namespace

NinepServer::NinepServer(Vfs* vfs) : vfs_(vfs) {}

NinepServer::~NinepServer() = default;

std::shared_ptr<Session> NinepServer::FindSession(SessionId id) const {
  std::lock_guard<std::mutex> lk(state_mu_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

NinepServer::SessionId NinepServer::OpenSession() {
  std::lock_guard<std::mutex> lk(state_mu_);
  SessionId id = next_session_++;
  sessions_[id] = std::make_shared<Session>(vfs_, id);
  return id;
}

void NinepServer::CloseSession(SessionId id) {
  // Under the dispatch lock, so a session is never erased mid-dispatch.
  DispatchGuard dl = LockDispatch();
  std::shared_ptr<Session> doomed;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    auto it = sessions_.find(id);
    if (it != sessions_.end()) {
      doomed = std::move(it->second);
      sessions_.erase(it);
    }
    if (default_session_ == id) {
      default_session_ = 0;
    }
  }
  // doomed dies here — outside state_mu_ but still under the dispatch lock,
  // so handler Clunks for its open fids re-enter cleanly.
  doomed.reset();
}

size_t NinepServer::session_count() const {
  std::lock_guard<std::mutex> lk(state_mu_);
  return sessions_.size();
}

size_t NinepServer::open_fids(SessionId id) const {
  std::shared_ptr<Session> s = FindSession(id);
  return s == nullptr ? 0 : s->open_fids();
}

uint32_t NinepServer::session_msize(SessionId id) const {
  std::shared_ptr<Session> s = FindSession(id);
  return s == nullptr ? 0 : s->msize();
}

size_t NinepServer::open_fids() const {
  SessionId id;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    id = default_session_;
  }
  return open_fids(id);
}

bool NinepServer::TagInFlight(SessionId id, uint16_t tag) const {
  std::shared_ptr<Session> s = FindSession(id);
  return s != nullptr && s->TagInFlight(tag);
}

void NinepServer::DispatchGuard::Release() {
  if (srv_ == nullptr) {
    return;
  }
  tls_holder = prev_srv_;
  LockOrderReleased();
  srv_->dispatch_mu_.unlock();
  srv_ = nullptr;
  prev_srv_ = nullptr;
}

NinepServer::DispatchGuard NinepServer::LockDispatch() {
  if (tls_holder == this) {
    // Re-entry: a handler invoked from a dispatch already holding the lock.
    // Nothing to acquire — and nothing to release when the guard dies.
    return DispatchGuard();
  }
  // Entering a different server's lock mid-dispatch starts a new lock-order
  // frame (lockorder.h): the two servers' locks are independent
  // hierarchies, and the outer holder is restored when this guard releases.
  const NinepServer* prev = tls_holder;
  auto start = std::chrono::steady_clock::now();
  dispatch_mu_.lock();
  LockOrderAcquired(kLockLevelDispatch, /*new_frame=*/prev != nullptr);
  auto wait_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  metrics_.RecordLockWait(wait_ns / 1000);
  if (tls_req_obs != nullptr) {
    tls_req_obs->lock_wait_ns += wait_ns;
    obs::Tracer& tr = obs::Tracer::Global();
    if (tls_req_obs->rid != 0 && tr.enabled()) {
      tr.EmitAt(obs::EventKind::kComplete, "req.lock", wait_ns,
                tls_req_obs->rid, tr.NowNs() - wait_ns);
    }
  }
  tls_holder = this;
  return DispatchGuard(this, prev);
}

Fcall NinepServer::Process(SessionId id, const Fcall& t) {
  // Tag bookkeeping and Tflush run against the session's tag table only —
  // never under the dispatch lock — so a client can cancel or be rejected
  // while another request is executing.
  std::shared_ptr<Session> s = FindSession(id);
  if (s == nullptr) {
    return ErrorFcall(t.tag, "unknown session");
  }
  if (t.type == MsgType::kTflush) {
    s->FlushTag(t.oldtag);
    Fcall r;
    r.type = MsgType::kRflush;
    r.tag = t.tag;
    return r;
  }
  if (!s->BeginTag(t.tag)) {
    return ErrorFcall(t.tag, "duplicate tag");
  }
  Fcall r;
  {
    DispatchGuard dl = LockDispatch();
    if (FindSession(id) == nullptr) {
      // Closed while this request waited for the lock.
      r = ErrorFcall(t.tag, "unknown session");
    } else if (s->ConsumeFlushed(t.tag)) {
      // The flush check sits under the lock — the blocking point — so a
      // Tflush issued while we waited still cancels us.
      metrics_.RecordFlushCancel();
      OBS_INSTANT("ninep.flush_cancel", t.tag);
      r = ErrorFcall(t.tag, "interrupted");
    } else {
      OBS_SPAN("ninep.dispatch");
      if (tls_req_obs != nullptr) {
        obs::Tracer& tr = obs::Tracer::Global();
        uint64_t h0 = tr.NowNs();
        r = s->Dispatch(t);
        uint64_t dur = tr.NowNs() - h0;
        tls_req_obs->handler_ns += dur;
        if (tls_req_obs->rid != 0 && tr.enabled()) {
          tr.EmitAt(obs::EventKind::kComplete, "req.handler", dur,
                    tls_req_obs->rid, h0);
        }
      } else {
        r = s->Dispatch(t);
      }
    }
  }
  s->EndTag(t.tag);
  return r;
}

NinepServer::SessionId NinepServer::EnsureDefaultSession() {
  std::lock_guard<std::mutex> lk(state_mu_);
  if (default_session_ == 0) {
    default_session_ = next_session_++;
    sessions_[default_session_] =
        std::make_shared<Session>(vfs_, default_session_);
  }
  return default_session_;
}

Fcall NinepServer::Dispatch(const Fcall& t) {
  SessionId id = EnsureDefaultSession();
  metrics_.BeginRequest();
  auto start = std::chrono::steady_clock::now();
  Fcall r = Process(id, t);
  auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - start)
                .count();
  metrics_.RecordOp(OpOfMsgType(t.type), static_cast<uint64_t>(us),
                    r.type == MsgType::kRerror);
  metrics_.EndRequest();
  return r;
}

std::string NinepServer::HandleBytes(SessionId id, std::string_view packet) {
  ReplyFrame rf;
  HandleBytes(id, packet, nullptr, &rf);
  return std::move(rf.bytes);
}

void NinepServer::HandleBytes(SessionId id, std::string_view packet,
                              RequestObs* obs, ReplyFrame* out) {
  metrics_.AddBytesIn(packet.size());
  metrics_.BeginRequest();
  auto start = std::chrono::steady_clock::now();
  Fcall r;
  NinepOp op = NinepOp::kBad;
  auto t = [&] {
    OBS_SPAN("ninep.decode");
    return DecodeFcall(packet);
  }();
  if (!t.ok()) {
    r = ErrorFcall(kNoTag, t.message());
  } else {
    op = OpOfMsgType(t.value().type);
    if (obs != nullptr) {
      obs->op = op;
      tls_req_obs = obs;
    }
    r = Process(id, t.value());
    tls_req_obs = nullptr;
  }
  auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - start)
                .count();
  metrics_.RecordOp(op, static_cast<uint64_t>(us), r.type == MsgType::kRerror);
  metrics_.EndRequest();
  if (obs != nullptr) {
    obs->error = r.type == MsgType::kRerror;
  }
  obs::Tracer& tr = obs::Tracer::Global();
  uint64_t e0 = (obs != nullptr) ? tr.NowNs() : 0;
  {
    OBS_SPAN("ninep.encode");
    out->bytes = EncodeFcall(r);
  }
  if (obs != nullptr) {
    obs->encode_ns = tr.NowNs() - e0;
    if (obs->rid != 0 && tr.enabled()) {
      tr.EmitAt(obs::EventKind::kComplete, "req.encode", obs->encode_ns,
                obs->rid, e0);
    }
  }
  metrics_.AddBytesOut(out->bytes.size());
}

std::string NinepServer::HandleBytes(std::string_view packet) {
  return HandleBytes(EnsureDefaultSession(), packet);
}

NinepClient::Transport NinepServer::TransportFor(SessionId id) {
  return [this, id](std::string_view bytes) { return HandleBytes(id, bytes); };
}

NinepClient::Transport NinepServer::Transport() {
  return [this](std::string_view bytes) { return HandleBytes(bytes); };
}

}  // namespace help
