#include "src/fs/listener.h"

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <deque>

#if defined(__linux__)
#include <sys/epoll.h>
#endif

#include "src/obs/trace.h"

namespace help {

namespace {

bool WouldBlock() { return errno == EAGAIN || errno == EWOULDBLOCK; }

}  // namespace

// --- Pollers -----------------------------------------------------------------

#if defined(__linux__)
class EpollPoller : public Poller {
 public:
  EpollPoller() : ep_(epoll_create1(EPOLL_CLOEXEC)) {}
  ~EpollPoller() override {
    if (ep_ >= 0) {
      close(ep_);
    }
  }

  bool ok() const { return ep_ >= 0; }

  Status Add(int fd, bool want_read, bool want_write) override {
    return Ctl(EPOLL_CTL_ADD, fd, want_read, want_write);
  }
  Status Mod(int fd, bool want_read, bool want_write) override {
    return Ctl(EPOLL_CTL_MOD, fd, want_read, want_write);
  }
  void Del(int fd) override {
    epoll_event ev{};
    epoll_ctl(ep_, EPOLL_CTL_DEL, fd, &ev);
  }

  int Wait(std::vector<Event>* out, int timeout_ms) override {
    epoll_event evs[256];
    int n = epoll_wait(ep_, evs, 256, timeout_ms);
    if (n < 0) {
      return errno == EINTR ? 0 : -1;
    }
    for (int i = 0; i < n; i++) {
      out->push_back(Event{evs[i].data.fd, (evs[i].events & EPOLLIN) != 0,
                           (evs[i].events & EPOLLOUT) != 0,
                           (evs[i].events & (EPOLLERR | EPOLLHUP)) != 0});
    }
    return n;
  }

 private:
  Status Ctl(int op, int fd, bool want_read, bool want_write) {
    epoll_event ev{};
    ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
    ev.data.fd = fd;
    if (epoll_ctl(ep_, op, fd, &ev) < 0) {
      return Status::Error(std::string("epoll_ctl: ") + strerror(errno));
    }
    return Status::Ok();
  }

  int ep_;
};
#endif  // __linux__

// poll(2) fallback: interest is a map rebuilt into a pollfd vector per Wait.
// O(conns) per wait, which is exactly why epoll is the default on Linux —
// but the semantics are identical, including ERR/HUP being reported even for
// fds with no requested events (how a stalled, read-parked connection's
// hangup is still noticed).
class PollPoller : public Poller {
 public:
  Status Add(int fd, bool want_read, bool want_write) override {
    return Mod(fd, want_read, want_write);
  }
  Status Mod(int fd, bool want_read, bool want_write) override {
    interest_[fd] = static_cast<short>((want_read ? POLLIN : 0) |
                                       (want_write ? POLLOUT : 0));
    return Status::Ok();
  }
  void Del(int fd) override { interest_.erase(fd); }

  int Wait(std::vector<Event>* out, int timeout_ms) override {
    fds_.clear();
    for (const auto& [fd, ev] : interest_) {
      fds_.push_back(pollfd{fd, ev, 0});
    }
    int n = poll(fds_.data(), fds_.size(), timeout_ms);
    if (n < 0) {
      return errno == EINTR ? 0 : -1;
    }
    int emitted = 0;
    for (const pollfd& p : fds_) {
      if (p.revents == 0) {
        continue;
      }
      out->push_back(Event{p.fd, (p.revents & POLLIN) != 0,
                           (p.revents & POLLOUT) != 0,
                           (p.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0});
      emitted++;
    }
    return emitted;
  }

 private:
  std::map<int, short> interest_;
  std::vector<pollfd> fds_;
};

std::unique_ptr<Poller> MakePoller(PollerKind kind) {
#if defined(__linux__)
  if (kind != PollerKind::kPoll) {
    auto ep = std::make_unique<EpollPoller>();
    if (ep->ok()) {
      return ep;
    }
  }
#else
  (void)kind;
#endif
  return std::make_unique<PollPoller>();
}

// --- Connection state --------------------------------------------------------

// One inbound frame plus its request context, minted the moment the
// FrameReader yields it: the trace id that stamps every phase event of this
// request, and the arrival time the queue-wait phase starts from.
struct InFrame {
  std::string bytes;
  uint64_t rid = 0;
  uint16_t tag = 0;
  uint64_t arrive_ns = 0;
};

// A dispatched reply whose bytes are in the outbox but not yet on the wire.
// end_total is the connection's outbox_appended watermark after this reply;
// once outbox_written reaches it, the reply — and therefore the request — is
// complete: the outbox-drain phase event fires and the record goes to the
// flight recorder.
struct PendingReply {
  uint64_t rid = 0;
  uint16_t tag = 0;
  NinepOp op = NinepOp::kBad;
  uint64_t arrive_ns = 0;
  uint64_t queue_ns = 0;
  uint64_t lock_ns = 0;
  uint64_t handler_ns = 0;
  uint64_t encode_ns = 0;
  uint64_t append_ns = 0;  // when the reply entered the outbox
  uint64_t end_total = 0;
};

// One segment of a connection's outbound queue. Replies at least kSealBytes
// long enter the deque as their own segment via move — a zero-copy Rread's
// payload is never copied again after encode — while small replies append
// onto the tail segment so one sendmsg drains many of them.
struct OutSeg {
  std::string bytes;
  size_t off = 0;  // already-written prefix
};

inline constexpr size_t kSealBytes = 1024;
// iovec fan-in per sendmsg call.
inline constexpr size_t kMaxIov = 64;

// Every field is touched by the loop thread only.
struct NinepListener::Conn {
  explicit Conn(uint32_t max_frame) : reader(max_frame) {}

  int fd = -1;
  FrameReader reader;
  uint64_t last_active_ms = 0;
  bool want_read = true;  // interest currently registered
  bool want_write = false;
  uint64_t next_req_seq = 1;  // per-conn rid sequence; 1 so rid is never 0
  NinepServer::SessionId sid = 0;
  std::shared_ptr<ConnInfo> info;  // registered in the server's NetState

  std::deque<InFrame> inbox;         // complete frames awaiting dispatch
  std::deque<OutSeg> outbox;         // encoded replies awaiting the wire
  size_t outbox_pending = 0;         // unwritten bytes across all segments
  uint64_t outbox_appended = 0;      // lifetime bytes ever appended
  uint64_t outbox_written = 0;       // lifetime bytes ever sent
  std::deque<PendingReply> pending;  // appended, not yet fully written
  bool stalled = false;              // backpressure: dispatch and reads parked
  bool closing = false;              // the socket was torn down

  // Appends one encoded reply, sealing large payloads as their own moved
  // segment.
  void AppendReply(std::string&& bytes) {
    outbox_pending += bytes.size();
    outbox_appended += bytes.size();
    if (bytes.size() >= kSealBytes || outbox.empty()) {
      outbox.push_back(OutSeg{std::move(bytes), 0});
    } else {
      outbox.back().bytes += bytes;
    }
  }
};

// --- NinepListener -----------------------------------------------------------

NinepListener::NinepListener(NinepServer* srv, Options opt)
    : srv_(srv), opt_(opt) {}

NinepListener::~NinepListener() { Stop(); }

Status NinepListener::ListenTcp(const std::string& host, uint16_t port) {
  auto fd = help::ListenTcp(host, port);
  if (!fd.ok()) {
    return fd.status();
  }
  Status nb = SetNonBlocking(fd.value());
  if (!nb.ok()) {
    close(fd.value());
    return nb;
  }
  auto p = LocalPort(fd.value());
  if (p.ok()) {
    port_ = p.value();
  }
  listen_fds_.push_back(fd.value());
  return Status::Ok();
}

Status NinepListener::ListenUnix(const std::string& path) {
  auto fd = help::ListenUnix(path);
  if (!fd.ok()) {
    return fd.status();
  }
  Status nb = SetNonBlocking(fd.value());
  if (!nb.ok()) {
    close(fd.value());
    return nb;
  }
  unix_path_ = path;
  listen_fds_.push_back(fd.value());
  return Status::Ok();
}

Status NinepListener::Start() {
  if (running_.load()) {
    return Status::Error("listener already running");
  }
  if (listen_fds_.empty()) {
    return Status::Error("listener has no endpoints");
  }
  poller_ = MakePoller(opt_.poller);
  int pfd[2];
  if (pipe(pfd) < 0) {
    return Status::Error(std::string("pipe: ") + strerror(errno));
  }
  wake_rd_ = pfd[0];
  wake_wr_ = pfd[1];
  SetNonBlocking(wake_rd_);
  SetNonBlocking(wake_wr_);
  fcntl(wake_rd_, F_SETFD, FD_CLOEXEC);
  fcntl(wake_wr_, F_SETFD, FD_CLOEXEC);
  Status s = poller_->Add(wake_rd_, /*want_read=*/true, /*want_write=*/false);
  if (!s.ok()) {
    return s;
  }
  for (int fd : listen_fds_) {
    s = poller_->Add(fd, /*want_read=*/true, /*want_write=*/false);
    if (!s.ok()) {
      return s;
    }
  }
  stop_.store(false);
  running_.store(true);
  loop_ = std::thread(&NinepListener::LoopMain, this);
  return Status::Ok();
}

void NinepListener::Stop() {
  if (!running_.load()) {
    return;
  }
  stop_.store(true);
  WakeLoop();
  loop_.join();
  // Single-threaded from here: tear down whatever survived.
  for (int fd : listen_fds_) {
    close(fd);
  }
  listen_fds_.clear();
  std::map<int, ConnPtr> leftover;
  {
    std::lock_guard<std::mutex> lk(conns_mu_);
    leftover.swap(conns_);
  }
  for (auto& [fd, c] : leftover) {
    close(fd);
    c->info->set_state(ConnState::kClosing);
    srv_->net().Deregister(c->sid);
    srv_->metrics().RecordDisconnect();
    srv_->CloseSession(c->sid);
  }
  for (int fd : deferred_close_) {
    close(fd);
  }
  deferred_close_.clear();
  close(wake_rd_);
  close(wake_wr_);
  wake_rd_ = wake_wr_ = -1;
  poller_.reset();
  if (!unix_path_.empty()) {
    unlink(unix_path_.c_str());
    unix_path_.clear();
  }
  running_.store(false);
}

size_t NinepListener::active_conns() const {
  std::lock_guard<std::mutex> lk(conns_mu_);
  return conns_.size();
}

uint64_t NinepListener::NowMs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void NinepListener::WakeLoop() {
  char b = 0;
  // A full pipe already guarantees a wakeup; EAGAIN is success here.
  (void)!write(wake_wr_, &b, 1);
}

void NinepListener::DrainWakePipe() {
  char buf[256];
  while (read(wake_rd_, buf, sizeof(buf)) > 0) {
  }
}

// --- Event loop --------------------------------------------------------------

void NinepListener::LoopMain() {
  obs::Tracer::Global().SetThreadName("net.loop");
  std::vector<Poller::Event> events;
  while (!stop_.load()) {
    events.clear();
    int reap_cadence = opt_.reap_tick_ms > 0
                           ? std::min(opt_.reap_tick_ms, opt_.idle_timeout_ms)
                           : opt_.idle_timeout_ms;
    int timeout = opt_.idle_timeout_ms > 0
                      ? std::min(opt_.tick_ms, reap_cadence)
                      : opt_.tick_ms;
    poller_->Wait(&events, timeout);
    if (stop_.load()) {
      break;
    }
    for (const Poller::Event& ev : events) {
      if (ev.fd == wake_rd_) {
        DrainWakePipe();
        continue;
      }
      if (std::find(listen_fds_.begin(), listen_fds_.end(), ev.fd) !=
          listen_fds_.end()) {
        HandleAccept(ev.fd);
        continue;
      }
      // Only this thread mutates conns_, so the lookup needs no lock.
      auto it = conns_.find(ev.fd);
      if (it == conns_.end()) {
        continue;  // closed earlier in this batch (fd close is deferred)
      }
      ConnPtr c = it->second;
      if (ev.error) {
        CloseConn(c, /*reaped=*/false);
      } else if (ev.readable) {
        HandleReadable(c);  // ends in Pump, which also flushes
      } else if (ev.writable) {
        Pump(c);
      }
    }
    if (opt_.idle_timeout_ms > 0 && NowMs() >= next_reap_ms_) {
      ReapIdle();
    }
    // Deferred closes: only after the whole batch, so a reused fd number
    // cannot alias a stale event from this batch.
    for (int fd : deferred_close_) {
      close(fd);
    }
    deferred_close_.clear();
  }
}

// Idle reaping, on its own cadence: reap_tick_ms > 0 scans at that
// deadline-driven interval (prompt with a short tick, amortized with a long
// one on busy listeners whose events keep the loop spinning); reap_tick_ms
// == 0 scans on every wakeup.
void NinepListener::ReapIdle() {
  uint64_t now = NowMs();
  if (opt_.reap_tick_ms > 0) {
    next_reap_ms_ = now + static_cast<uint64_t>(opt_.reap_tick_ms);
  }
  std::vector<ConnPtr> idle;
  for (const auto& [fd, c] : conns_) {
    if (now - c->last_active_ms >= static_cast<uint64_t>(opt_.idle_timeout_ms)) {
      idle.push_back(c);
    }
  }
  for (const ConnPtr& c : idle) {
    OBS_INSTANT("net.reap", c->sid);
    CloseConn(c, /*reaped=*/true);
  }
}

void NinepListener::HandleAccept(int listen_fd) {
  for (int i = 0; i < 64; i++) {  // cap per event; level-trigger re-fires
    int fd = accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;  // EAGAIN or transient (EMFILE etc.): try again next event
    }
    if (!SetNonBlocking(fd).ok()) {
      close(fd);
      continue;
    }
    fcntl(fd, F_SETFD, FD_CLOEXEC);
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));  // no-op on unix
    auto c = std::make_shared<Conn>(opt_.max_frame);
    c->fd = fd;
    c->sid = srv_->OpenSession();
    c->info = srv_->net().Register(c->sid, PeerString(fd));
    c->last_active_ms = NowMs();
    if (!poller_->Add(fd, /*want_read=*/true, /*want_write=*/false).ok()) {
      close(fd);
      srv_->net().Deregister(c->sid);
      srv_->CloseSession(c->sid);
      continue;
    }
    {
      std::lock_guard<std::mutex> lk(conns_mu_);
      conns_[fd] = c;
    }
    srv_->metrics().RecordAccept();
    OBS_INSTANT("net.accept", c->sid);
  }
}

void NinepListener::HandleReadable(const ConnPtr& c) {
  char buf[64 * 1024];
  bool frame_error = false;
  bool peer_gone = false;
  obs::Tracer& tr = obs::Tracer::Global();
  for (int i = 0; i < 4; i++) {  // fairness cap; level-trigger re-fires
    ssize_t n = recv(c->fd, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (!WouldBlock()) {
        peer_gone = true;
      }
      break;
    }
    if (n == 0) {
      peer_gone = true;
      break;
    }
    c->last_active_ms = NowMs();
    srv_->metrics().AddNetBytesIn(static_cast<uint64_t>(n));
    c->info->AddBytesIn(static_cast<uint64_t>(n));
    c->reader.Feed(std::string_view(buf, static_cast<size_t>(n)));
    std::string frame;
    FrameReader::Next next;
    while ((next = c->reader.Pop(&frame)) == FrameReader::Next::kFrame) {
      // The request context is born here, before any decode: cid + the
      // frame's own tag bytes + a per-conn sequence.
      InFrame inf;
      inf.tag = FrameTag(frame);
      inf.rid = MakeRequestId(c->sid, inf.tag, c->next_req_seq++);
      inf.arrive_ns = tr.NowNs();
      inf.bytes = std::move(frame);
      c->info->AddFrameIn();
      if (tr.enabled()) {
        tr.EmitAt(obs::EventKind::kInstant, "req.frame", inf.bytes.size(),
                  inf.rid, inf.arrive_ns);
      }
      c->inbox.push_back(std::move(inf));
    }
    if (next == FrameReader::Next::kError) {
      frame_error = true;
      break;
    }
    if (static_cast<size_t>(n) < sizeof(buf)) {
      break;  // drained the socket buffer
    }
  }
  if (frame_error) {
    srv_->metrics().RecordFrameError();
    OBS_INSTANT("net.frame_error", c->sid);
    CloseConn(c, /*reaped=*/false);
  } else if (peer_gone) {
    CloseConn(c, /*reaped=*/false);
  } else {
    Pump(c);
  }
}

void NinepListener::Pump(const ConnPtr& c) {
  while (!c->closing) {
    Dispatch(c);
    if (!Flush(c)) {
      return;  // the socket broke; the connection is closed
    }
    // Backpressure release at half the bound, so a stream of replies can't
    // flap the stall on and off per frame.
    if (!c->stalled || c->outbox_pending > opt_.max_outbox_bytes / 2) {
      break;
    }
    c->stalled = false;
    c->info->set_state(ConnState::kActive);
    OBS_INSTANT("net.unstall", c->sid);
  }
  if (!c->closing) {
    UpdateInterest(c);
  }
}

void NinepListener::Dispatch(const ConnPtr& c) {
  obs::Tracer& tr = obs::Tracer::Global();
  while (!c->inbox.empty()) {
    if (c->outbox_pending > opt_.max_outbox_bytes) {
      // Slow reader: park dispatch with the inbox intact. Pump drops read
      // interest and resumes once the outbox drains.
      if (!c->stalled) {
        c->stalled = true;
        c->info->set_state(ConnState::kStalled);
        srv_->metrics().RecordBackpressureStall();
        OBS_INSTANT("net.backpressure_stall", c->sid);
      }
      return;
    }
    InFrame f = std::move(c->inbox.front());
    c->inbox.pop_front();
    uint64_t pickup = tr.NowNs();
    uint64_t queue_ns = pickup - f.arrive_ns;
    if (tr.enabled() && f.rid != 0) {
      tr.EmitAt(obs::EventKind::kComplete, "req.queue", queue_ns, f.rid,
                f.arrive_ns);
    }
    RequestObs obs;
    obs.rid = f.rid;
    ReplyFrame reply;
    srv_->HandleBytes(c->sid, f.bytes, &obs, &reply);
    uint64_t done = tr.NowNs();
    c->info->RecordOp(obs.op, (done - pickup) / 1000, obs.error);
    c->info->RecordQueueWait(queue_ns / 1000);
    srv_->metrics().RecordNetQueueWait(queue_ns / 1000);
    if (reply.zero_copy) {
      c->info->AddBytesZeroCopy(reply.payload_bytes);
    }
    PendingReply p;
    p.rid = f.rid;
    p.tag = f.tag;
    p.op = obs.op;
    p.arrive_ns = f.arrive_ns;
    p.queue_ns = queue_ns;
    p.lock_ns = obs.lock_wait_ns;
    p.handler_ns = obs.handler_ns;
    p.encode_ns = obs.encode_ns;
    p.append_ns = done;
    c->AppendReply(std::move(reply.bytes));
    p.end_total = c->outbox_appended;
    c->pending.push_back(p);
  }
}

bool NinepListener::Flush(const ConnPtr& c) {
  bool broken = false;
  while (c->outbox_pending > 0) {
    // Scatter-gather drain: one sendmsg covers up to kMaxIov segments, so a
    // batch of small replies — or a sealed zero-copy payload sandwiched
    // between them — leaves in one syscall.
    struct iovec iov[kMaxIov];
    size_t niov = 0;
    for (const OutSeg& s : c->outbox) {
      if (niov == kMaxIov) {
        break;
      }
      iov[niov].iov_base = const_cast<char*>(s.bytes.data() + s.off);
      iov[niov].iov_len = s.bytes.size() - s.off;
      niov++;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = niov;
    ssize_t n = sendmsg(c->fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (!WouldBlock()) {
        broken = true;
      }
      break;
    }
    srv_->metrics().RecordWritev();
    c->info->RecordWritev();
    size_t left = static_cast<size_t>(n);
    while (left > 0) {
      OutSeg& s = c->outbox.front();
      size_t take = std::min(s.bytes.size() - s.off, left);
      s.off += take;
      left -= take;
      if (s.off == s.bytes.size()) {
        c->outbox.pop_front();
      }
    }
    c->outbox_pending -= static_cast<size_t>(n);
    c->outbox_written += static_cast<uint64_t>(n);
    c->last_active_ms = NowMs();
    srv_->metrics().AddNetBytesOut(static_cast<uint64_t>(n));
    c->info->AddBytesOut(static_cast<uint64_t>(n));
  }
  // Requests whose reply bytes have now fully entered the kernel socket
  // buffer are complete: close their outbox-drain phase and offer them to
  // the flight recorder. pending is FIFO in append order and end_total is
  // monotonic, so a prefix scan is exact.
  obs::Tracer& tr = obs::Tracer::Global();
  while (!c->pending.empty() &&
         c->pending.front().end_total <= c->outbox_written) {
    PendingReply p = c->pending.front();
    c->pending.pop_front();
    uint64_t now = tr.NowNs();
    uint64_t outbox_ns = now - p.append_ns;
    if (tr.enabled() && p.rid != 0) {
      tr.EmitAt(obs::EventKind::kComplete, "req.outbox", outbox_ns, p.rid,
                p.append_ns);
    }
    RequestRecord rec;
    rec.rid = p.rid;
    rec.cid = c->sid;
    rec.tag = p.tag;
    rec.op = p.op;
    rec.total_ns = now - p.arrive_ns;
    rec.queue_ns = p.queue_ns;
    rec.lock_ns = p.lock_ns;
    rec.handler_ns = p.handler_ns;
    rec.encode_ns = p.encode_ns;
    rec.outbox_ns = outbox_ns;
    srv_->net().recorder().Record(rec);
  }
  if (broken) {
    CloseConn(c, /*reaped=*/false);
    return false;
  }
  return true;
}

void NinepListener::UpdateInterest(const ConnPtr& c) {
  bool want_read = !c->stalled;
  bool want_write = c->outbox_pending > 0;
  if (want_read != c->want_read || want_write != c->want_write) {
    c->want_read = want_read;
    c->want_write = want_write;
    poller_->Mod(c->fd, want_read, want_write);
  }
}

void NinepListener::CloseConn(const ConnPtr& c, bool reaped) {
  if (c->closing) {
    return;
  }
  c->closing = true;
  poller_->Del(c->fd);
  deferred_close_.push_back(c->fd);
  {
    std::lock_guard<std::mutex> lk(conns_mu_);
    conns_.erase(c->fd);
  }
  c->info->set_state(ConnState::kClosing);
  srv_->net().Deregister(c->sid);
  srv_->metrics().RecordDisconnect();
  if (reaped) {
    srv_->metrics().RecordReap();
  }
  // Undispatched frames and unwritten replies go with the connection.
  c->inbox.clear();
  c->outbox.clear();
  c->pending.clear();
  c->outbox_pending = 0;
  srv_->CloseSession(c->sid);
}

}  // namespace help
