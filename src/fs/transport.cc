#include "src/fs/transport.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>

#include "src/base/strings.h"

namespace help {

namespace {

uint32_t PeekU32(const std::string& b, size_t at) {
  return static_cast<uint32_t>(static_cast<uint8_t>(b[at])) |
         static_cast<uint32_t>(static_cast<uint8_t>(b[at + 1])) << 8 |
         static_cast<uint32_t>(static_cast<uint8_t>(b[at + 2])) << 16 |
         static_cast<uint32_t>(static_cast<uint8_t>(b[at + 3])) << 24;
}

Status Errno(std::string_view what) {
  return Status::Error(std::string(what) + ": " + strerror(errno));
}

int CloexecSocket(int domain) {
  return socket(domain, SOCK_STREAM | SOCK_CLOEXEC, 0);
}

}  // namespace

void FrameReader::Feed(std::string_view bytes) {
  if (poisoned_) {
    return;  // stream is dead; don't grow the buffer for a doomed peer
  }
  buf_.append(bytes);
}

FrameReader::Next FrameReader::Pop(std::string* frame) {
  if (poisoned_) {
    return Next::kError;
  }
  if (buf_.size() < 4) {
    return Next::kNeedMore;
  }
  uint32_t size = PeekU32(buf_, 0);
  if (size < kMinFrameSize || size > kMaxFrameSize) {
    poisoned_ = true;
    error_ = StrFormat("ninep: bad frame size %u", size);
    return Next::kError;
  }
  if (buf_.size() < size) {
    return Next::kNeedMore;
  }
  frame->assign(buf_, 0, size);
  buf_.erase(0, size);
  return Next::kFrame;
}

uint16_t FrameTag(std::string_view frame) {
  if (frame.size() < kMinFrameSize) {
    return kNoTag;
  }
  return static_cast<uint16_t>(static_cast<uint8_t>(frame[5])) |
         static_cast<uint16_t>(static_cast<uint8_t>(frame[6])) << 8;
}

std::string PeerString(int fd) {
  sockaddr_storage ss{};
  socklen_t len = sizeof(ss);
  if (getpeername(fd, reinterpret_cast<sockaddr*>(&ss), &len) < 0) {
    return "?";
  }
  if (ss.ss_family == AF_UNIX) {
    return "unix";
  }
  if (ss.ss_family == AF_INET) {
    const auto* in = reinterpret_cast<const sockaddr_in*>(&ss);
    char ip[INET_ADDRSTRLEN] = "?";
    inet_ntop(AF_INET, &in->sin_addr, ip, sizeof(ip));
    return StrFormat("%s:%u", ip, ntohs(in->sin_port));
  }
  if (ss.ss_family == AF_INET6) {
    const auto* in6 = reinterpret_cast<const sockaddr_in6*>(&ss);
    char ip[INET6_ADDRSTRLEN] = "?";
    inet_ntop(AF_INET6, &in6->sin6_addr, ip, sizeof(ip));
    return StrFormat("%s:%u", ip, ntohs(in6->sin6_port));
  }
  return "?";
}

// --- fd-level helpers --------------------------------------------------------

Status SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl");
  }
  return Status::Ok();
}

Result<int> ListenTcp(const std::string& host, uint16_t port, int backlog) {
  int fd = CloexecSocket(AF_INET);
  if (fd < 0) {
    return Errno("socket");
  }
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return Status::Error(host + ": bad address");
  }
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status s = Errno("bind " + host);
    close(fd);
    return s;
  }
  if (listen(fd, backlog) < 0) {
    Status s = Errno("listen");
    close(fd);
    return s;
  }
  return fd;
}

Result<int> ListenUnix(const std::string& path, int backlog) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::Error(path + ": socket path too long");
  }
  int fd = CloexecSocket(AF_UNIX);
  if (fd < 0) {
    return Errno("socket");
  }
  unlink(path.c_str());  // a stale socket file from a previous run
  addr.sun_family = AF_UNIX;
  memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status s = Errno("bind " + path);
    close(fd);
    return s;
  }
  if (listen(fd, backlog) < 0) {
    Status s = Errno("listen");
    close(fd);
    return s;
  }
  return fd;
}

Result<int> DialTcp(const std::string& host, uint16_t port) {
  int fd = CloexecSocket(AF_INET);
  if (fd < 0) {
    return Errno("socket");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return Status::Error(host + ": bad address");
  }
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status s = Errno("connect " + host);
    close(fd);
    return s;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

Result<int> DialUnix(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::Error(path + ": socket path too long");
  }
  int fd = CloexecSocket(AF_UNIX);
  if (fd < 0) {
    return Errno("socket");
  }
  addr.sun_family = AF_UNIX;
  memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status s = Errno("connect " + path);
    close(fd);
    return s;
  }
  return fd;
}

Result<uint16_t> LocalPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return Errno("getsockname");
  }
  return static_cast<uint16_t>(ntohs(addr.sin_port));
}

Status WriteFull(int fd, std::string_view data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Errno("send");
    }
    off += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Result<std::string> ReadFull(int fd, size_t n) {
  std::string out;
  out.resize(n);
  size_t off = 0;
  while (off < n) {
    ssize_t r = recv(fd, out.data() + off, n - off, 0);
    if (r < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Errno("recv");
    }
    if (r == 0) {
      return Status::Error("connection closed");
    }
    off += static_cast<size_t>(r);
  }
  return out;
}

void RaiseFdLimit(uint64_t want) {
  rlimit rl{};
  if (getrlimit(RLIMIT_NOFILE, &rl) != 0 || rl.rlim_cur >= want) {
    return;
  }
  rl.rlim_cur = std::min<rlim_t>(want, rl.rlim_max);
  setrlimit(RLIMIT_NOFILE, &rl);  // best effort
}

// --- SocketTransport ---------------------------------------------------------

Result<std::unique_ptr<SocketTransport>> SocketTransport::ConnectTcp(
    const std::string& host, uint16_t port) {
  auto fd = DialTcp(host, port);
  if (!fd.ok()) {
    return fd.status();
  }
  return std::unique_ptr<SocketTransport>(new SocketTransport(fd.value()));
}

Result<std::unique_ptr<SocketTransport>> SocketTransport::ConnectUnix(
    const std::string& path) {
  auto fd = DialUnix(path);
  if (!fd.ok()) {
    return fd.status();
  }
  return std::unique_ptr<SocketTransport>(new SocketTransport(fd.value()));
}

void SocketTransport::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

std::string SocketTransport::Rpc(std::string_view packet) {
  // A failed Send still records the tag, so RecvReply pairs the synthesized
  // error with this request.
  (void)Send(packet);
  return RecvReply();
}

Status SocketTransport::Send(std::string_view packet) {
  // Remember the T-message's own tag (size[4] type[1] tag[2]) before
  // touching the wire: even a failed send gets a synthesized reply, and that
  // reply must carry this request's tag for NinepClient's tag check.
  uint16_t tag = kNoTag;
  if (packet.size() >= kMinFrameSize) {
    tag = static_cast<uint16_t>(static_cast<uint8_t>(packet[5])) |
          static_cast<uint16_t>(static_cast<uint8_t>(packet[6])) << 8;
  }
  inflight_.push_back(tag);
  if (fd_ < 0) {
    return Status::Error("ninep: transport closed");
  }
  Status w = WriteFull(fd_, packet);
  if (!w.ok()) {
    send_error_ = w.message();
    Close();
    return w;
  }
  return Status::Ok();
}

std::string SocketTransport::RecvReply() {
  // On failure the synthesized Rerror answers the OLDEST outstanding
  // request. Once the stream is dead no reply is coming for *any* of
  // them, and the caller collects
  // failures in the order it sent — front-of-queue is the only pairing that
  // gives every in-flight request exactly one reply with its own tag.
  auto fail = [&](std::string_view why) {
    uint16_t tag = inflight_.empty() ? kNoTag : inflight_.front();
    if (!inflight_.empty()) {
      inflight_.pop_front();
    }
    Close();
    return EncodeFcall(ErrorFcall(tag, why));
  };
  if (fd_ < 0) {
    return fail(send_error_.empty() ? std::string("ninep: transport closed")
                                    : send_error_);
  }
  uint32_t size = 0;
  while (true) {
    const size_t have = rend_ - rpos_;
    if (have >= 4) {
      size = PeekU32(rbuf_, rpos_);
      if (size < kMinFrameSize || size > kMaxFrameSize) {
        return fail(StrFormat("ninep: bad reply frame size %u", size));
      }
      if (have >= size) {
        break;
      }
    }
    // Short of a whole frame: move its start to the front, make room for
    // all of it, and take whatever has arrived.
    if (rpos_ > 0) {
      memmove(rbuf_.data(), rbuf_.data() + rpos_, have);
      rpos_ = 0;
      rend_ = have;
    }
    if (size > rbuf_.size()) {
      rbuf_.resize(size);
    }
    ssize_t n = recv(fd_, rbuf_.data() + rend_, rbuf_.size() - rend_, 0);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return fail(Errno("recv").message());
    }
    if (n == 0) {
      return fail("connection closed");
    }
    rend_ += static_cast<size_t>(n);
  }
  std::string reply(rbuf_, rpos_, size);
  rpos_ += size;
  // A real reply retires its own tag. Replies leave each connection in
  // request order, so that is the front of the queue from this server; the
  // search pairs a reply from a peer that answers out of order.
  uint16_t rtag = FrameTag(reply);
  for (auto it = inflight_.begin(); it != inflight_.end(); ++it) {
    if (*it == rtag) {
      inflight_.erase(it);
      break;
    }
  }
  return reply;
}

NinepClient::PipeIo SocketTransport::AsPipeIo() {
  NinepClient::PipeIo io;
  io.send = [this](std::string_view packet) { return Send(packet); };
  io.recv = [this]() -> Result<std::string> { return RecvReply(); };
  return io;
}

}  // namespace help
