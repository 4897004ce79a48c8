// The wire level of the 9P service: length-prefixed T/R frames over real
// sockets. Everything below NinepServer::HandleBytes already speaks complete
// packets; this module is what turns a byte *stream* (TCP or Unix-domain)
// into those packets and back.
//
//   * FrameReader — an incremental deframer. 9P messages carry their own
//     size[4] prefix, so framing is: buffer bytes, expose one complete
//     message at a time. The reader treats the wire as hostile: a size field
//     below the 7-byte minimum (size+type+tag) or above the frame cap —
//     msize is negotiated downward from kDefaultMsize, so no honest peer
//     ever sends more — poisons the stream permanently; the connection
//     layer's only correct response is to hang up.
//   * Dial/Listen helpers — thin fd-returning wrappers over the BSD socket
//     calls, Plan 9-style error strings, SIGPIPE suppressed (MSG_NOSIGNAL).
//   * SocketTransport — the synchronous client side: a NinepClient::Transport
//     that writes one framed T-message and blocks for the matching R-message,
//     so the same client code runs in-process or over the wire. Replies are
//     read into one buffer per connection, so a reply usually costs one
//     `recv`. Transport failures are surfaced as a synthesized Rerror
//     carrying the request's own tag (the Transport signature has no side
//     channel for errors).
//
// The server side — the epoll event loop multiplexing thousands of these
// connections — lives in src/fs/listener.h.
#ifndef SRC_FS_TRANSPORT_H_
#define SRC_FS_TRANSPORT_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>

#include "src/base/status.h"
#include "src/fs/ninep.h"

namespace help {

// Smallest well-formed frame: size[4] type[1] tag[2].
inline constexpr uint32_t kMinFrameSize = 7;
// Hard inbound frame cap. The server never negotiates msize above
// kDefaultMsize, so a frame claiming more is a protocol violation, not a big
// message.
inline constexpr uint32_t kMaxFrameSize = kDefaultMsize;

// Incremental deframer for a length-prefixed 9P byte stream. Feed() raw
// bytes as they arrive; Pop() yields complete frames in order. Once a frame
// header lies (size out of [kMinFrameSize, kMaxFrameSize]) the stream is
// poisoned: every further Pop() returns kError and the caller must close the
// connection — there is no way to resynchronize a framed stream after a bad
// length.
class FrameReader {
 public:
  enum class Next { kFrame, kNeedMore, kError };

  void Feed(std::string_view bytes);

  // Extracts the next complete frame (including its size prefix).
  Next Pop(std::string* frame);

  bool poisoned() const { return poisoned_; }
  const std::string& error() const { return error_; }
  // Bytes buffered but not yet popped (bounded by kMaxFrameSize once a
  // header is visible; the connection layer stops reading on backpressure
  // anyway).
  size_t buffered() const { return buf_.size(); }

 private:
  std::string buf_;
  bool poisoned_ = false;
  std::string error_;
};

// The 9P tag of a complete frame (size[4] type[1] tag[2] — bytes 5..6,
// little-endian). The listener stamps request trace ids with this before any
// decode happens. Returns kNoTag for impossibly short frames (the deframer
// never yields one, but hostile-input paths shouldn't trust that).
uint16_t FrameTag(std::string_view frame);

// Human-readable peer of a connected socket: "ip:port" for TCP, "unix" for
// Unix-domain, "?" when getpeername fails. For /mnt/help/net status files.
std::string PeerString(int fd);

// --- fd-level socket helpers -------------------------------------------------

// All return a connected/listening fd (CLOEXEC) or a Plan 9-style error.
// Listeners bind+listen; port 0 picks an ephemeral port (read it back with
// LocalPort). Unix listeners unlink a stale socket file first.
Result<int> ListenTcp(const std::string& host, uint16_t port, int backlog = 512);
Result<int> ListenUnix(const std::string& path, int backlog = 512);
Result<int> DialTcp(const std::string& host, uint16_t port);
Result<int> DialUnix(const std::string& path);

// The port a listening TCP fd actually bound (for port 0 = ephemeral).
Result<uint16_t> LocalPort(int fd);

Status SetNonBlocking(int fd);

// Blocking write of the whole buffer / read of exactly n bytes. ReadFull
// returns the bytes read (short only at EOF-with-error). Both retry EINTR
// and suppress SIGPIPE.
Status WriteFull(int fd, std::string_view data);
Result<std::string> ReadFull(int fd, size_t n);

// Best-effort RLIMIT_NOFILE raise for C10K-scale drivers (bench, soak
// tests): lifts the soft limit toward min(want, hard). Never fails hard.
void RaiseFdLimit(uint64_t want);

// --- Client side -------------------------------------------------------------

// A socket-backed transport for NinepClient: framed T-messages out, framed
// R-messages back. Usable synchronously (Rpc: one out, one back, blocking)
// or pipelined (Send N packets, then RecvReply N times). Not thread-safe —
// one SocketTransport per client connection, which is also the protocol's
// assumption (one logical client per connection).
class SocketTransport {
 public:
  static Result<std::unique_ptr<SocketTransport>> ConnectTcp(
      const std::string& host, uint16_t port);
  static Result<std::unique_ptr<SocketTransport>> ConnectUnix(
      const std::string& path);

  ~SocketTransport() { Close(); }
  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  // The full round trip. On any transport failure (send error, connection
  // closed, unframeable reply) returns an encoded Rerror carrying the
  // request's tag, so NinepClient surfaces it as an ordinary error Status.
  // Equivalent to Send + RecvReply; requires no other requests in flight.
  std::string Rpc(std::string_view packet);

  // Pipelined half-calls. Send frames the T-message onto the wire and
  // remembers its tag; RecvReply blocks for the next R-message. It reads
  // whatever has arrived into the connection's buffer, so one `recv`
  // usually brings a whole reply and any pipelined replies behind it; those
  // are returned by the next calls without a syscall. When the
  // transport dies mid-stream, each RecvReply synthesizes an Rerror for the
  // *oldest* tag still in flight — with several requests outstanding the
  // failure belongs to the reply the server would have sent next, not to
  // whichever packet happened to be written last. Every Send is eventually
  // answered by exactly one RecvReply, real or synthesized.
  Status Send(std::string_view packet);
  std::string RecvReply();
  size_t inflight() const { return inflight_.size(); }

  // Adapter for NinepClient's std::function transport. The returned callable
  // borrows `this`; keep the SocketTransport alive for the client's life.
  NinepClient::Transport AsTransport() {
    return [this](std::string_view packet) { return Rpc(packet); };
  }

  // Adapter for NinepClient's pipelined send/recv pair (ReadFidPipelined).
  // Borrows `this` the same way.
  NinepClient::PipeIo AsPipeIo();

  void Close();
  bool closed() const { return fd_ < 0; }
  int fd() const { return fd_; }

 private:
  // The read buffer's size until a reply larger than it arrives; it then
  // grows to that reply's size (at most kMaxFrameSize) and stays there.
  static constexpr size_t kRecvBufferBytes = 8192;

  explicit SocketTransport(int fd) : fd_(fd), rbuf_(kRecvBufferBytes, '\0') {}

  int fd_ = -1;
  // Received bytes not yet returned as replies are rbuf_[rpos_, rend_).
  // What is left moves to the front only when a frame needs more bytes (and
  // after the last buffered reply is taken, nothing is left to move).
  std::string rbuf_;
  size_t rpos_ = 0;
  size_t rend_ = 0;
  // First send failure's message; later synthesized replies carry it so the
  // root cause isn't masked by "transport closed".
  std::string send_error_;
  // Tags of sent-but-unanswered requests, oldest first. Rerror synthesis on
  // transport failure pops from the front so errors pair with requests in
  // FIFO order (the server answers a dead connection's requests never; the
  // client sees them fail oldest-first, matching its collect loop).
  std::deque<uint16_t> inflight_;
};

}  // namespace help

#endif  // SRC_FS_TRANSPORT_H_
