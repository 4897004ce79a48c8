// The socket transport and its epoll connection layer: framing units, TCP
// and Unix-domain round trips (on both the epoll and poll backends), msize
// clamping, hostile-frame rejection, and the lifecycle regressions the wire
// makes reachable — idle reaping that really clunks fids and frees the
// session, disconnect with requests mid-dispatch, slow-reader backpressure
// that stalls and then recovers, and the re-pinned /mnt/help/stats format
// with the net.* block.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/base/strings.h"
#include "src/core/help.h"
#include "src/fs/listener.h"
#include "src/fs/server.h"
#include "src/fs/transport.h"
#include "src/fs/vfs.h"

namespace help {
namespace {

std::string SockPath(const char* name) {
  // Unique per test process; relative so it stays inside the build tree (and
  // under sun_path's 108-byte cap regardless of where the tree lives).
  return StrFormat("%s.%d.sock", name, getpid());
}

bool WaitFor(const std::function<bool()>& cond, int timeout_ms = 5000) {
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return cond();
}

// Raw-socket protocol helpers for the pipelined/hostile tests, where
// NinepClient's one-at-a-time RPC discipline is exactly what we must break.
std::string RecvFrame(int fd) {
  auto hdr = ReadFull(fd, 4);
  if (!hdr.ok()) {
    return {};
  }
  uint32_t size = static_cast<uint32_t>(static_cast<uint8_t>(hdr.value()[0])) |
                  static_cast<uint32_t>(static_cast<uint8_t>(hdr.value()[1])) << 8 |
                  static_cast<uint32_t>(static_cast<uint8_t>(hdr.value()[2])) << 16 |
                  static_cast<uint32_t>(static_cast<uint8_t>(hdr.value()[3])) << 24;
  if (size < kMinFrameSize || size > kMaxFrameSize) {
    return {};
  }
  auto rest = ReadFull(fd, size - 4);
  if (!rest.ok()) {
    return {};
  }
  return hdr.take() + rest.take();
}

Result<Fcall> RawRpc(int fd, const Fcall& t) {
  Status w = WriteFull(fd, EncodeFcall(t));
  if (!w.ok()) {
    return w;
  }
  std::string reply = RecvFrame(fd);
  if (reply.empty()) {
    return Status::Error("connection closed");
  }
  return DecodeFcall(reply);
}

// version + attach on a raw fd; returns false on any protocol error.
bool RawHandshake(int fd, uint32_t msize = kDefaultMsize) {
  Fcall tv;
  tv.type = MsgType::kTversion;
  tv.tag = 1;
  tv.msize = msize;
  tv.version = "9P.help";
  auto rv = RawRpc(fd, tv);
  if (!rv.ok() || rv.value().type != MsgType::kRversion) {
    return false;
  }
  Fcall ta;
  ta.type = MsgType::kTattach;
  ta.tag = 1;
  ta.fid = 0;
  ta.uname = "raw";
  auto ra = RawRpc(fd, ta);
  return ra.ok() && ra.value().type == MsgType::kRattach;
}

// Walks from fid 0 and opens read-only; returns the new fid or kNoFid.
uint32_t RawOpenRead(int fd, const std::vector<std::string>& names,
                     uint32_t newfid) {
  Fcall tw;
  tw.type = MsgType::kTwalk;
  tw.tag = 2;
  tw.fid = 0;
  tw.newfid = newfid;
  tw.wname = names;
  auto rw = RawRpc(fd, tw);
  if (!rw.ok() || rw.value().wqid.size() != names.size()) {
    return kNoFid;
  }
  Fcall to;
  to.type = MsgType::kTopen;
  to.tag = 2;
  to.fid = newfid;
  to.mode = kOread;
  auto ro = RawRpc(fd, to);
  return ro.ok() && ro.value().type == MsgType::kRopen ? newfid : kNoFid;
}

// --- Framing -----------------------------------------------------------------

TEST(FrameReader, ReassemblesDribbledAndCoalescedFrames) {
  Fcall t;
  t.type = MsgType::kTversion;
  t.tag = 1;
  t.msize = kDefaultMsize;
  t.version = "9P.help";
  std::string a = EncodeFcall(t);
  t.tag = 2;
  std::string b = EncodeFcall(t);

  // Byte-at-a-time: nothing pops until the last byte lands.
  FrameReader r;
  std::string frame;
  for (char& ch : a) {
    EXPECT_EQ(r.Pop(&frame), FrameReader::Next::kNeedMore);
    r.Feed(std::string_view(&ch, 1));
  }
  ASSERT_EQ(r.Pop(&frame), FrameReader::Next::kFrame);
  EXPECT_EQ(frame, a);
  EXPECT_EQ(r.Pop(&frame), FrameReader::Next::kNeedMore);

  // Two frames in one feed pop in order.
  r.Feed(a + b);
  ASSERT_EQ(r.Pop(&frame), FrameReader::Next::kFrame);
  EXPECT_EQ(frame, a);
  ASSERT_EQ(r.Pop(&frame), FrameReader::Next::kFrame);
  EXPECT_EQ(frame, b);
  EXPECT_EQ(r.buffered(), 0u);
}

TEST(FrameReader, PoisonsOnLyingSizeFields) {
  // A runt frame: size says 3, below the 7-byte minimum.
  FrameReader runt;
  runt.Feed(std::string("\x03\x00\x00\x00", 4));
  std::string frame;
  EXPECT_EQ(runt.Pop(&frame), FrameReader::Next::kError);
  EXPECT_TRUE(runt.poisoned());

  // An oversized frame: bigger than any negotiable msize.
  FrameReader big;
  big.Feed(std::string("\xFF\xFF\xFF\x7F", 4));
  EXPECT_EQ(big.Pop(&frame), FrameReader::Next::kError);
  // Poison is permanent: valid bytes after the lie never resynchronize.
  Fcall t;
  t.type = MsgType::kTversion;
  t.tag = 1;
  big.Feed(EncodeFcall(t));
  EXPECT_EQ(big.Pop(&frame), FrameReader::Next::kError);
}

// --- Round trips -------------------------------------------------------------

TEST(NinepListenerTest, UnixSocketRoundTrip) {
  Help::Options opt;
  opt.install_userland = false;
  Help h(opt);
  NinepServer& srv = h.ninep();
  uint64_t accepts0 = srv.metrics().net_accepts();

  NinepListener lis(&srv);
  std::string path = SockPath("unix_rt");
  ASSERT_TRUE(lis.ListenUnix(path).ok());
  ASSERT_TRUE(lis.Start().ok());

  auto tr = SocketTransport::ConnectUnix(path);
  ASSERT_TRUE(tr.ok()) << tr.message();
  NinepClient client(tr.value()->AsTransport());
  ASSERT_TRUE(client.Connect("sock").ok());

  // Create a window over the wire, append, and read back — the full help
  // surface through a real socket.
  auto ctl = client.ReadFile("/mnt/help/new/ctl");
  ASSERT_TRUE(ctl.ok());
  std::string base = "/mnt/help/" + std::string(TrimSpace(ctl.value()));
  ASSERT_TRUE(client.AppendFile(base + "/bodyapp", "over the wire\n").ok());
  auto body = client.ReadFile(base + "/body");
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body.value(), "over the wire\n");

  // The stats file serves the connection layer's own counters.
  auto stats = client.ReadFile("/mnt/help/stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats.value().find("\nnet_accepts "), std::string::npos) << stats.value();
  EXPECT_NE(stats.value().find("\nnet_active_conns "), std::string::npos);
  EXPECT_NE(stats.value().find("\nnet_reaped "), std::string::npos);
  EXPECT_NE(stats.value().find("\nnet_backpressure_stalls "), std::string::npos);
  EXPECT_NE(stats.value().find("\nnet_bytes_in "), std::string::npos);
  EXPECT_NE(stats.value().find("\nnet_bytes_out "), std::string::npos);

  EXPECT_EQ(srv.metrics().net_accepts(), accepts0 + 1);
  EXPECT_EQ(lis.active_conns(), 1u);
  lis.Stop();
  EXPECT_EQ(lis.active_conns(), 0u);
  EXPECT_EQ(srv.session_count(), 0u);
}

#if defined(__linux__)
size_t ThreadCount() {
  size_t n = 0;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/task")) {
    (void)e;
    n++;
  }
  return n;
}

// The thread count once threads that earlier tests joined have also left
// /proc/self/task (a joined thread can linger there for a moment).
size_t SettledThreadCount() {
  size_t n = ThreadCount();
  for (int i = 0; i < 100; i++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    size_t m = ThreadCount();
    if (m == n) {
      break;
    }
    n = m;
  }
  return n;
}

// The listener serves every connection from its one loop thread: Start adds
// exactly one thread to the process, and serving traffic adds none.
TEST(NinepListenerTest, StartsExactlyOneThread) {
  Help::Options opt;
  opt.install_userland = false;
  Help h(opt);
  NinepListener lis(&h.ninep());
  std::string path = SockPath("one_thread");
  ASSERT_TRUE(lis.ListenUnix(path).ok());
  // TSan's runtime starts a thread of its own at the first thread creation;
  // make that happen before counting, so only the listener's thread is new.
  std::thread([] {}).join();
  size_t before = SettledThreadCount();
  ASSERT_TRUE(lis.Start().ok());
  EXPECT_EQ(ThreadCount(), before + 1);

  auto tr = SocketTransport::ConnectUnix(path);
  ASSERT_TRUE(tr.ok()) << tr.message();
  NinepClient client(tr.value()->AsTransport());
  ASSERT_TRUE(client.Connect("one").ok());
  EXPECT_TRUE(client.ReadFile("/mnt/help/index").ok());
  EXPECT_EQ(ThreadCount(), before + 1);

  lis.Stop();
  EXPECT_TRUE(WaitFor([&] { return ThreadCount() == before; }));
}
#endif

TEST(NinepListenerTest, TcpSocketRoundTrip) {
  Help::Options opt;
  opt.install_userland = false;
  Help h(opt);
  NinepListener lis(&h.ninep());
  ASSERT_TRUE(lis.ListenTcp("127.0.0.1", 0).ok());
  ASSERT_NE(lis.port(), 0);
  ASSERT_TRUE(lis.Start().ok());

  auto tr = SocketTransport::ConnectTcp("127.0.0.1", lis.port());
  ASSERT_TRUE(tr.ok()) << tr.message();
  NinepClient client(tr.value()->AsTransport());
  ASSERT_TRUE(client.Connect("tcp").ok());
  auto idx = client.ReadFile("/mnt/help/index");
  EXPECT_TRUE(idx.ok());
}

// --- Protocol limits ---------------------------------------------------------

TEST(NinepListenerTest, MsizeIsClampedAndOversizedFramesHangUp) {
  Help::Options opt;
  opt.install_userland = false;
  Help h(opt);
  NinepServer& srv = h.ninep();
  uint64_t ferr0 = srv.metrics().net_frame_errors();
  NinepListener lis(&srv);
  std::string path = SockPath("msize");
  ASSERT_TRUE(lis.ListenUnix(path).ok());
  ASSERT_TRUE(lis.Start().ok());

  // An absurd client msize negotiates down, never up.
  auto fd = DialUnix(path);
  ASSERT_TRUE(fd.ok());
  Fcall tv;
  tv.type = MsgType::kTversion;
  tv.tag = 1;
  tv.msize = 16 * 1024 * 1024;
  tv.version = "9P.help";
  auto rv = RawRpc(fd.value(), tv);
  ASSERT_TRUE(rv.ok());
  EXPECT_EQ(rv.value().msize, kDefaultMsize);
  close(fd.value());

  // A frame whose size field exceeds the cap closes the connection: there is
  // no resynchronizing a framed stream after a lying length.
  auto bad = DialUnix(path);
  ASSERT_TRUE(bad.ok());
  ASSERT_TRUE(WriteFull(bad.value(), std::string("\x00\x00\x10\x00", 4)).ok());
  EXPECT_TRUE(RecvFrame(bad.value()).empty());  // EOF, not a reply
  close(bad.value());
  EXPECT_TRUE(WaitFor([&] {
    return srv.metrics().net_frame_errors() == ferr0 + 1 &&
           lis.active_conns() == 0;
  }));
}

// --- Lifecycle ---------------------------------------------------------------

// A synthetic file whose Clunk is observable, attached just for the reap
// test: proof that tearing a session down really runs handler clunks.
class ClunkProbeHandler : public FileHandler {
 public:
  explicit ClunkProbeHandler(std::atomic<int>* clunks) : clunks_(clunks) {}
  Result<std::string> Read(OpenFile& f, uint64_t offset, uint32_t count) override {
    return std::string(offset == 0 ? "probe\n" : "");
  }
  Result<uint32_t> Write(OpenFile& f, uint64_t offset, std::string_view data) override {
    return Status::Error("probe: read-only");
  }
  void Clunk(OpenFile& f) override { clunks_->fetch_add(1); }

 private:
  std::atomic<int>* clunks_;
};

TEST(NinepListenerTest, IdleReapClunksFidsAndFreesTheSession) {
  Help::Options opt;
  opt.install_userland = false;
  Help h(opt);
  NinepServer& srv = h.ninep();
  std::atomic<int> clunks{0};
  ASSERT_TRUE(h.vfs()
                  .AttachHandler("/mnt/help/reapprobe",
                                 std::make_shared<ClunkProbeHandler>(&clunks))
                  .ok());
  uint64_t reaped0 = srv.metrics().net_reaped();

  NinepListener::Options lopt;
  lopt.idle_timeout_ms = 100;
  NinepListener lis(&srv, lopt);
  std::string path = SockPath("reap");
  ASSERT_TRUE(lis.ListenUnix(path).ok());
  ASSERT_TRUE(lis.Start().ok());

  auto tr = SocketTransport::ConnectUnix(path);
  ASSERT_TRUE(tr.ok());
  NinepClient client(tr.value()->AsTransport());
  ASSERT_TRUE(client.Connect("idler").ok());
  auto fid = client.WalkFid("/mnt/help/reapprobe");
  ASSERT_TRUE(fid.ok());
  ASSERT_TRUE(client.OpenFid(fid.value(), kOread).ok());
  EXPECT_EQ(srv.session_count(), 1u);
  EXPECT_EQ(clunks.load(), 0);

  // Go idle past the timeout: the listener must close the socket, tear down
  // the session, and clunk the still-open probe fid through its handler.
  ASSERT_TRUE(WaitFor([&] { return srv.metrics().net_reaped() == reaped0 + 1; }));
  ASSERT_TRUE(WaitFor([&] { return srv.session_count() == 0; }));
  EXPECT_EQ(clunks.load(), 1);
  EXPECT_EQ(lis.active_conns(), 0u);

  // The reaped connection is really dead: the next RPC surfaces an error
  // instead of hanging.
  EXPECT_FALSE(client.ReadFid(fid.value(), 0, 16).ok());
}

// The loop sleeps until the earliest idle deadline: a connection that keeps
// talking is never reaped, and one that falls silent is reaped soon after
// the timeout even when no other traffic wakes the loop.
TEST(NinepListenerTest, IdleDeadlineReapsPromptlyAndSparesActiveConnections) {
  Help::Options opt;
  opt.install_userland = false;
  Help h(opt);
  NinepServer& srv = h.ninep();
  uint64_t reaped0 = srv.metrics().net_reaped();

  NinepListener::Options lopt;
  lopt.idle_timeout_ms = 100;
  NinepListener lis(&srv, lopt);
  std::string path = SockPath("reapdeadline");
  ASSERT_TRUE(lis.ListenUnix(path).ok());
  ASSERT_TRUE(lis.Start().ok());

  auto idle_tr = SocketTransport::ConnectUnix(path);
  ASSERT_TRUE(idle_tr.ok());
  NinepClient idler(idle_tr.value()->AsTransport());
  ASSERT_TRUE(idler.Connect("idler").ok());
  auto busy_tr = SocketTransport::ConnectUnix(path);
  ASSERT_TRUE(busy_tr.ok());
  NinepClient busy(busy_tr.value()->AsTransport());
  ASSERT_TRUE(busy.Connect("busy").ok());
  EXPECT_EQ(srv.session_count(), 2u);

  auto t0 = std::chrono::steady_clock::now();
  auto elapsed_ms = [&] {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };
  // The busy client talks every 20 ms until the idler is reaped, and then
  // for three more timeouts. Prompt means the timeout plus bounded slack
  // for a loaded CI machine.
  const long slack_ms = 1900;
  long reaped_at_ms = -1;
  while (elapsed_ms() < 5000) {
    ASSERT_TRUE(busy.ReadFile("/mnt/help/index").ok());
    if (reaped_at_ms < 0 && srv.metrics().net_reaped() == reaped0 + 1) {
      reaped_at_ms = elapsed_ms();
    }
    if (reaped_at_ms >= 0 && elapsed_ms() > reaped_at_ms + 3 * lopt.idle_timeout_ms) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_GE(reaped_at_ms, 0) << "the idle connection was never reaped";
  EXPECT_LT(reaped_at_ms, lopt.idle_timeout_ms + slack_ms);
  EXPECT_EQ(srv.metrics().net_reaped(), reaped0 + 1);
  EXPECT_EQ(lis.active_conns(), 1u);
  EXPECT_EQ(srv.session_count(), 1u);
  EXPECT_FALSE(idler.ReadFile("/mnt/help/index").ok());

  // Now the busy client falls silent too, and nothing else wakes the loop.
  t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(WaitFor([&] { return srv.metrics().net_reaped() == reaped0 + 2; }));
  EXPECT_LT(elapsed_ms(), lopt.idle_timeout_ms + slack_ms);
  ASSERT_TRUE(WaitFor([&] { return srv.session_count() == 0; }));
  EXPECT_EQ(lis.active_conns(), 0u);
}

TEST(NinepListenerTest, DisconnectWithRequestsMidDispatchIsClean) {
  Help::Options opt;
  opt.install_userland = false;
  Help h(opt);
  NinepServer& srv = h.ninep();
  NinepListener lis(&srv);
  std::string path = SockPath("middrop");
  ASSERT_TRUE(lis.ListenUnix(path).ok());
  ASSERT_TRUE(lis.Start().ok());

  // Seed a window with a body worth reading.
  {
    auto tr = SocketTransport::ConnectUnix(path);
    ASSERT_TRUE(tr.ok());
    NinepClient seeder(tr.value()->AsTransport());
    ASSERT_TRUE(seeder.Connect("seed").ok());
    auto ctl = seeder.ReadFile("/mnt/help/new/ctl");
    ASSERT_TRUE(ctl.ok());
    std::string base = "/mnt/help/" + std::string(TrimSpace(ctl.value()));
    std::string blob(32 * 1024, 'x');
    ASSERT_TRUE(seeder.WriteFile(base + "/bodyapp", blob).ok());
  }

  // Several rounds: pipeline a burst of Treads and slam the socket shut with
  // requests still queued or mid-dispatch. The session must drain and die
  // without use-after-free (ASan/TSan builds are the other half of this
  // test), and the server must keep serving.
  for (int round = 0; round < 8; round++) {
    auto fd = DialUnix(path);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(RawHandshake(fd.value()));
    uint32_t body = RawOpenRead(fd.value(), {"mnt", "help", "1", "body"}, 1);
    ASSERT_NE(body, kNoFid);
    std::string burst;
    for (int i = 0; i < 50; i++) {
      Fcall tr_;
      tr_.type = MsgType::kTread;
      tr_.tag = static_cast<uint16_t>(100 + i);
      tr_.fid = body;
      tr_.offset = 0;
      tr_.count = 32 * 1024;
      burst += EncodeFcall(tr_);
    }
    ASSERT_TRUE(WriteFull(fd.value(), burst).ok());
    close(fd.value());  // mid-burst hangup
  }
  ASSERT_TRUE(WaitFor([&] { return srv.session_count() == 0; }));

  auto tr = SocketTransport::ConnectUnix(path);
  ASSERT_TRUE(tr.ok());
  NinepClient after(tr.value()->AsTransport());
  ASSERT_TRUE(after.Connect("after").ok());
  EXPECT_TRUE(after.ReadFile("/mnt/help/index").ok());
}

TEST(NinepListenerTest, BackpressureStallsSlowReaderAndRecovers) {
  Help::Options opt;
  opt.install_userland = false;
  Help h(opt);
  NinepServer& srv = h.ninep();

  NinepListener::Options lopt;
  lopt.max_outbox_bytes = 8 * 1024;  // tiny bound so one big reply stalls
  NinepListener lis(&srv, lopt);
  std::string path = SockPath("bp");
  ASSERT_TRUE(lis.ListenUnix(path).ok());
  ASSERT_TRUE(lis.Start().ok());

  // A ~40KB body: each Rread is about 5x the outbox bound.
  std::string blob;
  for (int i = 0; i < 768; i++) {
    blob += StrFormat("line %05d of the backpressure body, padded out....\n", i);
  }
  {
    auto tr = SocketTransport::ConnectUnix(path);
    ASSERT_TRUE(tr.ok());
    NinepClient seeder(tr.value()->AsTransport());
    ASSERT_TRUE(seeder.Connect("seed").ok());
    auto ctl = seeder.ReadFile("/mnt/help/new/ctl");
    ASSERT_TRUE(ctl.ok());
    std::string base = "/mnt/help/" + std::string(TrimSpace(ctl.value()));
    ASSERT_TRUE(seeder.WriteFile(base + "/bodyapp", blob).ok());
  }

  // Two bursts, each on a fresh connection: 20 whole-body reads, then the
  // same reads with a small Tstat after each, so the outbox resumes a
  // partial send across replies of mixed sizes.
  for (bool with_stats : {false, true}) {
    SCOPED_TRACE(with_stats ? "reads and stats" : "reads only");
    uint64_t stalls0 = srv.metrics().net_backpressure_stalls();
    auto fd = DialUnix(path);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(RawHandshake(fd.value()));
    uint32_t body = RawOpenRead(fd.value(), {"mnt", "help", "1", "body"}, 1);
    ASSERT_NE(body, kNoFid);
    Fcall ts;
    ts.type = MsgType::kTstat;
    ts.tag = 3;
    ts.fid = body;
    auto rs = RawRpc(fd.value(), ts);
    ASSERT_TRUE(rs.ok());
    ASSERT_EQ(rs.value().type, MsgType::kRstat);

    // Pipeline the burst and read back NOTHING: ~800KB of replies must
    // squeeze through an 8KB outbox, so the listener must park the
    // connection.
    constexpr int kReads = 20;
    std::string burst;
    std::vector<std::string> want;
    uint16_t tag = 200;
    for (int i = 0; i < kReads; i++) {
      Fcall t;
      t.type = MsgType::kTread;
      t.tag = tag;
      t.fid = body;
      t.offset = 0;
      t.count = kDefaultMsize;  // clamped to msize - kIoHeader by the server
      burst += EncodeFcall(t);
      Fcall r;
      r.type = MsgType::kRread;
      r.tag = tag++;
      r.data = blob;
      want.push_back(EncodeFcall(r));
      if (with_stats) {
        ts.tag = tag;
        burst += EncodeFcall(ts);
        Fcall st = rs.value();
        st.tag = tag++;
        want.push_back(EncodeFcall(st));
      }
    }
    ASSERT_TRUE(WriteFull(fd.value(), burst).ok());
    ASSERT_TRUE(WaitFor([&] {
      return srv.metrics().net_backpressure_stalls() > stalls0;
    })) << "slow reader never stalled";

    // Now drain: every reply must arrive, in order and byte-exact — the
    // stall must hand back exactly the bytes it parked, then the connection
    // stays usable.
    for (size_t i = 0; i < want.size(); i++) {
      std::string reply = RecvFrame(fd.value());
      ASSERT_FALSE(reply.empty()) << "reply " << i << " lost to backpressure";
      ASSERT_EQ(reply.size(), want[i].size()) << "reply " << i;
      ASSERT_TRUE(reply == want[i]) << "reply " << i << " differs";
    }
    ts.tag = 3;
    auto again = RawRpc(fd.value(), ts);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.value().type, MsgType::kRstat);
    close(fd.value());
  }
}

// --- Pipelined requests ------------------------------------------------------

class SlowReadHandler : public FileHandler {
 public:
  Result<std::string> Read(OpenFile& f, uint64_t offset, uint32_t count) override {
    if (offset > 0) {
      return std::string();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    return std::string("slow\n");
  }
  Result<uint32_t> Write(OpenFile& f, uint64_t offset, std::string_view data) override {
    return Status::Error("read-only");
  }
};

class FastReadHandler : public FileHandler {
 public:
  Result<std::string> Read(OpenFile& f, uint64_t offset, uint32_t count) override {
    return offset > 0 ? std::string() : std::string("fast\n");
  }
  Result<uint32_t> Write(OpenFile& f, uint64_t offset, std::string_view data) override {
    return Status::Error("read-only");
  }
};

// Requests pipelined on ONE connection are answered in request order: a
// slow read (its handler sleeps 100ms) followed by a fast read, a stat, and
// a read of a regular file, all sent in one write. The listener runs each
// request to completion before the next, so the replies come back in
// exactly the order the requests went out.
TEST(PipelinedDispatch, PipelinedRepliesComeBackInRequestOrder) {
  Help::Options opt;
  opt.install_userland = false;
  Help h(opt);
  NinepServer& srv = h.ninep();
  ASSERT_TRUE(
      h.vfs().AttachHandler("/mnt/help/slow9", std::make_shared<SlowReadHandler>()).ok());
  ASSERT_TRUE(
      h.vfs().AttachHandler("/mnt/help/fast9", std::make_shared<FastReadHandler>()).ok());
  ASSERT_TRUE(h.vfs().MkdirAll("/tmp").ok());
  ASSERT_TRUE(h.vfs().WriteFile("/tmp/plain9", "plain\n").ok());

  NinepListener lis(&srv);
  std::string path = SockPath("order");
  ASSERT_TRUE(lis.ListenUnix(path).ok());
  ASSERT_TRUE(lis.Start().ok());

  auto fd = DialUnix(path);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(RawHandshake(fd.value()));
  uint32_t slow = RawOpenRead(fd.value(), {"mnt", "help", "slow9"}, 1);
  uint32_t fast = RawOpenRead(fd.value(), {"mnt", "help", "fast9"}, 2);
  uint32_t plain = RawOpenRead(fd.value(), {"tmp", "plain9"}, 3);
  ASSERT_NE(slow, kNoFid);
  ASSERT_NE(fast, kNoFid);
  ASSERT_NE(plain, kNoFid);

  Fcall t1;
  t1.type = MsgType::kTread;
  t1.tag = 10;
  t1.fid = slow;
  t1.offset = 0;
  t1.count = 128;
  Fcall t2 = t1;
  t2.tag = 11;
  t2.fid = fast;
  Fcall t3;
  t3.type = MsgType::kTstat;
  t3.tag = 12;
  t3.fid = fast;
  Fcall t4 = t1;
  t4.tag = 13;
  t4.fid = plain;
  ASSERT_TRUE(WriteFull(fd.value(), EncodeFcall(t1) + EncodeFcall(t2) +
                                        EncodeFcall(t3) + EncodeFcall(t4))
                  .ok());

  std::vector<Fcall> replies;
  for (int i = 0; i < 4; i++) {
    auto r = DecodeFcall(RecvFrame(fd.value()));
    ASSERT_TRUE(r.ok()) << "reply " << i;
    replies.push_back(r.take());
  }
  EXPECT_EQ(replies[0].tag, 10);
  EXPECT_EQ(replies[0].data, "slow\n");
  EXPECT_EQ(replies[1].tag, 11);
  EXPECT_EQ(replies[1].data, "fast\n");
  EXPECT_EQ(replies[2].tag, 12);
  EXPECT_EQ(replies[2].type, MsgType::kRstat);
  EXPECT_EQ(replies[3].tag, 13);
  EXPECT_EQ(replies[3].data, "plain\n");
  close(fd.value());
  lis.Stop();
  ::unlink(path.c_str());
}

// Satellite (b): with several requests in flight, a dead transport answers
// each RecvReply with a synthesized Rerror for the OLDEST outstanding tag —
// FIFO pairing, one reply per request, each carrying its own tag.
TEST(SocketTransportTest, SynthesizedRerrorsCarryInflightTagsFifo) {
  std::string path = SockPath("fifotag");
  auto lfd = help::ListenUnix(path);
  ASSERT_TRUE(lfd.ok());
  // Accept one connection and slam it shut without reading.
  std::thread acceptor([&] {
    int cfd = accept(lfd.value(), nullptr, nullptr);
    if (cfd >= 0) {
      close(cfd);
    }
  });
  auto tr = SocketTransport::ConnectUnix(path);
  ASSERT_TRUE(tr.ok());
  acceptor.join();

  Fcall t1;
  t1.type = MsgType::kTversion;
  t1.tag = 1;
  t1.msize = kDefaultMsize;
  t1.version = "9P.help";
  Fcall t2;
  t2.type = MsgType::kTstat;
  t2.tag = 2;
  t2.fid = 0;
  // Both sends are attempted before any receive: two requests in flight.
  // (Either send may "succeed" into a doomed socket buffer; that must not
  // change the reply pairing.)
  (void)tr.value()->Send(EncodeFcall(t1));
  (void)tr.value()->Send(EncodeFcall(t2));
  EXPECT_EQ(tr.value()->inflight(), 2u);

  auto r1 = DecodeFcall(tr.value()->RecvReply());
  auto r2 = DecodeFcall(tr.value()->RecvReply());
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1.value().type, MsgType::kRerror);
  EXPECT_EQ(r1.value().tag, 1) << r1.value().ename;
  EXPECT_EQ(r2.value().type, MsgType::kRerror);
  EXPECT_EQ(r2.value().tag, 2) << r2.value().ename;
  close(lfd.value());
  ::unlink(path.c_str());
}

// --- The client's buffered reply reader -----------------------------------------

// A SocketTransport connected to a raw socket that the test answers by hand,
// so reply bytes can arrive in any grouping: several replies in one segment,
// one byte at a time, or cut off mid-frame.
struct RawPeer {
  std::string path;
  std::unique_ptr<SocketTransport> tr;
  int fd = -1;  // the answering end

  explicit RawPeer(const char* name) : path(SockPath(name)) {
    auto lfd = ListenUnix(path);
    if (!lfd.ok()) {
      return;
    }
    auto t = SocketTransport::ConnectUnix(path);
    if (t.ok()) {
      tr = t.take();
      fd = accept(lfd.value(), nullptr, nullptr);
    }
    close(lfd.value());
  }
  ~RawPeer() {
    if (fd >= 0) {
      close(fd);
    }
    ::unlink(path.c_str());
  }
  bool ok() const { return tr != nullptr && fd >= 0; }
};

std::string EncodeRread(uint16_t tag, std::string data) {
  Fcall r;
  r.type = MsgType::kRread;
  r.tag = tag;
  r.data = std::move(data);
  return EncodeFcall(r);
}

std::string EncodeTread(uint16_t tag) {
  Fcall t;
  t.type = MsgType::kTread;
  t.tag = tag;
  t.fid = 1;
  t.count = 64;
  return EncodeFcall(t);
}

// Decodes a reply the transport returned; a synthesized Rerror decodes too.
Fcall MustDecode(const std::string& packet) {
  auto r = DecodeFcall(packet);
  EXPECT_TRUE(r.ok()) << r.status().message();
  return r.ok() ? r.take() : Fcall{};
}

// Two replies written in one segment are both returned, in order, to a
// pipelined read.
TEST(SocketTransportTest, TwoRepliesInOneSegment) {
  RawPeer peer("twoinone");
  ASSERT_TRUE(peer.ok());
  NinepClient client([](std::string_view) { return std::string(); });
  client.set_pipe_io(peer.tr->AsPipeIo());
  std::thread server([&] {
    std::string t1 = RecvFrame(peer.fd);
    std::string t2 = RecvFrame(peer.fd);
    ASSERT_TRUE(WriteFull(peer.fd, EncodeRread(FrameTag(t1), "hello") +
                                       EncodeRread(FrameTag(t2), "wörld"))
                    .ok());
  });
  auto got = client.ReadFidPipelined(1, {{0, 5}, {5, 6}}, /*window=*/2);
  server.join();
  ASSERT_TRUE(got.ok()) << got.status().message();
  EXPECT_EQ(got.value(), (std::vector<std::string>{"hello", "wörld"}));
  EXPECT_EQ(peer.tr->inflight(), 0u);
}

// A reply that arrives one byte at a time, header included, is reassembled;
// so is the next one.
TEST(SocketTransportTest, ReplySentOneByteAtATime) {
  RawPeer peer("dribble");
  ASSERT_TRUE(peer.ok());
  const std::string replies[2] = {EncodeRread(1, "dribbled"), EncodeRread(2, "again")};
  std::thread server([&] {
    for (const std::string& reply : replies) {
      RecvFrame(peer.fd);
      for (char ch : reply) {
        ASSERT_TRUE(WriteFull(peer.fd, std::string_view(&ch, 1)).ok());
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
  });
  EXPECT_EQ(peer.tr->Rpc(EncodeTread(1)), replies[0]);
  EXPECT_EQ(peer.tr->Rpc(EncodeTread(2)), replies[1]);
  server.join();
  EXPECT_FALSE(peer.tr->closed());
}

// Replies larger than the initial buffer, up to the msize cap, come back
// whole when they arrive behind a small reply (so the partial frame must move
// to the front before the buffer grows), and a small reply queued behind the
// largest still follows it.
TEST(SocketTransportTest, ReplyLargerThanTheBufferUpToMsize) {
  RawPeer peer("bigreply");
  ASSERT_TRUE(peer.ok());
  constexpr size_t kRreadHeader = 4 + 1 + 2 + 4;  // size type tag count
  const std::string replies[4] = {
      EncodeRread(1, "head"),
      EncodeRread(2, std::string(20000, 'x')),
      EncodeRread(3, std::string(kMaxFrameSize - kRreadHeader, 'y')),
      EncodeRread(4, "tail"),
  };
  ASSERT_EQ(replies[2].size(), kMaxFrameSize);
  for (uint16_t tag = 1; tag <= 4; tag++) {
    ASSERT_TRUE(peer.tr->Send(EncodeTread(tag)).ok());
  }
  // A socket buffer may hold less than these replies, so write from a thread.
  std::thread server([&] {
    ASSERT_TRUE(
        WriteFull(peer.fd, replies[0] + replies[1] + replies[2] + replies[3]).ok());
  });
  for (const std::string& want : replies) {
    ASSERT_EQ(peer.tr->RecvReply(), want);
  }
  server.join();
  EXPECT_EQ(peer.tr->inflight(), 0u);
}

// A peer that closes mid-frame answers every request in flight with one
// synthesized Rerror each, oldest first: after only the size field of a
// reply, and after a real reply plus half the next one's body.
TEST(SocketTransportTest, CloseMidFrameFailsEachInflightTagOldestFirst) {
  for (bool mid_body : {false, true}) {
    SCOPED_TRACE(mid_body ? "mid-body close" : "header-only close");
    RawPeer peer("midclose");
    ASSERT_TRUE(peer.ok());
    for (uint16_t tag = 1; tag <= 3; tag++) {
      ASSERT_TRUE(peer.tr->Send(EncodeTread(tag)).ok());
    }
    std::string sent;
    uint16_t first_failed = 1;
    if (mid_body) {
      const std::string next = EncodeRread(2, "never finished");
      sent = EncodeRread(1, "whole") + next.substr(0, next.size() / 2);
      first_failed = 2;
    } else {
      sent = EncodeRread(1, "never sent").substr(0, 4);
    }
    // Take the requests first: closing on unread bytes would reset the
    // connection rather than end it.
    for (int i = 0; i < 3; i++) {
      ASSERT_FALSE(RecvFrame(peer.fd).empty());
    }
    ASSERT_TRUE(WriteFull(peer.fd, sent).ok());
    close(peer.fd);
    peer.fd = -1;

    if (mid_body) {
      Fcall whole = MustDecode(peer.tr->RecvReply());
      EXPECT_EQ(whole.type, MsgType::kRread);
      EXPECT_EQ(whole.tag, 1);
      EXPECT_EQ(whole.data, "whole");
    }
    // The first failure names the cause; the transport is closed after it.
    for (uint16_t tag = first_failed; tag <= 3; tag++) {
      Fcall r = MustDecode(peer.tr->RecvReply());
      EXPECT_EQ(r.type, MsgType::kRerror);
      EXPECT_EQ(r.tag, tag) << r.ename;
      EXPECT_EQ(r.ename, tag == first_failed ? "connection closed" : "ninep: transport closed");
    }
    EXPECT_EQ(peer.tr->inflight(), 0u);
    EXPECT_TRUE(peer.tr->closed());
  }
}

// A size field outside [kMinFrameSize, kMaxFrameSize] fails the oldest tag
// and closes the transport; the next request in flight fails too.
TEST(SocketTransportTest, BadReplyFrameSizeFailsAndCloses) {
  for (uint32_t size : {uint32_t{3}, kMaxFrameSize + 1}) {
    SCOPED_TRACE(size);
    RawPeer peer("badsize");
    ASSERT_TRUE(peer.ok());
    ASSERT_TRUE(peer.tr->Send(EncodeTread(1)).ok());
    ASSERT_TRUE(peer.tr->Send(EncodeTread(2)).ok());
    std::string frame = EncodeRread(1, "payload");
    for (int i = 0; i < 4; i++) {
      frame[static_cast<size_t>(i)] = static_cast<char>(size >> (8 * i));
    }
    ASSERT_TRUE(WriteFull(peer.fd, frame).ok());

    Fcall r1 = MustDecode(peer.tr->RecvReply());
    EXPECT_EQ(r1.type, MsgType::kRerror);
    EXPECT_EQ(r1.tag, 1);
    EXPECT_NE(r1.ename.find(StrFormat("bad reply frame size %u", size)), std::string::npos)
        << r1.ename;
    EXPECT_TRUE(peer.tr->closed());
    Fcall r2 = MustDecode(peer.tr->RecvReply());
    EXPECT_EQ(r2.type, MsgType::kRerror);
    EXPECT_EQ(r2.tag, 2);
    EXPECT_EQ(peer.tr->inflight(), 0u);
  }
}

// The pipelined multi-tag read helper returns byte-exact results in issue
// order over a real socket, and the outbox drains are counted globally and
// per connection.
TEST(PipelinedDispatch, ReadFidPipelinedMatchesOracle) {
  Help::Options opt;
  opt.install_userland = false;
  Help h(opt);
  NinepServer& srv = h.ninep();

  NinepListener lis(&srv);
  std::string path = SockPath("pipe");
  ASSERT_TRUE(lis.ListenUnix(path).ok());
  ASSERT_TRUE(lis.Start().ok());

  auto tr = SocketTransport::ConnectUnix(path);
  ASSERT_TRUE(tr.ok());
  NinepClient client(tr.value()->AsTransport());
  client.set_pipe_io(tr.value()->AsPipeIo());
  ASSERT_TRUE(client.Connect("pipe").ok());

  auto ctl = client.ReadFile("/mnt/help/new/ctl");
  ASSERT_TRUE(ctl.ok());
  std::string base = "/mnt/help/" + std::string(TrimSpace(ctl.value()));
  // Multi-byte runes so the read windows straddle rune boundaries.
  std::string mirror;
  for (int i = 0; i < 200; i++) {
    mirror += StrFormat("ligne %03d — naïve 你好 😀 padding padding\n", i);
  }
  ASSERT_TRUE(client.WriteFile(base + "/bodyapp", mirror).ok());

  auto fid = client.WalkFid(base + "/body");
  ASSERT_TRUE(fid.ok());
  ASSERT_TRUE(client.OpenFid(fid.value(), kOread).ok());

  std::vector<NinepClient::ReadRange> ranges;
  for (uint64_t off = 3; off + 1000 < mirror.size(); off += 997) {
    ranges.push_back({off, 1000});
  }
  ranges.push_back({mirror.size() - 5, 4096});  // tail, short read
  ASSERT_GE(ranges.size(), 8u);

  auto got = client.ReadFidPipelined(fid.value(), ranges, /*window=*/6);
  ASSERT_TRUE(got.ok()) << got.status().message();
  ASSERT_EQ(got.value().size(), ranges.size());
  for (size_t i = 0; i < ranges.size(); i++) {
    EXPECT_EQ(got.value()[i],
              mirror.substr(ranges[i].offset, ranges[i].count))
        << "range " << i;
  }

  auto conns = srv.net().List();
  ASSERT_EQ(conns.size(), 1u);
  EXPECT_GT(conns[0]->writev_calls(), 0u);
  EXPECT_GT(srv.metrics().net_writev_calls(), 0u);
  lis.Stop();
  ::unlink(path.c_str());
}

// A reply carrying a tag that was never issued fails the pipelined collect —
// the PR 7 hostile-peer discipline survives the multi-tag path.
TEST(PipelinedDispatch, ReadFidPipelinedRejectsUnknownTags) {
  NinepClient client([](std::string_view) { return std::string(); });
  NinepClient::PipeIo io;
  io.send = [](std::string_view) { return Status::Ok(); };
  io.recv = []() -> Result<std::string> {
    Fcall r;
    r.type = MsgType::kRread;
    r.tag = 999;  // never issued
    r.data = "bogus";
    return EncodeFcall(r);
  };
  client.set_pipe_io(std::move(io));
  auto got = client.ReadFidPipelined(7, {{0, 16}, {16, 16}});
  ASSERT_FALSE(got.ok());
  EXPECT_NE(got.status().message().find("never issued"), std::string::npos)
      << got.status().message();
}

}  // namespace
}  // namespace help
