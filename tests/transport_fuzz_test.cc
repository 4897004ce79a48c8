// Wire-level frame fuzzing: the transport battery's hostile half. Seeded
// deterministic corruption — truncated frames, length fields that lie in
// both directions, msize violations, bit flips, garbage injection, and pure
// noise — is thrown at a live listener. The server may hang up on any of it
// (that is the correct response); what it must never do is crash, leak a
// session, or deadlock. Run under the HELP_SANITIZE matrix, ASan/UBSan make
// "never crash" mean "never touches freed or uninitialized memory" too.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/base/strings.h"
#include "src/core/help.h"
#include "src/fs/listener.h"
#include "src/fs/server.h"
#include "src/fs/transport.h"

namespace help {
namespace {

// Deterministic PRNG (same policy as the property suites: no rand(), no
// nondeterministic seeds — a failure reproduces from the case number alone).
class Lcg {
 public:
  explicit Lcg(uint64_t seed) : state_(seed * 2862933555777941757ULL + 3037000493ULL) {}
  uint32_t Next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<uint32_t>(state_ >> 33);
  }
  uint32_t Below(uint32_t n) { return n == 0 ? 0 : Next() % n; }

 private:
  uint64_t state_;
};

std::string WellFormedStream(Lcg& rng) {
  // A plausible session: version, attach, then a few random T-messages with
  // random fids/tags — legal framing, arbitrary semantics.
  std::string out;
  Fcall tv;
  tv.type = MsgType::kTversion;
  tv.tag = 1;
  tv.msize = kDefaultMsize;
  tv.version = "9P.help";
  out += EncodeFcall(tv);
  Fcall ta;
  ta.type = MsgType::kTattach;
  ta.tag = 1;
  ta.fid = 0;
  ta.uname = "fuzz";
  out += EncodeFcall(ta);
  int n = 2 + rng.Below(6);
  for (int i = 0; i < n; i++) {
    Fcall t;
    t.tag = static_cast<uint16_t>(2 + i);
    t.fid = rng.Below(4);
    switch (rng.Below(5)) {
      case 0:
        t.type = MsgType::kTwalk;
        t.newfid = 1 + rng.Below(8);
        t.wname = {"mnt", "help"};
        break;
      case 1:
        t.type = MsgType::kTopen;
        t.mode = static_cast<uint8_t>(rng.Below(4));
        break;
      case 2:
        t.type = MsgType::kTread;
        t.offset = rng.Below(1 << 20);
        t.count = rng.Below(kDefaultMsize);
        break;
      case 3:
        t.type = MsgType::kTstat;
        break;
      default:
        t.type = MsgType::kTclunk;
        break;
    }
    out += EncodeFcall(t);
  }
  return out;
}

// One corruption strategy per case, chosen by the seed.
std::string Corrupt(std::string stream, Lcg& rng) {
  switch (rng.Below(6)) {
    case 0: {  // truncate mid-frame
      if (!stream.empty()) {
        stream.resize(rng.Below(static_cast<uint32_t>(stream.size())));
      }
      return stream;
    }
    case 1: {  // length field lies small (runt) at a random frame boundary
      if (stream.size() >= 4) {
        size_t at = rng.Below(static_cast<uint32_t>(stream.size() - 3));
        uint32_t lie = rng.Below(kMinFrameSize);
        for (int i = 0; i < 4; i++) {
          stream[at + i] = static_cast<char>((lie >> (8 * i)) & 0xFF);
        }
      }
      return stream;
    }
    case 2: {  // length field lies big: msize violation / memory-bomb claim
      if (stream.size() >= 4) {
        uint32_t lie = kMaxFrameSize + 1 + rng.Below(1u << 28);
        for (int i = 0; i < 4; i++) {
          stream[i] = static_cast<char>((lie >> (8 * i)) & 0xFF);
        }
      }
      return stream;
    }
    case 3: {  // random bit flips (framing may survive; payload is garbage)
      int flips = 1 + rng.Below(16);
      for (int i = 0; i < flips && !stream.empty(); i++) {
        size_t at = rng.Below(static_cast<uint32_t>(stream.size()));
        stream[at] = static_cast<char>(stream[at] ^ (1 << rng.Below(8)));
      }
      return stream;
    }
    case 4: {  // garbage inserted between two legal frames
      std::string noise;
      int n = 1 + rng.Below(64);
      for (int i = 0; i < n; i++) {
        noise += static_cast<char>(rng.Below(256));
      }
      size_t at = rng.Below(static_cast<uint32_t>(stream.size() + 1));
      return stream.substr(0, at) + noise + stream.substr(at);
    }
    default: {  // pure noise, no legal structure at all
      std::string noise;
      int n = 8 + rng.Below(512);
      for (int i = 0; i < n; i++) {
        noise += static_cast<char>(rng.Below(256));
      }
      return noise;
    }
  }
}

TEST(TransportFuzz, HostileStreamsNeverCrashLeakOrDeadlock) {
  Help::Options opt;
  opt.install_userland = false;
  Help h(opt);
  NinepServer& srv = h.ninep();
  size_t sessions0 = srv.session_count();

  NinepListener lis(&srv);
  std::string path = StrFormat("fuzz.%d.sock", getpid());
  ASSERT_TRUE(lis.ListenUnix(path).ok());
  ASSERT_TRUE(lis.Start().ok());

  constexpr int kCases = 120;
  for (int seed = 0; seed < kCases; seed++) {
    Lcg rng(seed + 1);
    std::string hostile = Corrupt(WellFormedStream(rng), rng);

    auto fd = DialUnix(path);
    ASSERT_TRUE(fd.ok()) << "case " << seed << ": " << fd.message();
    // Best-effort write: the server may hang up mid-stream (that's the
    // policy), so a failed send is a pass, not an error. The half-close
    // tells the server no more is coming, so well-framed garbage ends in a
    // prompt EOF teardown instead of a drain timeout.
    (void)WriteFull(fd.value(), hostile);
    shutdown(fd.value(), SHUT_WR);

    // Drain whatever the server says until it hangs up. The bounded timeout
    // turns a deadlocked server into a test failure instead of a hung suite.
    struct timeval tv = {2, 0};
    setsockopt(fd.value(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    char buf[4096];
    while (recv(fd.value(), buf, sizeof(buf), 0) > 0) {
    }
    close(fd.value());

    // Every 16 cases, a well-behaved client proves the server still serves —
    // a silent wedge would otherwise hide until the end.
    if (seed % 16 == 15) {
      auto tr = SocketTransport::ConnectUnix(path);
      ASSERT_TRUE(tr.ok()) << "case " << seed;
      NinepClient probe(tr.value()->AsTransport());
      ASSERT_TRUE(probe.Connect("probe").ok()) << "case " << seed;
      auto idx = probe.ReadFile("/mnt/help/index");
      ASSERT_TRUE(idx.ok()) << "case " << seed << ": " << idx.message();
    }
  }

  // No leaked sessions: once every hostile connection is gone, the session
  // table must return to its baseline (poll: teardown is asynchronous).
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline &&
         (srv.session_count() != sessions0 || lis.active_conns() != 0)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(srv.session_count(), sessions0);
  EXPECT_EQ(lis.active_conns(), 0u);
  lis.Stop();
}

}  // namespace
}  // namespace help
