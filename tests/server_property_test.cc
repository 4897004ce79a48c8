// Property suite for concurrent dispatch: N reader sessions
// hammer a window's `body` file with range Treads while one writer session
// appends through `bodyapp`, all over the full encode → dispatch → decode
// byte path. The body only ever grows by appending a deterministic byte
// pattern, so *every* Rread — no matter how it interleaves with the writer —
// must return bytes that match the pattern at their absolute offsets. A torn
// read (a snapshot taken mid-edit) shows up as a byte that disagrees with
// the pattern.
//
// Runs under the `property` ctest label; the TSan CI job is the other half
// of the contract (no data races between the readers and the writer).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/base/strings.h"
#include "src/core/help.h"
#include "src/fs/server.h"
#include "src/wm/wm.h"

namespace help {
namespace {

// Byte i of the body, forever: a–z cycling, with a newline every 64 bytes so
// the line index gets exercised too. Pure ASCII, so byte offsets and rune
// offsets coincide and Utf8Substr windows line up with Tread offsets.
char PatternByte(uint64_t i) {
  return i % 64 == 63 ? '\n' : static_cast<char>('a' + (i % 26));
}

std::string PatternChunk(uint64_t start, size_t n) {
  std::string s;
  s.reserve(n);
  for (size_t i = 0; i < n; i++) {
    s.push_back(PatternByte(start + i));
  }
  return s;
}

// Deterministic per-reader offsets; the suite must not depend on rand().
struct Lcg {
  uint32_t state;
  explicit Lcg(uint32_t seed) : state(seed * 2654435761u + 1) {}
  uint32_t Next() {
    state = state * 1664525 + 1013904223;
    return state >> 8;
  }
};

TEST(NinepServerProperty, ConcurrentBodyReadsArePrefixConsistentSnapshots) {
  Help::Options opt;
  opt.install_userland = false;
  Help h(opt);
  NinepServer& srv = h.ninep();

  // Writer session: create one window, seed the body with the pattern
  // prefix, and keep a write-only bodyapp fid open for the append loop.
  NinepServer::SessionId wsid = srv.OpenSession();
  NinepClient writer(srv.TransportFor(wsid));
  ASSERT_TRUE(writer.Connect("writer").ok());
  auto ctl = writer.ReadFile("/mnt/help/new/ctl");
  ASSERT_TRUE(ctl.ok());
  std::string base = "/mnt/help/" + std::string(TrimSpace(ctl.value()));

  constexpr uint64_t kSeedBytes = 4096;  // readers stay inside this prefix
  constexpr int kAppends = 200;
  constexpr size_t kAppendChunk = 128;
  ASSERT_TRUE(writer.WriteFile(base + "/bodyapp", PatternChunk(0, kSeedBytes)).ok());
  auto app = writer.WalkFid(base + "/bodyapp");
  ASSERT_TRUE(app.ok());
  ASSERT_TRUE(writer.OpenFid(app.value(), kOwrite).ok());

  constexpr int kReaders = 4;
  constexpr int kReadsPerReader = 400;
  std::atomic<uint64_t> read_failures{0};
  std::atomic<uint64_t> torn_reads{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; r++) {
    readers.emplace_back([&, r] {
      NinepServer::SessionId sid = srv.OpenSession();
      NinepClient c(srv.TransportFor(sid));
      if (!c.Connect(StrFormat("reader%d", r)).ok()) {
        read_failures++;
        return;
      }
      auto body = c.WalkFid(base + "/body");
      if (!body.ok() || !c.OpenFid(body.value(), kOread).ok()) {
        read_failures++;
        return;
      }
      Lcg rng(static_cast<uint32_t>(r) + 11);
      for (int i = 0; i < kReadsPerReader; i++) {
        uint64_t off = rng.Next() % kSeedBytes;
        auto d = c.ReadFid(body.value(), off, 256);
        if (!d.ok()) {
          read_failures++;
          continue;
        }
        const std::string& data = d.value();
        for (size_t j = 0; j < data.size(); j++) {
          if (data[j] != PatternByte(off + j)) {
            torn_reads++;
            break;
          }
        }
      }
      c.Clunk(body.value());
      srv.CloseSession(sid);
    });
  }

  // The writer races the readers: each append continues the pattern, so the
  // body is the pattern prefix of its length at every instant.
  uint64_t written = kSeedBytes;
  for (int i = 0; i < kAppends; i++) {
    auto n = writer.WriteFid(app.value(), 0, PatternChunk(written, kAppendChunk));
    ASSERT_TRUE(n.ok());
    written += kAppendChunk;
  }
  for (std::thread& t : readers) {
    t.join();
  }
  EXPECT_EQ(read_failures.load(), 0u);
  EXPECT_EQ(torn_reads.load(), 0u);

  // Quiescent state: the whole body is the pattern prefix, the incremental
  // line index survived the concurrent traffic, and the reads actually ran.
  auto all = writer.ReadFile(base + "/body");
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all.value().size(), written);
  for (uint64_t i = 0; i < written; i++) {
    ASSERT_EQ(all.value()[i], PatternByte(i)) << "at offset " << i;
  }
  for (Window* w : h.AllWindows()) {
    EXPECT_TRUE(w->body().text->CheckLineIndex());
  }
  EXPECT_GT(srv.metrics().count(NinepOp::kRead), 0u);
  writer.Clunk(app.value());
  srv.CloseSession(wsid);
}

}  // namespace
}  // namespace help
