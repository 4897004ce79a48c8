// Socket soak: the server_property_test oracle pushed through the real
// transport. 64 concurrent socket clients — each its own connection, its own
// Session — race range Treads against one appender, over Unix-domain sockets
// through the epoll listener. The body only ever grows
// by appending a deterministic byte pattern, so every Rread byte must match
// the pattern at its absolute offset no matter how the event loop interleaves
// connections; one disagreeing byte is a torn read somewhere between the
// socket and the gap buffer.
//
// Runs under the `property` ctest label. The TSan CI job is the other half
// of the contract: the loop thread and 65 client threads with no data races.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "src/base/strings.h"
#include "src/core/help.h"
#include "src/fs/listener.h"
#include "src/fs/server.h"
#include "src/fs/transport.h"
#include "src/wm/wm.h"

namespace help {
namespace {

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

struct Lcg {
  uint32_t state;
  explicit Lcg(uint32_t seed) : state(seed * 2654435761u + 1) {}
  uint32_t Next() {
    state = state * 1664525 + 1013904223;
    return state >> 8;
  }
};

TEST(TransportSoak, SixtyFourSocketClientsReadConsistentlyUnderAppends) {
  Help::Options opt;
  opt.install_userland = false;
  Help h(opt);
  NinepServer& srv = h.ninep();

  NinepListener lis(&srv);
  std::string path = StrFormat("soak.%d.sock", getpid());
  ASSERT_TRUE(lis.ListenUnix(path).ok());
  ASSERT_TRUE(lis.Start().ok());
  RaiseFdLimit(4096);

  // The appender is a socket client too: its window and seeded body prefix
  // are what everyone else reads.
  auto wtr = SocketTransport::ConnectUnix(path);
  ASSERT_TRUE(wtr.ok());
  NinepClient writer(wtr.value()->AsTransport());
  ASSERT_TRUE(writer.Connect("writer").ok());
  auto ctl = writer.ReadFile("/mnt/help/new/ctl");
  ASSERT_TRUE(ctl.ok());
  std::string base = "/mnt/help/" + std::string(TrimSpace(ctl.value()));

  constexpr uint64_t kSeedBytes = 4096;  // readers stay inside this prefix
  constexpr int kAppends = 150;
  constexpr size_t kAppendChunk = 128;
  ASSERT_TRUE(writer.WriteFile(base + "/bodyapp", PatternChunk(0, kSeedBytes)).ok());
  auto app = writer.WalkFid(base + "/bodyapp");
  ASSERT_TRUE(app.ok());
  ASSERT_TRUE(writer.OpenFid(app.value(), kOwrite).ok());

  constexpr int kClients = 64;
  constexpr int kReadsPerClient = 60;
  std::atomic<uint64_t> connect_failures{0};
  std::atomic<uint64_t> read_failures{0};
  std::atomic<uint64_t> torn_reads{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int r = 0; r < kClients; r++) {
    clients.emplace_back([&, r] {
      auto tr = SocketTransport::ConnectUnix(path);
      if (!tr.ok()) {
        connect_failures++;
        return;
      }
      NinepClient c(tr.value()->AsTransport());
      if (!c.Connect(StrFormat("soak%d", r)).ok()) {
        connect_failures++;
        return;
      }
      auto body = c.WalkFid(base + "/body");
      if (!body.ok() || !c.OpenFid(body.value(), kOread).ok()) {
        connect_failures++;
        return;
      }
      Lcg rng(static_cast<uint32_t>(r) + 17);
      for (int i = 0; i < kReadsPerClient; i++) {
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
      // Leaving scope closes the socket; the listener tears the session down.
    });
  }

  uint64_t written = kSeedBytes;
  for (int i = 0; i < kAppends; i++) {
    auto n = writer.WriteFid(app.value(), 0, PatternChunk(written, kAppendChunk));
    ASSERT_TRUE(n.ok());
    written += kAppendChunk;
  }
  for (std::thread& t : clients) {
    t.join();
  }
  EXPECT_EQ(connect_failures.load(), 0u);
  EXPECT_EQ(read_failures.load(), 0u);
  EXPECT_EQ(torn_reads.load(), 0u);

  // Quiescent checks, as in the in-process property suite: the body is the
  // pattern prefix of its length, the line index survived, and the shared
  // read path really ran (the property is vacuous when serialized).
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
  EXPECT_GE(srv.metrics().net_accepts(), static_cast<uint64_t>(kClients) + 1);
  writer.Clunk(app.value());

  // Every client socket is gone; the listener must converge to one live
  // connection (the writer's) with no leaked sessions.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline &&
         (lis.active_conns() != 1 || srv.session_count() != 1)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(lis.active_conns(), 1u);
  EXPECT_EQ(srv.session_count(), 1u);
  lis.Stop();
  EXPECT_EQ(srv.session_count(), 0u);
}

}  // namespace
}  // namespace help
