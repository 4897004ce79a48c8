// Property test for cross-window traffic: K sessions, each appending a
// deterministic pattern to its OWN window over a real socket, while reader
// sessions continuously re-read every window's body. The invariants:
//
//   1. Every snapshot a reader sees is byte-exact: a prefix of that window's
//      deterministic append stream — never torn mid-chunk, never
//      interleaved with another window's bytes.
//   2. After the writers join, every body equals its full expected stream.
//
// Run under TSan (the CI sanitizer matrix builds this suite with
// -DHELP_SANITIZE=thread) it is also a data-race probe for the listener
// loop, the dispatch lock, and the client threads.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
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

constexpr int kWindows = 4;
constexpr int kChunks = 120;

std::string SockPath(const char* name) {
  return StrFormat("%s.%d.sock", name, getpid());
}

// Deterministic per-window chunk: identifies the window and the round, with
// a multi-byte rune so appends exercise the rune/byte boundary machinery.
std::string Chunk(int win, int round) {
  return StrFormat("w%d.%03d¶", win, round);
}

std::string Expected(int win, int upto) {
  std::string out;
  for (int i = 0; i < upto; i++) {
    out += Chunk(win, i);
  }
  return out;
}

struct Client {
  std::unique_ptr<SocketTransport> sock;
  std::unique_ptr<NinepClient> ninep;
};

Client Connect(const std::string& path, const std::string& uname) {
  Client c;
  auto tr = SocketTransport::ConnectUnix(path);
  EXPECT_TRUE(tr.ok());
  c.sock = std::move(tr.value());
  c.ninep = std::make_unique<NinepClient>(c.sock->AsTransport());
  EXPECT_TRUE(c.ninep->Connect(uname).ok());
  return c;
}

// One full run: create kWindows windows, fan out one writer session per
// window plus reader sessions sweeping all windows, join, verify finals.
void RunWorkload(const std::string& path) {
  // Window setup on its own session.
  Client setup = Connect(path, "setup");
  std::vector<std::string> bases(kWindows);
  for (int w = 0; w < kWindows; w++) {
    auto ctl = setup.ninep->ReadFile("/mnt/help/new/ctl");
    ASSERT_TRUE(ctl.ok());
    bases[w] = "/mnt/help/" + std::string(TrimSpace(ctl.value()));
  }

  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};

  // Writers: each session appends its window's chunks in order through an
  // open bodyapp fid.
  std::vector<std::thread> writers;
  for (int w = 0; w < kWindows; w++) {
    writers.emplace_back([&, w] {
      Client c = Connect(path, StrFormat("writer%d", w));
      auto fid = c.ninep->WalkFid(bases[w] + "/bodyapp");
      ASSERT_TRUE(fid.ok());
      ASSERT_TRUE(c.ninep->OpenFid(fid.value(), kOwrite).ok());
      for (int i = 0; i < kChunks; i++) {
        auto r = c.ninep->WriteFid(fid.value(), 0, Chunk(w, i));
        ASSERT_TRUE(r.ok()) << "window " << w << " chunk " << i << ": "
                            << r.status().message();
      }
    });
  }

  // Readers: two sessions sweep every window's body until the writers are
  // done. Each snapshot must be an exact prefix of the expected stream.
  std::vector<std::thread> readers;
  for (int rdr = 0; rdr < 2; rdr++) {
    readers.emplace_back([&, rdr] {
      Client c = Connect(path, StrFormat("reader%d", rdr));
      std::vector<uint32_t> fids(kWindows);
      std::vector<std::string> expected(kWindows);
      for (int w = 0; w < kWindows; w++) {
        auto fid = c.ninep->WalkFid(bases[w] + "/body");
        ASSERT_TRUE(fid.ok());
        ASSERT_TRUE(c.ninep->OpenFid(fid.value(), kOread).ok());
        fids[w] = fid.value();
        expected[w] = Expected(w, kChunks);
      }
      while (!stop.load(std::memory_order_relaxed)) {
        for (int w = 0; w < kWindows; w++) {
          auto got = c.ninep->ReadFid(fids[w], 0, 8192);
          ASSERT_TRUE(got.ok());
          const std::string& body = got.value();
          if (body != expected[w].substr(0, body.size())) {
            violations.fetch_add(1);
            ADD_FAILURE() << "window " << w << " snapshot is not a prefix: "
                          << body.substr(0, 64);
            return;
          }
        }
      }
    });
  }

  for (auto& t : writers) {
    t.join();
  }
  stop.store(true);
  for (auto& t : readers) {
    t.join();
  }
  ASSERT_EQ(violations.load(), 0);

  // Final bytes, read through a fresh session.
  Client check = Connect(path, "check");
  for (int w = 0; w < kWindows; w++) {
    auto body = check.ninep->ReadFile(bases[w] + "/body");
    ASSERT_TRUE(body.ok());
    ASSERT_EQ(body.value(), Expected(w, kChunks)) << "window " << w;
  }
}

TEST(ShardProperty, CrossWindowWritersAndReadersStayByteExact) {
  Help::Options hopt;
  hopt.install_userland = false;
  Help h(hopt);
  NinepServer& srv = h.ninep();
  NinepListener lis(&srv);
  std::string path = SockPath("shardprop1");
  ASSERT_TRUE(lis.ListenUnix(path).ok());
  ASSERT_TRUE(lis.Start().ok());

  RunWorkload(path);

  lis.Stop();
  ::unlink(path.c_str());
}

}  // namespace
}  // namespace help
