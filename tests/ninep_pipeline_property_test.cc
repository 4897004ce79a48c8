// Property test for the socket path's ordering model (DESIGN.md §8):
// randomized mixes of pipelined reads and mutation barriers over a real
// socket, checked against a byte-exact oracle. The invariant under test: a
// read's Rread payload equals the body as of the last mutation barrier that
// preceded it in arrival order.
//
// Two phases:
//   1. Client-level: ReadFidPipelined batches between AppendFile barriers.
//   2. Wire-level: hand-built bursts of [reads][Twrite][reads] in ONE send,
//      where the pre-write reads must see the pre-write body and the
//      post-write reads the post-write body, replies matched by tag.
#include <gtest/gtest.h>
#include <unistd.h>

#include <map>
#include <random>
#include <string>
#include <vector>

#include "src/base/strings.h"
#include "src/core/help.h"
#include "src/fs/listener.h"
#include "src/fs/server.h"
#include "src/fs/transport.h"

namespace help {
namespace {

std::string SockPath(const char* name) {
  return StrFormat("%s.%d.sock", name, getpid());
}

// Deterministic chunk content mixing ASCII with multi-byte runes so read
// windows straddle rune boundaries in both directions.
std::string Chunk(std::mt19937& rng, int round) {
  static const char* kRunes[] = {"a", "b", "ö", "—", "你", "😀", "\n"};
  std::uniform_int_distribution<int> pick(0, 6);
  std::uniform_int_distribution<int> len(8, 64);
  std::string out = StrFormat("[r%03d]", round);
  int n = len(rng);
  for (int i = 0; i < n; i++) {
    out += kRunes[pick(rng)];
  }
  out += '\n';
  return out;
}

std::string RecvFrame(int fd) {
  auto hdr = ReadFull(fd, 4);
  if (!hdr.ok()) {
    return {};
  }
  uint32_t size = 0;
  for (int i = 3; i >= 0; i--) {
    size = size << 8 | static_cast<uint8_t>(hdr.value()[i]);
  }
  if (size < kMinFrameSize || size > kMaxFrameSize) {
    return {};
  }
  auto rest = ReadFull(fd, size - 4);
  if (!rest.ok()) {
    return {};
  }
  return hdr.value() + rest.value();
}

Result<Fcall> RawRpc(int fd, const Fcall& t) {
  auto w = WriteFull(fd, EncodeFcall(t));
  if (!w.ok()) {
    return w;
  }
  return DecodeFcall(RecvFrame(fd));
}

// Phase 1: pipelined read batches between client-level mutation barriers.
TEST(NinepPipelineProperty, PipelinedReadsMatchOracleAcrossBarriers) {
  Help::Options hopt;
  hopt.install_userland = false;
  Help h(hopt);
  NinepServer& srv = h.ninep();
  NinepListener lis(&srv);
  std::string path = SockPath("prop1");
  ASSERT_TRUE(lis.ListenUnix(path).ok());
  ASSERT_TRUE(lis.Start().ok());

  auto tr = SocketTransport::ConnectUnix(path);
  ASSERT_TRUE(tr.ok());
  NinepClient client(tr.value()->AsTransport());
  client.set_pipe_io(tr.value()->AsPipeIo());
  ASSERT_TRUE(client.Connect("prop").ok());

  auto ctl = client.ReadFile("/mnt/help/new/ctl");
  ASSERT_TRUE(ctl.ok());
  std::string base = "/mnt/help/" + std::string(TrimSpace(ctl.value()));
  auto fid = client.WalkFid(base + "/body");
  ASSERT_TRUE(fid.ok());
  ASSERT_TRUE(client.OpenFid(fid.value(), kOread).ok());

  std::mt19937 rng(0x9F);  // fixed seed: failures must reproduce
  std::string mirror;
  for (int round = 0; round < 60; round++) {
    // Mutation barrier: append a chunk, advancing the oracle.
    std::string chunk = Chunk(rng, round);
    ASSERT_TRUE(client.WriteFile(base + "/bodyapp", chunk).ok());
    mirror += chunk;

    // A batch of random reads, pipelined with out-of-order completion
    // allowed server-side. Every byte must match the post-barrier oracle.
    std::uniform_int_distribution<uint64_t> offd(0, mirror.size());
    std::uniform_int_distribution<uint32_t> cntd(1, 512);
    std::vector<NinepClient::ReadRange> ranges;
    for (int i = 0; i < 12; i++) {
      ranges.push_back({offd(rng), cntd(rng)});
    }
    auto got = client.ReadFidPipelined(fid.value(), ranges, /*window=*/8);
    ASSERT_TRUE(got.ok()) << "round " << round << ": "
                          << got.status().message();
    ASSERT_EQ(got.value().size(), ranges.size());
    for (size_t i = 0; i < ranges.size(); i++) {
      ASSERT_EQ(got.value()[i],
                mirror.substr(ranges[i].offset, ranges[i].count))
          << "round " << round << " range " << i << " off "
          << ranges[i].offset << " count " << ranges[i].count;
    }
  }
  lis.Stop();
  ::unlink(path.c_str());
}

// Phase 2: reads and a write pipelined in ONE wire burst. Reads that arrive
// before the Twrite must see the pre-write body; reads after it, the
// post-write body. Replies are matched by tag, so completion order is free.
TEST(NinepPipelineProperty, WireBurstsRespectMutationBarriers) {
  Help::Options hopt;
  hopt.install_userland = false;
  Help h(hopt);
  NinepServer& srv = h.ninep();
  NinepListener lis(&srv);
  std::string path = SockPath("prop2");
  ASSERT_TRUE(lis.ListenUnix(path).ok());
  ASSERT_TRUE(lis.Start().ok());

  auto fd = DialUnix(path);
  ASSERT_TRUE(fd.ok());
  Fcall tv;
  tv.type = MsgType::kTversion;
  tv.tag = kNoTag;
  tv.msize = kDefaultMsize;
  tv.version = "9P.help";
  ASSERT_TRUE(RawRpc(fd.value(), tv).ok());
  Fcall ta;
  ta.type = MsgType::kTattach;
  ta.tag = 1;
  ta.fid = 0;
  ta.uname = "prop2";
  ASSERT_TRUE(RawRpc(fd.value(), ta).ok());

  // Create a window via new/ctl and learn its id.
  uint32_t ctlfid = 1;
  Fcall tw;
  tw.type = MsgType::kTwalk;
  tw.tag = 2;
  tw.fid = 0;
  tw.newfid = ctlfid;
  tw.wname = {"mnt", "help", "new", "ctl"};
  ASSERT_EQ(RawRpc(fd.value(), tw).value().wqid.size(), 4u);
  Fcall to;
  to.type = MsgType::kTopen;
  to.tag = 2;
  to.fid = ctlfid;
  to.mode = kOread;
  ASSERT_EQ(RawRpc(fd.value(), to).value().type, MsgType::kRopen);
  Fcall trd;
  trd.type = MsgType::kTread;
  trd.tag = 2;
  trd.fid = ctlfid;
  trd.offset = 0;
  trd.count = 64;
  auto rid = RawRpc(fd.value(), trd);
  ASSERT_TRUE(rid.ok());
  std::string wid(TrimSpace(rid.value().data));
  ASSERT_FALSE(wid.empty());

  auto open_fid = [&](const std::string& leaf, uint32_t newfid,
                      uint8_t mode) {
    Fcall w;
    w.type = MsgType::kTwalk;
    w.tag = 2;
    w.fid = 0;
    w.newfid = newfid;
    w.wname = {"mnt", "help", wid, leaf};
    ASSERT_EQ(RawRpc(fd.value(), w).value().wqid.size(), 4u) << leaf;
    Fcall o;
    o.type = MsgType::kTopen;
    o.tag = 2;
    o.fid = newfid;
    o.mode = mode;
    ASSERT_EQ(RawRpc(fd.value(), o).value().type, MsgType::kRopen) << leaf;
  };
  uint32_t body = 3, app = 4;
  open_fid("body", body, kOread);
  open_fid("bodyapp", app, kOwrite);

  std::mt19937 rng(0x9F2);
  std::string mirror;
  for (int round = 0; round < 40; round++) {
    std::string chunk = Chunk(rng, round);
    std::string next = mirror + chunk;

    // Build one burst: pre-write reads, the write, post-write reads.
    std::map<uint16_t, std::string> expect;  // tag -> exact Rread payload
    std::string burst;
    uint16_t tag = 10;
    auto add_read = [&](const std::string& oracle) {
      std::uniform_int_distribution<uint64_t> offd(0, oracle.size());
      std::uniform_int_distribution<uint32_t> cntd(1, 256);
      Fcall t;
      t.type = MsgType::kTread;
      t.tag = tag++;
      t.fid = body;
      t.offset = offd(rng);
      t.count = cntd(rng);
      expect[t.tag] = oracle.substr(t.offset, t.count);
      burst += EncodeFcall(t);
    };
    std::uniform_int_distribution<int> nd(1, 5);
    int pre = nd(rng), post = nd(rng);
    for (int i = 0; i < pre; i++) {
      add_read(mirror);
    }
    Fcall w;
    w.type = MsgType::kTwrite;
    w.tag = tag++;
    w.fid = app;
    w.offset = 0;
    w.data = chunk;
    uint16_t wtag = w.tag;
    burst += EncodeFcall(w);
    for (int i = 0; i < post; i++) {
      add_read(next);
    }
    ASSERT_TRUE(WriteFull(fd.value(), burst).ok());

    for (int i = 0; i < pre + post + 1; i++) {
      auto r = DecodeFcall(RecvFrame(fd.value()));
      ASSERT_TRUE(r.ok()) << "round " << round;
      if (r.value().tag == wtag) {
        ASSERT_EQ(r.value().type, MsgType::kRwrite) << r.value().ename;
        continue;
      }
      ASSERT_EQ(r.value().type, MsgType::kRread)
          << "round " << round << " tag " << r.value().tag << ": "
          << r.value().ename;
      auto it = expect.find(r.value().tag);
      ASSERT_NE(it, expect.end()) << "unexpected tag " << r.value().tag;
      ASSERT_EQ(r.value().data, it->second)
          << "round " << round << " tag " << r.value().tag;
      expect.erase(it);
    }
    ASSERT_TRUE(expect.empty());
    mirror = std::move(next);
  }
  close(fd.value());
  lis.Stop();
  ::unlink(path.c_str());
}

}  // namespace
}  // namespace help
