// The multi-client 9P service: concurrent sessions against one Help
// instance, serialized dispatch, Tflush cancellation, duplicate-tag
// rejection, and the /mnt/help/stats observability file.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "src/base/strings.h"
#include "src/core/help.h"
#include "src/fs/server.h"
#include "src/shell/shell.h"

namespace help {
namespace {

// --- Concurrent sessions against one Help instance ---------------------------

// The acceptance path: N concurrent clients, each with its own Session, drive
// the full encode → dispatch → decode byte path against a single Help —
// interleaved walks, reads, ctl writes, and a Tflush — then the shell cats
// /mnt/help/stats and sees nonzero per-op counters.
TEST(NinepServerConcurrent, FourSessionsInterleavedAgainstOneHelp) {
  Help h;
  NinepServer& srv = h.ninep();
  constexpr int kClients = 4;
  constexpr int kRounds = 25;

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; c++) {
    threads.emplace_back([&, c] {
      NinepServer::SessionId sid = srv.OpenSession();
      NinepClient client(srv.TransportFor(sid));
      if (!client.Connect(StrFormat("client%d", c)).ok()) {
        failures++;
        return;
      }
      for (int round = 0; round < kRounds; round++) {
        // Create a window over the wire and label it through its ctl file.
        auto ctl = client.ReadFile("/mnt/help/new/ctl");
        if (!ctl.ok()) {
          failures++;
          continue;
        }
        std::string id(TrimSpace(ctl.value()));
        std::string base = "/mnt/help/" + id;
        if (!client.WriteFile(base + "/ctl", StrFormat("tag w%d.%d", c, round)).ok()) {
          failures++;
        }
        if (!client.AppendFile(base + "/bodyapp", StrFormat("row %d\n", round)).ok()) {
          failures++;
        }
        // Interleaved walks and reads of shared files.
        auto index = client.ReadFile("/mnt/help/index");
        if (!index.ok() || index.value().find('\t') == std::string::npos) {
          failures++;
        }
        auto fid = client.WalkFid(base + "/body");
        if (!fid.ok()) {
          failures++;
          continue;
        }
        if (!client.OpenFid(fid.value(), kOread).ok()) {
          failures++;
        } else {
          auto body = client.ReadFid(fid.value(), 0, 4096);
          if (!body.ok() || body.value().find("row") == std::string::npos) {
            failures++;
          }
        }
        if (!client.Clunk(fid.value()).ok()) {
          failures++;
        }
        // A Tflush for a long-gone tag: a legal no-op answered with Rflush.
        if (!client.Flush(1).ok()) {
          failures++;
        }
      }
      // Per-session fid isolation: this session still holds exactly its own
      // root fid; other clients' walks never landed in our table.
      if (srv.open_fids(sid) != 1) {
        failures++;
      }
      srv.CloseSession(sid);
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(static_cast<int>(h.AllWindows().size()), kClients * kRounds);

  // The paper's own reporting channel: cat /mnt/help/stats from the shell.
  Env env;
  std::string out;
  std::string err;
  Io io;
  io.out = &out;
  io.err = &err;
  ASSERT_TRUE(h.shell().Run("cat /mnt/help/stats", &env, "/", {}, io).ok()) << err;
  const NinepMetrics& m = srv.metrics();
  EXPECT_GT(m.count(NinepOp::kWalk), 0u);
  EXPECT_GT(m.count(NinepOp::kOpen), 0u);
  EXPECT_GT(m.count(NinepOp::kRead), 0u);
  EXPECT_GT(m.count(NinepOp::kWrite), 0u);
  EXPECT_GT(m.count(NinepOp::kClunk), 0u);
  EXPECT_GT(m.count(NinepOp::kFlush), 0u);
  for (const char* op : {"walk ", "open ", "read ", "write ", "clunk ", "flush "}) {
    size_t at = out.find(op);
    ASSERT_NE(at, std::string::npos) << "stats missing " << op << "\n" << out;
    // The count column after the op name is nonzero.
    EXPECT_NE(out[at + std::string(op).size()], '0') << out;
  }
  EXPECT_NE(out.find("bytes_in "), std::string::npos);
  EXPECT_NE(out.find("bytes_out "), std::string::npos);
}

// Two sessions may use the same fid numbers for different files.
TEST(NinepServerConcurrent, FidTablesAreIndependentPerSession) {
  Vfs vfs;
  vfs.WriteFile("/a", "alpha");
  vfs.WriteFile("/b", "beta");
  NinepServer srv(&vfs);
  auto s1 = srv.OpenSession();
  auto s2 = srv.OpenSession();
  NinepClient c1(srv.TransportFor(s1));
  NinepClient c2(srv.TransportFor(s2));
  ASSERT_TRUE(c1.Connect("one").ok());
  ASSERT_TRUE(c2.Connect("two").ok());
  // Both clients allocate fid 1, pointing at different files.
  auto f1 = c1.WalkFid("/a");
  auto f2 = c2.WalkFid("/b");
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  EXPECT_EQ(f1.value(), f2.value());  // same number...
  ASSERT_TRUE(c1.OpenFid(f1.value(), kOread).ok());
  ASSERT_TRUE(c2.OpenFid(f2.value(), kOread).ok());
  EXPECT_EQ(c1.ReadFid(f1.value(), 0, 64).value(), "alpha");  // ...different files
  EXPECT_EQ(c2.ReadFid(f2.value(), 0, 64).value(), "beta");
  // Clunking in one session does not disturb the other.
  ASSERT_TRUE(c1.Clunk(f1.value()).ok());
  EXPECT_EQ(c2.ReadFid(f2.value(), 0, 64).value(), "beta");
  EXPECT_EQ(srv.open_fids(s1), 1u);  // root only
  EXPECT_EQ(srv.open_fids(s2), 2u);  // root + fid 1
}

// A handler whose Read blocks until released — lets tests hold the dispatch
// lock at a precise point to exercise queued-request behaviour.
class GateHandler : public FileHandler {
 public:
  Result<std::string> Read(OpenFile& f, uint64_t offset, uint32_t count) override {
    std::unique_lock<std::mutex> lk(mu_);
    entered_ = true;
    cv_.notify_all();
    cv_.wait(lk, [this] { return released_; });
    return std::string("gate");
  }
  Result<uint32_t> Write(OpenFile& f, uint64_t offset, std::string_view data) override {
    return ErrPerm("gate");
  }

  void WaitEntered() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] { return entered_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lk(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool released_ = false;
};

Fcall TreadOf(uint32_t fid, uint16_t tag) {
  Fcall t;
  t.type = MsgType::kTread;
  t.tag = tag;
  t.fid = fid;
  t.offset = 0;
  t.count = 128;
  return t;
}

struct GateRig {
  Vfs vfs;
  std::shared_ptr<GateHandler> gate = std::make_shared<GateHandler>();
  NinepServer srv{&vfs};
  NinepServer::SessionId sid = 0;
  uint32_t gate_fid = 0;
  uint32_t file_fid = 0;

  GateRig() {
    vfs.WriteFile("/f", "plain");
    vfs.AttachHandler("/gate", gate);
    sid = srv.OpenSession();
    NinepClient client(srv.TransportFor(sid));
    EXPECT_TRUE(client.Connect().ok());
    auto g = client.WalkFid("/gate");
    auto f = client.WalkFid("/f");
    EXPECT_TRUE(g.ok());
    EXPECT_TRUE(f.ok());
    gate_fid = g.value();
    file_fid = f.value();
    EXPECT_TRUE(client.OpenFid(gate_fid, kOread).ok());
    EXPECT_TRUE(client.OpenFid(file_fid, kOread).ok());
  }

  Fcall Send(const Fcall& t) {
    auto r = DecodeFcall(srv.HandleBytes(sid, EncodeFcall(t)));
    EXPECT_TRUE(r.ok());
    return r.ok() ? r.value() : Fcall{};
  }
};

// Tflush cancels a request that is still waiting for the dispatch lock: the
// flushed request is answered "interrupted" instead of running.
TEST(NinepServerConcurrent, FlushCancelsQueuedRequest) {
  GateRig rig;
  // The metrics registry is process-global now, so the counter may carry
  // traffic from earlier tests: assert the delta, not the absolute value.
  uint64_t cancels_before = rig.srv.metrics().flush_cancels();
  // A writable fid for the request that must queue.
  Fcall tw;
  tw.type = MsgType::kTwalk;
  tw.tag = 3;
  tw.fid = 0;
  tw.newfid = 10;
  tw.wname = {"f"};
  ASSERT_EQ(rig.Send(tw).type, MsgType::kRwalk);
  Fcall to;
  to.type = MsgType::kTopen;
  to.tag = 3;
  to.fid = 10;
  to.mode = kOwrite;
  ASSERT_EQ(rig.Send(to).type, MsgType::kRopen);

  // Thread A enters the gate read and parks inside dispatch.
  std::thread blocker([&] {
    Fcall r = rig.Send(TreadOf(rig.gate_fid, 50));
    EXPECT_EQ(r.type, MsgType::kRread);
    EXPECT_EQ(r.data, "gate");
  });
  rig.gate->WaitEntered();

  // Thread B queues a write of /f with tag 60 behind the held dispatch lock.
  Fcall queued_reply;
  std::thread queued([&] {
    Fcall w;
    w.type = MsgType::kTwrite;
    w.tag = 60;
    w.fid = 10;
    w.offset = 0;
    w.data = "never lands";
    queued_reply = rig.Send(w);
  });
  while (!rig.srv.TagInFlight(rig.sid, 60)) {
    std::this_thread::yield();
  }

  // Tflush(60) is answered immediately — it does not take the dispatch lock.
  Fcall flush;
  flush.type = MsgType::kTflush;
  flush.tag = 61;
  flush.oldtag = 60;
  EXPECT_EQ(rig.Send(flush).type, MsgType::kRflush);

  rig.gate->Release();
  blocker.join();
  queued.join();
  EXPECT_EQ(queued_reply.type, MsgType::kRerror);
  EXPECT_EQ(queued_reply.ename, "interrupted");
  EXPECT_EQ(rig.srv.metrics().flush_cancels(), cancels_before + 1);
  // Flushing a tag that is no longer in flight is a clean no-op.
  flush.tag = 62;
  EXPECT_EQ(rig.Send(flush).type, MsgType::kRflush);
  EXPECT_EQ(rig.srv.metrics().flush_cancels(), cancels_before + 1);
}

// Tflush racing an in-flight Tread: whichever way the race
// lands, the reply is exactly one of {Rread with the file's bytes, Rerror
// "interrupted"} — never a torn payload, never a dropped reply — and the
// Tflush itself is always answered Rflush. (The deterministic gate-based
// cancel is FlushCancelsQueuedRequest above; this covers the ungated race.)
TEST(NinepServerConcurrent, FlushRacingSharedReadYieldsExactlyOneOutcome) {
  GateRig rig;
  for (int i = 0; i < 50; i++) {
    uint16_t read_tag = static_cast<uint16_t>(100 + 2 * i);
    uint16_t flush_tag = static_cast<uint16_t>(101 + 2 * i);
    Fcall reply;
    std::thread reader([&] { reply = rig.Send(TreadOf(rig.file_fid, read_tag)); });
    Fcall flush;
    flush.type = MsgType::kTflush;
    flush.tag = flush_tag;
    flush.oldtag = read_tag;
    EXPECT_EQ(rig.Send(flush).type, MsgType::kRflush);
    reader.join();
    if (reply.type == MsgType::kRread) {
      EXPECT_EQ(reply.data, "plain");
    } else {
      ASSERT_EQ(reply.type, MsgType::kRerror);
      EXPECT_EQ(reply.ename, "interrupted");
    }
  }
}

// The protocol forbids two in-flight requests with the same tag on one
// session; the second is rejected without waiting for the first.
TEST(NinepServerConcurrent, DuplicateInflightTagRejected) {
  GateRig rig;
  std::thread blocker([&] {
    Fcall r = rig.Send(TreadOf(rig.gate_fid, 50));
    EXPECT_EQ(r.type, MsgType::kRread);
  });
  rig.gate->WaitEntered();

  Fcall dup = rig.Send(TreadOf(rig.file_fid, 50));
  EXPECT_EQ(dup.type, MsgType::kRerror);
  EXPECT_EQ(dup.ename, "duplicate tag");

  rig.gate->Release();
  blocker.join();
  // After completion the tag is free again.
  Fcall again = rig.Send(TreadOf(rig.file_fid, 50));
  EXPECT_EQ(again.type, MsgType::kRread);
}

// /mnt/help/index is snapshotted at open, under the dispatch lock: a reader
// paging through it in small chunks sees one consistent listing even while
// other sessions create windows.
TEST(NinepServerConcurrent, IndexSnapshotStableUnderConcurrentCreation) {
  Help h;
  NinepServer& srv = h.ninep();

  auto reader_sid = srv.OpenSession();
  NinepClient reader(srv.TransportFor(reader_sid));
  ASSERT_TRUE(reader.Connect("reader").ok());
  // Seed a couple of windows so the first snapshot is nonempty.
  NinepClient seeder(srv.TransportFor(srv.OpenSession()));
  ASSERT_TRUE(seeder.Connect("seeder").ok());
  ASSERT_TRUE(seeder.ReadFile("/mnt/help/new/ctl").ok());
  ASSERT_TRUE(seeder.ReadFile("/mnt/help/new/ctl").ok());

  std::atomic<bool> stop{false};
  std::thread creator([&] {
    NinepClient c(srv.TransportFor(srv.OpenSession()));
    ASSERT_TRUE(c.Connect("creator").ok());
    while (!stop.load()) {
      ASSERT_TRUE(c.ReadFile("/mnt/help/new/ctl").ok());
    }
  });

  for (int round = 0; round < 20; round++) {
    auto fid = reader.WalkFid("/mnt/help/index");
    ASSERT_TRUE(fid.ok());
    ASSERT_TRUE(reader.OpenFid(fid.value(), kOread).ok());
    // Page through in tiny chunks; the open-time snapshot must hold still.
    std::string listing;
    uint64_t off = 0;
    while (true) {
      auto chunk = reader.ReadFid(fid.value(), off, 8);
      ASSERT_TRUE(chunk.ok());
      if (chunk.value().empty()) {
        break;
      }
      off += chunk.value().size();
      listing += chunk.take();
    }
    ASSERT_TRUE(reader.Clunk(fid.value()).ok());
    ASSERT_FALSE(listing.empty());
    EXPECT_EQ(listing.back(), '\n') << listing;
    for (const std::string& line : Split(listing.substr(0, listing.size() - 1), '\n')) {
      // Every line is a complete "N\t<tagline>" record — never torn.
      ASSERT_FALSE(line.empty()) << listing;
      EXPECT_TRUE(line[0] >= '0' && line[0] <= '9') << line;
      EXPECT_NE(line.find('\t'), std::string::npos) << line;
    }
  }
  stop = true;
  creator.join();
}

// Closing a session mid-traffic never crashes later requests on that id.
TEST(NinepServerConcurrent, RequestsAfterCloseSessionFailCleanly) {
  Vfs vfs;
  vfs.WriteFile("/f", "x");
  NinepServer srv(&vfs);
  auto sid = srv.OpenSession();
  NinepClient c(srv.TransportFor(sid));
  ASSERT_TRUE(c.Connect().ok());
  srv.CloseSession(sid);
  auto r = c.ReadFile("/f");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.message().find("unknown session"), std::string::npos);
  EXPECT_EQ(srv.session_count(), 0u);
}

// --- The observability files over the 9P wire --------------------------------

// /mnt/help/tracectl controls capture, /mnt/help/trace serves the event ring,
// /mnt/help/metrics serves the whole registry — all over the same protocol
// the windows use, so a shell script can profile the server that serves it.
TEST(Observability, TraceAndMetricsReadableOverTheWire) {
  Help h;
  NinepServer& srv = h.ninep();
  NinepServer::SessionId sid = srv.OpenSession();
  NinepClient client(srv.TransportFor(sid));
  ASSERT_TRUE(client.Connect("obs").ok());

  ASSERT_TRUE(client.WriteFile("/mnt/help/tracectl", "clear\non\n").ok());
  // Traffic to trace: window creation, a ctl write, an index read.
  auto ctl = client.ReadFile("/mnt/help/new/ctl");
  ASSERT_TRUE(ctl.ok());
  std::string base = "/mnt/help/" + std::string(TrimSpace(ctl.value()));
  ASSERT_TRUE(client.WriteFile(base + "/ctl", "tag traced").ok());
  ASSERT_TRUE(client.ReadFile("/mnt/help/index").ok());
  ASSERT_TRUE(client.WriteFile("/mnt/help/tracectl", "off").ok());

  // The trace: one event per line, "seq ns tick tid kind name arg", ordered
  // by the leading sequence number (strictly increasing).
  auto trace = client.ReadFile("/mnt/help/trace");
  ASSERT_TRUE(trace.ok());
  EXPECT_NE(trace.value().find("ninep.dispatch"), std::string::npos) << trace.value();
  long long prev = -1;
  int lines = 0;
  for (const std::string& line : Split(trace.value(), '\n')) {
    if (TrimSpace(line).empty()) {
      continue;
    }
    long long seq = std::stoll(line.substr(0, line.find(' ')));
    EXPECT_GT(seq, prev) << trace.value();
    prev = seq;
    lines++;
  }
  EXPECT_GT(lines, 0);

  // The registry: 9P op counters and the trace's own bookkeeping, as text.
  auto metrics = client.ReadFile("/mnt/help/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics.value().find("ninep.read.count "), std::string::npos);
  EXPECT_NE(metrics.value().find("ninep.walk.count "), std::string::npos);
  EXPECT_NE(metrics.value().find("trace.events "), std::string::npos);
  EXPECT_NE(metrics.value().find("ninep.dispatch.ns "), std::string::npos);

  // tracectl reads: status by default, Chrome trace-event JSON after `json`.
  auto status = client.ReadFile("/mnt/help/tracectl");
  ASSERT_TRUE(status.ok());
  EXPECT_NE(status.value().find("tracing off"), std::string::npos);
  ASSERT_TRUE(client.WriteFile("/mnt/help/tracectl", "json").ok());
  auto json = client.ReadFile("/mnt/help/tracectl");
  ASSERT_TRUE(json.ok());
  EXPECT_EQ(json.value().rfind("{\"displayTimeUnit\"", 0), 0u) << json.value();
  EXPECT_NE(json.value().find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.value().find("\"ph\":\"B\""), std::string::npos);
  ASSERT_TRUE(client.WriteFile("/mnt/help/tracectl", "text").ok());

  // Unknown commands are rejected with a clean 9P error.
  EXPECT_FALSE(client.WriteFile("/mnt/help/tracectl", "bogus").ok());
  srv.CloseSession(sid);
}

// /mnt/help/stats (PR 1's format) must render byte-identically from the
// registry-backed metrics: same header, same per-op lines, same totals.
TEST(Observability, StatsStillServedOverTheWire) {
  Help h;
  NinepServer& srv = h.ninep();
  NinepServer::SessionId sid = srv.OpenSession();
  NinepClient client(srv.TransportFor(sid));
  ASSERT_TRUE(client.Connect("stats").ok());
  ASSERT_TRUE(client.ReadFile("/mnt/help/index").ok());
  auto stats = client.ReadFile("/mnt/help/stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().rfind("op count errs p50us p99us\n", 0), 0u) << stats.value();
  EXPECT_NE(stats.value().find("\nbytes_in "), std::string::npos);
  EXPECT_NE(stats.value().find("\nflush_cancels "), std::string::npos);
  EXPECT_NE(stats.value().find("\nlock_wait_p99us "), std::string::npos);
  // PR 7: the socket connection layer's counters, appended after the older
  // blocks so byte-offset consumers of those keep working.
  EXPECT_NE(stats.value().find("\nnet_accepts "), std::string::npos);
  EXPECT_NE(stats.value().find("\nnet_active_conns "), std::string::npos);
  EXPECT_NE(stats.value().find("\nnet_reaped "), std::string::npos);
  EXPECT_NE(stats.value().find("\nnet_backpressure_stalls "), std::string::npos);
  EXPECT_NE(stats.value().find("\nnet_frame_errors "), std::string::npos);
  EXPECT_NE(stats.value().find("\nnet_bytes_in "), std::string::npos);
  EXPECT_NE(stats.value().find("\nnet_bytes_out "), std::string::npos);
  // The outbox-drain counter, appended last.
  EXPECT_NE(stats.value().find("\nnet_writev_calls "), std::string::npos);
  srv.CloseSession(sid);
}

// Body reads in 613-byte windows over a body of multi-byte runes: most
// windows split a rune at one edge or both, and every reply must still be
// byte-exact.
TEST(BodyRead, MultiByteReadsAreByteExact) {
  Help h;
  NinepServer& srv = h.ninep();
  NinepServer::SessionId sid = srv.OpenSession();
  NinepClient client(srv.TransportFor(sid));
  ASSERT_TRUE(client.Connect("mb").ok());

  auto ctl = client.ReadFile("/mnt/help/new/ctl");
  ASSERT_TRUE(ctl.ok());
  std::string base = "/mnt/help/" + std::string(TrimSpace(ctl.value()));
  std::string mirror;
  for (int i = 0; i < 40; i++) {
    mirror += StrFormat("ζεῖ %02d — multi-byte naïveté\n", i);
  }
  ASSERT_TRUE(client.WriteFile(base + "/bodyapp", mirror).ok());

  auto fid = client.WalkFid(base + "/body");
  ASSERT_TRUE(fid.ok());
  ASSERT_TRUE(client.OpenFid(fid.value(), kOread).ok());

  for (uint64_t off = 0; off < mirror.size(); off += 613) {
    uint32_t count = 613;
    auto got = client.ReadFid(fid.value(), off, count);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), mirror.substr(off, count));
  }
  srv.CloseSession(sid);
}

// Without a pipelined transport the multi-tag read helper degrades to the
// one-at-a-time RPC loop — same bytes, no pipe required.
TEST(ZeroCopyRead, ReadFidPipelinedFallsBackWithoutPipeIo) {
  Help h;
  NinepServer& srv = h.ninep();
  NinepServer::SessionId sid = srv.OpenSession();
  NinepClient client(srv.TransportFor(sid));
  ASSERT_TRUE(client.Connect("fb").ok());

  auto ctl = client.ReadFile("/mnt/help/new/ctl");
  ASSERT_TRUE(ctl.ok());
  std::string base = "/mnt/help/" + std::string(TrimSpace(ctl.value()));
  std::string body = "fallback body: plain bytes, no pipe\n";
  ASSERT_TRUE(client.WriteFile(base + "/bodyapp", body).ok());
  auto fid = client.WalkFid(base + "/body");
  ASSERT_TRUE(fid.ok());
  ASSERT_TRUE(client.OpenFid(fid.value(), kOread).ok());

  auto got = client.ReadFidPipelined(fid.value(), {{0, 8}, {8, 8}, {16, 64}});
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got.value().size(), 3u);
  EXPECT_EQ(got.value()[0], body.substr(0, 8));
  EXPECT_EQ(got.value()[1], body.substr(8, 8));
  EXPECT_EQ(got.value()[2], body.substr(16, 64));
  srv.CloseSession(sid);
}

}  // namespace
}  // namespace help
