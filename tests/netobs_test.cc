// PR 8 request-scoped observability: the trace id that stamps every phase of
// one request, the per-connection introspection tree under /mnt/help/net/,
// the slow-request flight recorder, and the stats/metrics parity audit.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/base/strings.h"
#include "src/core/help.h"
#include "src/fs/listener.h"
#include "src/fs/netinfo.h"
#include "src/fs/server.h"
#include "src/fs/transport.h"
#include "src/obs/trace.h"

namespace help {
namespace {

std::string SockPath(const char* name) {
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

// --- Request id --------------------------------------------------------------

TEST(RequestId, PacksCidTagSeq) {
  EXPECT_EQ(MakeRequestId(0xABCDEF, 0x1234, 0x56789A),
            (0xABCDEFull << 40) | (0x1234ull << 24) | 0x56789Aull);
  // seq starts at 1 in the listener, so a live rid is never 0.
  EXPECT_NE(MakeRequestId(0, 0, 1), 0u);
  // Fields beyond their width can't bleed into their neighbors.
  EXPECT_EQ(MakeRequestId(0x1FFFFFF, 0, 0), 0xFFFFFFull << 40);
  EXPECT_EQ(MakeRequestId(0, 0, 0x1FFFFFF), 0xFFFFFFull);
}

// --- FlightRecorder ----------------------------------------------------------

RequestRecord Rec(uint64_t total_ns) {
  RequestRecord r;
  r.rid = 1;
  r.total_ns = total_ns;
  return r;
}

TEST(FlightRecorder, KeepsTheSlowestAndRejectsBelowFloor) {
  FlightRecorder fr;
  // 2 * kSlots records, total latency ascending: only the top half stays.
  for (uint64_t i = 1; i <= 2 * FlightRecorder::kSlots; i++) {
    fr.Record(Rec(i * 1000));
  }
  EXPECT_EQ(fr.kept(), FlightRecorder::kSlots);
  EXPECT_EQ(fr.seen(), 2 * FlightRecorder::kSlots);
  std::vector<RequestRecord> snap = fr.Snapshot();
  ASSERT_EQ(snap.size(), FlightRecorder::kSlots);
  // Slowest first, and nothing from the fast half survived.
  EXPECT_EQ(snap.front().total_ns, 2 * FlightRecorder::kSlots * 1000);
  EXPECT_EQ(snap.back().total_ns, (FlightRecorder::kSlots + 1) * 1000);
  // A record at the floor can't displace anything.
  fr.Record(Rec(1000));
  EXPECT_EQ(fr.Snapshot().back().total_ns, (FlightRecorder::kSlots + 1) * 1000);
}

TEST(FlightRecorder, ThresholdGatesAndClearResets) {
  FlightRecorder fr;
  fr.set_threshold_us(10);
  EXPECT_EQ(fr.threshold_us(), 10u);
  fr.Record(Rec(5000));  // 5us: below threshold, seen but not kept
  EXPECT_EQ(fr.seen(), 1u);
  EXPECT_EQ(fr.kept(), 0u);
  fr.Record(Rec(20000));
  EXPECT_EQ(fr.kept(), 1u);
  // Fill to raise the floor, then Clear must drop it back so slow-but-not-
  // record-setting requests are kept again.
  for (uint64_t i = 0; i < 2 * FlightRecorder::kSlots; i++) {
    fr.Record(Rec((100 + i) * 1000));
  }
  fr.Clear();
  EXPECT_EQ(fr.kept(), 0u);
  fr.Record(Rec(11000));
  EXPECT_EQ(fr.kept(), 1u);
}

TEST(FlightRecorder, RenderFormatsPinned) {
  FlightRecorder fr;
  RequestRecord r;
  r.rid = 0x2A;
  r.cid = 3;
  r.tag = 7;
  r.op = NinepOp::kRead;
  r.total_ns = 10000;
  r.queue_ns = 1000;
  r.lock_ns = 2000;
  r.handler_ns = 3000;
  r.encode_ns = 4000;
  r.outbox_ns = 5000;
  fr.Record(r);
  EXPECT_EQ(fr.RenderText(),
            "rid cid tag op total_us queue_us lock_us handler_us encode_us "
            "outbox_us\n"
            "0x2a 3 7 read 10 1 2 3 4 5\n");
  EXPECT_EQ(fr.RenderCtl(), "threshold_us 0\nkept 1\nseen 1\ncapacity 64\n");
}

// --- ConnInfo rendering ------------------------------------------------------

TEST(ConnInfo, RenderFormatsPinned) {
  Help::Options opt;
  opt.install_userland = false;
  Help h(opt);
  // cid 7 has no session, so msize and fids render as 0.
  ConnInfo info(&h.ninep(), 7, "unix");
  info.AddBytesIn(10);
  info.AddBytesOut(20);
  info.AddFrameIn();
  info.AddFrameIn();
  info.RecordOp(NinepOp::kRead, 0, false);
  info.RecordQueueWait(0);
  EXPECT_EQ(info.RenderStatus(),
            "peer unix\nstate active\nmsize 0\nfids 0\nframes_in 2\n"
            "replies_out 1\nbytes_in 10\nbytes_out 20\n");
  EXPECT_EQ(info.RenderStats(),
            "op count errs p50us p99us\n"
            "read 1 0 0 0\n"
            "total_ops 1\nlatency_us 1 0 0\nqueue_wait_us 1 0 0\n"
            "writev_calls 0\n");
  EXPECT_EQ(info.RenderClientLine(), "7 unix active 0 0 2 10 20\n");
  info.set_state(ConnState::kStalled);
  EXPECT_NE(info.RenderStatus().find("state stalled\n"), std::string::npos);
}

// --- Stats/metrics parity ----------------------------------------------------

// Every counter and histogram the /mnt/help/stats view renders is a named
// registry entry, so it must also surface in /mnt/help/metrics. The reverse
// direction is the regression tripwire: a new "net."-prefixed registry entry
// must either join the stats view or be added to the documented exceptions
// below.
TEST(StatsMetricsParity, EveryStatsEntrySurfacesInMetrics) {
  Help::Options opt;
  opt.install_userland = false;
  Help h(opt);
  NinepMetrics& m = h.ninep().metrics();
  // Histograms only render once they hold samples; put one in each so the
  // audit covers the full enumeration.
  for (size_t i = 0; i < kNinepOpCount; i++) {
    m.RecordOp(static_cast<NinepOp>(i), 1, true);
  }
  m.RecordLockWait(1);
  m.RecordNetQueueWait(1);

  auto metrics = h.vfs().ReadFile("/mnt/help/metrics");
  ASSERT_TRUE(metrics.ok());
  std::vector<std::string> expected = {
      "ninep.bytes_in",      "ninep.bytes_out",       "ninep.in_flight",
      "ninep.flush_cancels", "ninep.lock.wait_us",    "net.accepts",
      "net.active_conns",    "net.reaped",            "net.backpressure_stalls",
      "net.frame_errors",    "net.bytes_in",          "net.bytes_out",
      "net.queue_wait_us",   "net.writev_calls",
  };
  for (size_t i = 0; i < kNinepOpCount; i++) {
    const char* op = NinepOpName(static_cast<NinepOp>(i));
    expected.push_back(StrFormat("ninep.%s.count", op));
    expected.push_back(StrFormat("ninep.%s.errors", op));
    expected.push_back(StrFormat("ninep.%s.latency_us", op));
  }
  for (const std::string& name : expected) {
    EXPECT_NE(metrics.value().find(name + " "), std::string::npos)
        << name << " missing from /mnt/help/metrics";
  }

  // Reverse: enumerate the registry's net.* entries and demand each one is
  // accounted for. net.queue_wait_us is deliberately registry-only — the
  // /mnt/help/stats byte format is pinned, and the per-connection copies live
  // under /mnt/help/net/<cid>/stats.
  std::set<std::string> stats_net = {
      "net.accepts",      "net.active_conns", "net.reaped",
      "net.backpressure_stalls", "net.frame_errors",
      "net.bytes_in",     "net.bytes_out",    "net.writev_calls"};
  std::set<std::string> registry_only = {"net.queue_wait_us"};
  for (const std::string& line : Split(metrics.value(), '\n')) {
    if (!HasPrefix(line, "net.")) {
      continue;
    }
    std::string name = Tokenize(line)[0];
    EXPECT_TRUE(stats_net.count(name) == 1 || registry_only.count(name) == 1)
        << name << " is a new net.* registry entry: surface it in the stats "
        << "view or document it as registry-only in this test";
  }
}

// --- Control files -----------------------------------------------------------

TEST(StatsCtl, ClearZeroesTheStatsView) {
  Help::Options opt;
  opt.install_userland = false;
  Help h(opt);
  NinepMetrics& m = h.ninep().metrics();
  m.AddBytesIn(5);
  m.RecordOp(NinepOp::kWalk, 3, false);
  ASSERT_GT(m.bytes_in(), 0u);
  ASSERT_TRUE(h.vfs().WriteFile("/mnt/help/statsctl", "clear\n").ok());
  EXPECT_EQ(m.bytes_in(), 0u);
  EXPECT_EQ(m.count(NinepOp::kWalk), 0u);
  auto bad = h.vfs().WriteFile("/mnt/help/statsctl", "frobnicate\n");
  EXPECT_FALSE(bad.ok());
}

TEST(SlowCtl, ThresholdAndClear) {
  Help::Options opt;
  opt.install_userland = false;
  Help h(opt);
  FlightRecorder& fr = h.ninep().net().recorder();
  ASSERT_TRUE(h.vfs().WriteFile("/mnt/help/net/slowctl", "threshold 250\n").ok());
  EXPECT_EQ(fr.threshold_us(), 250u);
  fr.Record(Rec(300 * 1000));
  ASSERT_EQ(fr.kept(), 1u);
  ASSERT_TRUE(h.vfs().WriteFile("/mnt/help/net/slowctl", "clear\n").ok());
  EXPECT_EQ(fr.kept(), 0u);
  EXPECT_FALSE(h.vfs().WriteFile("/mnt/help/net/slowctl", "threshold x\n").ok());
  EXPECT_FALSE(h.vfs().WriteFile("/mnt/help/net/slowctl", "bogus\n").ok());
  auto ctl = h.vfs().ReadFile("/mnt/help/net/slowctl");
  ASSERT_TRUE(ctl.ok());
  EXPECT_NE(ctl.value().find("threshold_us 250\n"), std::string::npos);
}

// --- The /mnt/help/net tree over a live socket -------------------------------

TEST(NetFs, PerConnectionTreeOverTheWire) {
  Help::Options opt;
  opt.install_userland = false;
  Help h(opt);
  NinepServer& srv = h.ninep();
  // The registry is process-global; zero it so "one connection's counters ==
  // the global totals" below compares only this test's traffic.
  srv.metrics().Reset();
  NinepListener lis(&srv);
  std::string path = SockPath("netfs");
  ASSERT_TRUE(lis.ListenUnix(path).ok());
  ASSERT_TRUE(lis.Start().ok());

  auto tr = SocketTransport::ConnectUnix(path);
  ASSERT_TRUE(tr.ok()) << tr.message();
  NinepClient client(tr.value()->AsTransport());
  ASSERT_TRUE(client.Connect("sock").ok());

  ASSERT_EQ(srv.net().conn_count(), 1u);
  uint64_t cid = srv.net().List()[0]->cid();
  std::string dir = StrFormat("/mnt/help/net/%llu",
                              static_cast<unsigned long long>(cid));

  // The listing shows the static files plus this connection's directory.
  auto ls = client.ReadDir("/mnt/help/net");
  ASSERT_TRUE(ls.ok());
  std::set<std::string> names;
  for (const StatInfo& st : ls.value()) {
    names.insert(st.name);
  }
  EXPECT_EQ(names.count("clients"), 1u);
  EXPECT_EQ(names.count("slow"), 1u);
  EXPECT_EQ(names.count("slowctl"), 1u);
  EXPECT_EQ(names.count(std::to_string(cid)), 1u) << "conn dir missing";

  // A connection reading its own status sees itself live, with the
  // negotiated msize and its peer.
  auto status = client.ReadFile(dir + "/status");
  ASSERT_TRUE(status.ok());
  EXPECT_NE(status.value().find("peer unix\n"), std::string::npos) << status.value();
  EXPECT_NE(status.value().find("state active\n"), std::string::npos);
  EXPECT_NE(status.value().find(StrFormat("msize %u\n", kDefaultMsize)),
            std::string::npos);

  // The roll-up carries one line for this connection.
  auto clients = client.ReadFile("/mnt/help/net/clients");
  ASSERT_TRUE(clients.ok());
  EXPECT_NE(clients.value().find(
                "id peer state msize fids frames_in bytes_in bytes_out\n"),
            std::string::npos);
  EXPECT_NE(clients.value().find(StrFormat(
                "%llu unix active", static_cast<unsigned long long>(cid))),
            std::string::npos)
      << clients.value();

  // Per-connection op counts agree with what this client sent: every RPC the
  // client made so far is exactly this connection's traffic.
  auto stats = client.ReadFile(dir + "/stats");
  ASSERT_TRUE(stats.ok());
  std::shared_ptr<ConnInfo> info = srv.net().Find(cid);
  ASSERT_NE(info, nullptr);
  // The stats read itself finished dispatch before its reply was appended,
  // so the counts are settled by the time the client parses them.
  EXPECT_EQ(info->total_ops() + 0u, client.rpcs());
  EXPECT_NE(stats.value().find("op count errs p50us p99us\n"), std::string::npos);
  EXPECT_NE(stats.value().find("\nwalk "), std::string::npos) << stats.value();
  EXPECT_NE(stats.value().find("\nqueue_wait_us "), std::string::npos);

  // Per-connection counters sum consistently with the global net.* view:
  // one connection, so the totals must match exactly.
  EXPECT_EQ(info->bytes_in(), srv.metrics().net_bytes_in());
  EXPECT_EQ(info->bytes_out(), srv.metrics().net_bytes_out());
  for (size_t i = 0; i < kNinepOpCount; i++) {
    NinepOp op = static_cast<NinepOp>(i);
    EXPECT_EQ(info->op_count(op), srv.metrics().count(op))
        << "op " << NinepOpName(op);
  }

  // Keep a node from the synthesized subtree, then kill the connection: the
  // tree must answer "connection is gone", and the directory must vanish.
  NodePtr status_node;
  {
    auto g = srv.LockDispatch();
    auto n = h.vfs().Walk(dir + "/status");
    ASSERT_TRUE(n.ok());
    status_node = n.value();
  }
  lis.Stop();
  ASSERT_TRUE(WaitFor([&] { return srv.net().conn_count() == 0; }));
  OpenFile f(status_node, kOread, h.vfs().clock());
  Status gone = status_node->handler()->Open(f, kOread);
  EXPECT_FALSE(gone.ok());
  EXPECT_NE(gone.message().find("gone"), std::string::npos);
  auto after = h.vfs().ReadDir("/mnt/help/net");
  ASSERT_TRUE(after.ok());
  for (const StatInfo& st : after.value()) {
    EXPECT_NE(st.name, std::to_string(cid)) << "dead conn dir still listed";
  }
  ::unlink(path.c_str());
}

// --- The phase chain ---------------------------------------------------------

struct Phases {
  std::map<std::string, obs::TraceEvent> by_name;
  bool Has(const std::string& n) const { return by_name.count(n) == 1; }
  uint64_t Seq(const std::string& n) const { return by_name.at(n).seq; }
};

TEST(RequestTrace, OneRidChainsEveryPhaseInOrder) {
  Help::Options opt;
  opt.install_userland = false;
  Help h(opt);
  NinepServer& srv = h.ninep();
  NinepListener lis(&srv);
  std::string path = SockPath("phases");
  ASSERT_TRUE(lis.ListenUnix(path).ok());
  ASSERT_TRUE(lis.Start().ok());

  obs::Tracer& tr = obs::Tracer::Global();
  tr.Clear();
  tr.Enable();

  auto sock = SocketTransport::ConnectUnix(path);
  ASSERT_TRUE(sock.ok());
  NinepClient client(sock.value()->AsTransport());
  ASSERT_TRUE(client.Connect("sock").ok());
  auto stats = client.ReadFile("/mnt/help/stats");
  ASSERT_TRUE(stats.ok());

  // req.outbox lands on the loop thread after the reply bytes are written;
  // wait for the full chain rather than racing it.
  ASSERT_TRUE(WaitFor([&] {
    for (const obs::TraceEvent& e : tr.Snapshot()) {
      if (std::string_view(e.name) == "req.outbox") {
        return true;
      }
    }
    return false;
  }));
  tr.Disable();

  ASSERT_EQ(srv.net().conn_count(), 1u);
  uint64_t cid = srv.net().List()[0]->cid();

  // Group phase events by rid. Every rid-stamped event belongs to this test's
  // single connection, and per-connection seqs ascend in frame order.
  std::map<uint64_t, Phases> by_rid;
  std::vector<uint64_t> frame_order;
  for (const obs::TraceEvent& e : tr.Snapshot()) {
    if (e.rid == 0) {
      continue;
    }
    EXPECT_EQ(e.rid >> 40, cid & 0xFFFFFF) << "rid from another connection";
    by_rid[e.rid].by_name[e.name] = e;
    if (std::string_view(e.name) == "req.frame") {
      frame_order.push_back(e.rid & 0xFFFFFF);
    }
  }
  ASSERT_GE(frame_order.size(), 2u);
  for (size_t i = 1; i < frame_order.size(); i++) {
    EXPECT_EQ(frame_order[i], frame_order[i - 1] + 1)
        << "per-connection seq must be dense and ascending";
  }

  // At least one request (the Tread of /mnt/help/stats goes through the
  // dispatch lock and a handler) must show the complete chain, in emit order:
  // frame → queue → lock → handler → encode → outbox.
  bool full_chain = false;
  for (const auto& [rid, ph] : by_rid) {
    if (!ph.Has("req.handler")) {
      continue;
    }
    ASSERT_TRUE(ph.Has("req.frame")) << "rid 0x" << std::hex << rid;
    ASSERT_TRUE(ph.Has("req.queue"));
    ASSERT_TRUE(ph.Has("req.lock"));
    ASSERT_TRUE(ph.Has("req.encode"));
    if (!ph.Has("req.outbox")) {
      continue;  // reply may still be in flight for the last requests
    }
    EXPECT_LT(ph.Seq("req.frame"), ph.Seq("req.queue"));
    EXPECT_LT(ph.Seq("req.queue"), ph.Seq("req.lock"));
    EXPECT_LT(ph.Seq("req.lock"), ph.Seq("req.handler"));
    EXPECT_LT(ph.Seq("req.handler"), ph.Seq("req.encode"));
    EXPECT_LT(ph.Seq("req.encode"), ph.Seq("req.outbox"));
    full_chain = true;
  }
  EXPECT_TRUE(full_chain) << "no request completed all six phases";

  // Chrome export: named threads, flow events, and rid args all present.
  std::string json = tr.RenderChromeJson();
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("net.loop"), std::string::npos);
  EXPECT_NE(json.find("\"rid\":"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);

  lis.Stop();
  ::unlink(path.c_str());
}

// --- The flight recorder catches a slow request ------------------------------

class SleepyHandler : public FileHandler {
 public:
  Result<std::string> Read(OpenFile& f, uint64_t offset, uint32_t count) override {
    if (offset > 0) {
      return std::string();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    return std::string("slow\n");
  }
  Result<uint32_t> Write(OpenFile& f, uint64_t offset, std::string_view data) override {
    return Status::Error("read-only");
  }
};

TEST(FlightRecorderWire, CatchesAnArtificiallySlowHandler) {
  Help::Options opt;
  opt.install_userland = false;
  Help h(opt);
  NinepServer& srv = h.ninep();
  ASSERT_TRUE(
      h.vfs().AttachHandler("/mnt/help/slowfile", std::make_shared<SleepyHandler>())
          .ok());

  NinepListener lis(&srv);
  std::string path = SockPath("slowreq");
  ASSERT_TRUE(lis.ListenUnix(path).ok());
  ASSERT_TRUE(lis.Start().ok());

  auto sock = SocketTransport::ConnectUnix(path);
  ASSERT_TRUE(sock.ok());
  NinepClient client(sock.value()->AsTransport());
  ASSERT_TRUE(client.Connect("sock").ok());
  auto body = client.ReadFile("/mnt/help/slowfile");
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body.value(), "slow\n");

  FlightRecorder& fr = srv.net().recorder();
  ASSERT_TRUE(WaitFor([&] {
    for (const RequestRecord& r : fr.Snapshot()) {
      if (r.op == NinepOp::kRead && r.handler_ns >= 20 * 1000 * 1000) {
        return true;
      }
    }
    return false;
  }));

  // The breakdown must be sane: the sleep dominates, every phase fits inside
  // the total, and the record names this connection.
  uint64_t cid = srv.net().List()[0]->cid();
  bool found = false;
  for (const RequestRecord& r : fr.Snapshot()) {
    if (r.op != NinepOp::kRead || r.handler_ns < 20 * 1000 * 1000) {
      continue;
    }
    found = true;
    EXPECT_EQ(r.cid, cid);
    EXPECT_EQ(r.rid >> 40, cid & 0xFFFFFF);
    EXPECT_GE(r.total_ns, r.handler_ns);
    EXPECT_LE(r.queue_ns, r.total_ns);
    EXPECT_LE(r.lock_ns, r.total_ns);
    EXPECT_LE(r.encode_ns, r.total_ns);
    EXPECT_LE(r.outbox_ns, r.total_ns);
  }
  ASSERT_TRUE(found);

  // The slow read is the slowest request this server has seen, so it leads
  // /mnt/help/net/slow.
  auto slow = client.ReadFile("/mnt/help/net/slow");
  ASSERT_TRUE(slow.ok());
  std::vector<std::string> lines = Split(slow.value(), '\n');
  ASSERT_GE(lines.size(), 2u);
  EXPECT_EQ(lines[0],
            "rid cid tag op total_us queue_us lock_us handler_us encode_us "
            "outbox_us");
  std::vector<std::string> cols = Tokenize(lines[1]);
  ASSERT_EQ(cols.size(), 10u);
  EXPECT_EQ(cols[3], "read");
  EXPECT_GE(ParseInt(cols[7]), 20000) << "handler_us: " << lines[1];

  lis.Stop();
  ::unlink(path.c_str());
}

}  // namespace
}  // namespace help
