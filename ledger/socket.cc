// browse and crowd: programs using /mnt/help over a Unix-domain socket,
// served by NinepListener with its default options. Every connection is a
// closed loop (it waits for each reply) on its own client thread. An op is
// one client 9P request round trip.
//
//   browse  8 windows of 32 KiB ASCII; 512-byte Treads at seeded offsets
//           through pre-opened fids. The per-message cost dominates.
//   crowd   2000 windows of mixed UTF-8; each connection works on 16 seeded
//           windows: 70% 512-byte Treads, 25% one-line bodyapp appends, 5%
//           ctl "select" writes. Window lookup walks every live window, and
//           appends relayout inside the 9P write.
//
// Reads cover only the seeded prefix of a body, which appends never change,
// so every Rread byte is checked against the generated body.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "ledger/ledger.h"
#include "src/base/strings.h"
#include "src/core/help.h"
#include "src/fs/listener.h"
#include "src/fs/server.h"
#include "src/fs/transport.h"

namespace ledger {
namespace {

using help::Help;
using help::NinepClient;
using help::NinepServer;
using help::Window;

constexpr uint32_t kReadBytes = 512;
// One op in this many is timed layer by layer in a traced run; the probes
// hold the dispatch lock exclusively, so timing every op would serialize the
// connections.
constexpr uint64_t kTraceEvery = 8;
constexpr double kSliceS = 0.5;

const char* const kAsciiWords[] = {
    "the",    "window", "body",  "text",   "help",  "file",  "server", "mouse",
    "button", "select", "exec",  "tag",    "column", "sweep", "open",  "cut",
    "paste",  "line",   "rune",  "byte",   "mk",    "uses",  "stack", "Put!"};
const char* const kUtf8Words[] = {
    "naïve", "café", "→", "λx", "日本語", "Ünïcödé", "😀", "résumé", "Σ", "über", "½"};

struct Params {
  bool crowd;
  int windows;
  size_t body_bytes;
  int windows_per_conn;  // 0: every window
  int warmup_ops;        // per connection, counted in setup
};
constexpr Params kBrowse{false, 8, 32 * 1024, 0, 2000};
constexpr Params kCrowd{true, 2000, 8 * 1024, 16, 1000};

struct Win {
  int id = 0;
  std::string base;  // /mnt/help/<id>
  Window* w = nullptr;
  std::string seed;  // the body as created
  size_t seed_runes = 0;
  std::atomic<uint64_t> appended{0};  // bytes appended since creation
};

// Seeded lines of words; mixed bodies draw a third of their words from
// multi-byte UTF-8.
std::string MakeBody(Rng* rng, size_t bytes, bool mixed) {
  std::string out;
  while (out.size() < bytes) {
    int words = 4 + static_cast<int>(rng->Below(9));
    for (int i = 0; i < words; i++) {
      if (i > 0) {
        out += ' ';
      }
      if (mixed && rng->Below(3) == 0) {
        out += kUtf8Words[rng->Below(std::size(kUtf8Words))];
      } else {
        out += kAsciiWords[rng->Below(std::size(kAsciiWords))];
      }
    }
    out += '\n';
  }
  return out;
}

struct Target {
  Win* win;
  uint32_t body = help::kNoFid;
  uint32_t app = help::kNoFid;
  uint32_t ctl = help::kNoFid;
};

// Opens the fids one connection uses on its windows.
bool OpenTargets(NinepClient* c, std::vector<Target>* targets, bool writes, std::string* why) {
  for (Target& t : *targets) {
    auto open = [&](const char* file, uint8_t mode, uint32_t* fid) {
      auto f = c->WalkFid(t.win->base + "/" + file);
      if (!f.ok() || !c->OpenFid(f.value(), mode).ok()) {
        *why = "cannot open " + t.win->base + "/" + file;
        return false;
      }
      *fid = f.value();
      return true;
    };
    if (!open("body", help::kOread, &t.body) ||
        (writes && (!open("bodyapp", help::kOwrite, &t.app) ||
                    !open("ctl", help::kOwrite, &t.ctl)))) {
      return false;
    }
  }
  return true;
}

enum class Kind { kRead, kAppend, kCtl };

// A traced request, kept for the probes that follow the slice.
struct Sample {
  Win* win;
  Kind kind;
  uint64_t off;      // reads
  std::string data;  // writes
};

struct Conn {
  std::unique_ptr<help::SocketTransport> tr;
  std::unique_ptr<NinepClient> client;
  std::vector<Target> targets;
  // Traced runs replay each sampled request on an in-process session with
  // the same files open.
  NinepServer::SessionId shadow_sid = 0;
  std::unique_ptr<NinepClient> shadow;
  std::vector<Target> shadow_targets;
};

class Socket : public Workload {
 public:
  Socket(uint64_t seed, Params p, int conns) : seed_(seed), p_(p), nconns_(conns) {}
  ~Socket() override { Teardown(); }

  bool Setup(std::string* why) override {
    Teardown();
    Rng rng(seed_);
    Help::Options opt;
    opt.install_userland = false;
    help_ = std::make_unique<Help>(opt);
    lis_ = std::make_unique<help::NinepListener>(&help_->ninep());
    path_ = help::StrFormat(".bench_build/ledger.%d.sock", getpid());
    if (!lis_->ListenUnix(path_).ok() || !lis_->Start().ok()) {
      *why = "cannot listen on " + path_;
      return false;
    }

    // The windows, created and seeded over the wire as a program would.
    {
      auto tr = help::SocketTransport::ConnectUnix(path_);
      if (!tr.ok()) {
        *why = tr.message();
        return false;
      }
      NinepClient seeder(tr.value()->AsTransport());
      if (!seeder.Connect("seeder").ok()) {
        *why = "seeder cannot attach";
        return false;
      }
      for (int i = 0; i < p_.windows; i++) {
        auto win = std::make_unique<Win>();
        auto ctl = seeder.ReadFile("/mnt/help/new/ctl");
        if (!ctl.ok()) {
          *why = "new/ctl: " + ctl.message();
          return false;
        }
        win->id = static_cast<int>(help::ParseInt(help::TrimSpace(ctl.value())));
        win->base = help::StrFormat("/mnt/help/%d", win->id);
        win->seed = MakeBody(&rng, p_.body_bytes, p_.crowd);
        win->seed_runes = help::RunesFromUtf8(win->seed).size();
        if (!seeder.WriteFile(win->base + "/bodyapp", win->seed).ok()) {
          *why = "cannot seed " + win->base;
          return false;
        }
        wins_.push_back(std::move(win));
      }
    }
    {
      auto g = help_->ninep().LockDispatch();
      for (auto& win : wins_) {
        win->w = help_->page().FindById(win->id);
        if (win->w == nullptr) {
          *why = "window " + win->base + " is missing";
          return false;
        }
      }
    }

    for (int i = 0; i < nconns_; i++) {
      auto c = std::make_unique<Conn>();
      auto tr = help::SocketTransport::ConnectUnix(path_);
      if (!tr.ok()) {
        *why = tr.message();
        return false;
      }
      c->tr = tr.take();
      c->client = std::make_unique<NinepClient>(c->tr->AsTransport());
      if (!c->client->Connect(help::StrFormat("conn%d", i)).ok()) {
        *why = "connection cannot attach";
        return false;
      }
      std::vector<size_t> pick(wins_.size());
      for (size_t k = 0; k < pick.size(); k++) {
        pick[k] = k;
      }
      size_t n = p_.windows_per_conn > 0 ? static_cast<size_t>(p_.windows_per_conn) : pick.size();
      for (size_t k = 0; k < n; k++) {  // partial Fisher-Yates
        std::swap(pick[k], pick[k + rng.Below(pick.size() - k)]);
        c->targets.push_back({wins_[pick[k]].get()});
      }
      if (!OpenTargets(c->client.get(), &c->targets, p_.crowd, why)) {
        return false;
      }
      conns_.push_back(std::move(c));
    }

    Phase warm;
    RunConns(p_.warmup_ops, 0, false, &warm);
    if (warm.failed > 0) {
      *why = warm.first_error;
      return false;
    }
    return true;
  }

  Phase Run(double seconds, bool trace) override {
    if (trace && !OpenShadows()) {
      Phase ph;
      ph.Fail("cannot open the in-process replay sessions");
      return ph;
    }
    Phase ph;
    ph.windows_start = LiveWindows();
    Counters c0 = Counters::Read();
    const int slices = std::max(1, static_cast<int>(seconds / kSliceS + 0.5));
    for (int s = 0; s < slices; s++) {
      uint64_t t0 = NowNs();
      uint64_t cpu0 = ProcessCpuNs();
      uint64_t ops0 = ph.attempted - ph.failed;
      RunConns(0, t0 + static_cast<uint64_t>(seconds / slices * 1e9), trace, &ph);
      // Each slice has enough samples for its own p99; dropping them keeps
      // memory flat over the run.
      ph.EndSlice(ph.attempted - ph.failed - ops0, static_cast<double>(NowNs() - t0) * 1e-9,
                  static_cast<double>(ProcessCpuNs() - cpu0) * 1e-9, /*keep_samples=*/false);
    }
    ph.delta = Counters::Read() - c0;
    ph.windows_end = LiveWindows();
    return ph;
  }

  bool FinalCheck(std::string* why) override {
    auto g = help_->ninep().LockDispatch();
    for (auto& win : wins_) {
      uint64_t want = win->seed.size() + win->appended.load();
      uint64_t got = win->w->body().text->Utf8Bytes();
      if (got != want) {
        *why = help::StrFormat("%s: body is %llu bytes, want %llu", win->base.c_str(),
                               static_cast<unsigned long long>(got),
                               static_cast<unsigned long long>(want));
        return false;
      }
    }
    return true;
  }

  int Parent(Layer l) const override {
    switch (l) {
      case kDispatch:
        return kNetRtt;
      case kLockWait:
      case kHandler:
      case kEncode:
        return kDispatch;
      case kWinLookup:
      case kUtf8Substr:
      case kAppend:
        return kHandler;
      case kRelayout:
        return kAppend;
      default:
        return -1;
    }
  }

 private:
  void Teardown() {
    for (auto& c : conns_) {
      if (c->shadow_sid != 0) {
        help_->ninep().CloseSession(c->shadow_sid);
      }
    }
    conns_.clear();  // closes the client sockets before the listener stops
    lis_.reset();
    help_.reset();
    wins_.clear();
  }

  size_t LiveWindows() {
    auto g = help_->ninep().LockDispatch();
    return help_->AllWindows().size();
  }

  bool OpenShadows() {
    for (auto& c : conns_) {
      if (c->shadow != nullptr) {
        continue;
      }
      NinepServer& srv = help_->ninep();
      c->shadow_sid = srv.OpenSession();
      c->shadow = std::make_unique<NinepClient>(srv.TransportFor(c->shadow_sid));
      c->shadow_targets = c->targets;
      std::string why;
      if (!c->shadow->Connect("shadow").ok() ||
          !OpenTargets(c->shadow.get(), &c->shadow_targets, p_.crowd, &why)) {
        return false;
      }
    }
    return true;
  }

  // Runs every connection on its own thread, for `ops` ops each or until
  // `end_ns`. In traced runs the layer probes of the sampled requests run
  // afterwards, while the listener is idle: they hold the dispatch lock
  // exclusively and would otherwise stall the other connections' requests.
  void RunConns(int ops, uint64_t end_ns, bool trace, Phase* ph) {
    std::vector<Phase> parts(conns_.size());
    std::vector<SpanSink> sinks(conns_.size());
    std::vector<std::vector<Sample>> samples(conns_.size());
    std::vector<std::thread> threads;
    run_++;
    for (size_t i = 0; i < conns_.size(); i++) {
      threads.emplace_back([&, i] {
        Rng rng(seed_ * 1000003 + run_ * 64 + i);
        for (uint64_t n = 0;; n++) {
          if (ops > 0 ? n >= static_cast<uint64_t>(ops) : NowNs() >= end_ns) {
            break;
          }
          bool sampled = trace && n % kTraceEvery == 0;
          Op(conns_[i].get(), &rng, sampled ? &sinks[i] : nullptr, &samples[i], &parts[i]);
        }
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
    for (size_t i = 0; i < parts.size(); i++) {
      for (const Sample& smp : samples[i]) {
        Probe(smp, &sinks[i], &parts[i]);
      }
      ph->Merge(parts[i]);
      for (int l = 0; l < kLayerCount; l++) {
        ph->layers[l].calls += sinks[i].table()[l].calls;
        ph->layers[l].ns += sinks[i].table()[l].ns;
      }
    }
  }

  // One closed-loop request, checked. With a sink, it is also replayed on
  // the connection's in-process session and kept for the probes.
  void Op(Conn* c, Rng* rng, SpanSink* sink, std::vector<Sample>* samples, Phase* ph) {
    size_t ti = rng->Below(c->targets.size());
    Target& t = c->targets[ti];
    Win* win = t.win;
    Kind kind = Kind::kRead;
    if (p_.crowd) {
      uint64_t r = rng->Below(100);
      kind = r < 70 ? Kind::kRead : r < 95 ? Kind::kAppend : Kind::kCtl;
    }
    uint64_t off = 0;
    std::string data;
    if (kind == Kind::kRead) {
      off = rng->Below(win->seed.size() - kReadBytes + 1);
    } else if (kind == Kind::kAppend) {
      data = help::StrFormat("appended %llu by a program\n",
                             static_cast<unsigned long long>(rng->Below(1000000)));
    } else {
      uint64_t q0 = rng->Below(win->seed_runes);
      data = help::StrFormat("select %llu %llu\n", static_cast<unsigned long long>(q0),
                             static_cast<unsigned long long>(q0 + rng->Below(64)));
    }

    std::string got;
    bool ok = false;
    uint64_t t0 = NowNs();
    if (kind == Kind::kRead) {
      auto r = c->client->ReadFid(t.body, off, kReadBytes);
      ok = r.ok();
      if (ok) {
        got = r.take();
      }
    } else {
      auto r = c->client->WriteFid(kind == Kind::kAppend ? t.app : t.ctl, 0, data);
      ok = r.ok() && r.value() == data.size();
    }
    uint64_t t1 = NowNs();

    ph->attempted++;
    ph->wire_replies++;
    ph->lat_ns.push_back(static_cast<uint32_t>(std::min<uint64_t>(t1 - t0, UINT32_MAX)));
    if (kind == Kind::kRead) {
      ok = ok && std::string_view(win->seed).substr(off, kReadBytes) == got;
      ph->bytes_read += got.size();
      for (unsigned char b : got) {
        ph->non_ascii_read += b >= 0x80;
      }
    } else {
      ph->write_ops++;
      if (ok && kind == Kind::kAppend) {
        win->appended += data.size();
      }
    }
    if (!ok) {
      ph->Fail(help::StrFormat("%s: %s at %llu failed or read wrong bytes", win->base.c_str(),
                               kind == Kind::kRead ? "read" : "write",
                               static_cast<unsigned long long>(off)));
    }
    if (sink != nullptr) {
      sink->Add(kNetRtt, t1 - t0);
      Sample smp{win, kind, off, std::move(data)};
      Replay(c->shadow_sid, c->shadow_targets[ti], smp, sink, ph);
      samples->push_back(std::move(smp));
    }
  }

  // The same request through NinepServer::HandleBytes on an in-process
  // session: the dispatch time and its RequestObs split, without the wire.
  void Replay(NinepServer::SessionId sid, const Target& st, const Sample& smp, SpanSink* sink,
              Phase* ph) {
    help::Fcall f;
    f.tag = 1;
    if (smp.kind == Kind::kRead) {
      f.type = help::MsgType::kTread;
      f.fid = st.body;
      f.offset = smp.off;
      f.count = kReadBytes;
    } else {
      f.type = help::MsgType::kTwrite;
      f.fid = smp.kind == Kind::kAppend ? st.app : st.ctl;
      f.data = smp.data;
    }
    std::string packet = help::EncodeFcall(f);
    help::RequestObs obs;
    help::ReplyFrame reply;
    uint64_t u0 = NowNs();
    help_->ninep().HandleBytes(sid, packet, &obs, &reply);
    sink->Add(kDispatch, NowNs() - u0);
    sink->Add(kLockWait, obs.lock_wait_ns);
    sink->Add(kHandler, obs.handler_ns);
    sink->Add(kEncode, obs.encode_ns);
    if (obs.error) {
      ph->Fail(smp.win->base + ": in-process replay answered Rerror");
    } else if (smp.kind == Kind::kAppend) {
      smp.win->appended += smp.data.size();
    }
    ph->traced_ops++;
  }

  // The handler's layers called directly on the request's inputs: window
  // lookup at this window count, then the byte range read or the append and
  // the relayout it causes.
  void Probe(const Sample& smp, SpanSink* sink, Phase* ph) {
    Win* win = smp.win;
    auto g = help_->ninep().LockDispatch();
    {
      Span s(sink, kWinLookup);
      std::vector<Window*> all = help_->AllWindows();
    }
    if (smp.kind == Kind::kRead) {
      std::string sub;
      {
        Span s(sink, kUtf8Substr);
        sub = win->w->body().text->Utf8Substr(smp.off, kReadBytes);
      }
      if (std::string_view(win->seed).substr(smp.off, kReadBytes) != sub) {
        ph->Fail(win->base + ": Utf8Substr returned wrong bytes");
      }
    } else if (smp.kind == Kind::kAppend) {
      help::Status st;
      {
        Span s(sink, kAppend);
        st = help_->AppendBody(win->w, smp.data);
      }
      if (st.ok()) {
        win->appended += smp.data.size();
      } else {
        ph->Fail(win->base + ": AppendBody: " + st.message());
      }
      Span s(sink, kRelayout);
      win->w->Relayout();
    }
  }

  uint64_t seed_;
  Params p_;
  int nconns_;
  uint64_t run_ = 0;
  std::string path_;
  std::unique_ptr<Help> help_;
  std::unique_ptr<help::NinepListener> lis_;
  std::vector<std::unique_ptr<Win>> wins_;
  std::vector<std::unique_ptr<Conn>> conns_;
};

}  // namespace

std::unique_ptr<Workload> MakeSocket(uint64_t seed, bool crowd, int conns) {
  return std::make_unique<Socket>(seed, crowd ? kCrowd : kBrowse, conns);
}

}  // namespace ledger
