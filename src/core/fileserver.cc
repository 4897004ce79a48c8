#include "src/core/fileserver.h"

#include <algorithm>

#include "src/base/strings.h"
#include "src/core/help.h"
#include "src/fs/server.h"
#include "src/obs/trace.h"
#include "src/text/address.h"

namespace help {

namespace {

// Every /mnt/help handler is wrapped in this decorator: each operation runs
// under the Help instance's 9P dispatch lock, so handlers keep their
// single-threaded invariants no matter which thread calls — a 9P dispatch
// (which already holds the lock; re-entry is a detected no-op) or the
// UI/shell thread touching the same files directly through the Vfs, which
// acquires it here. In particular, index and new/ctl snapshot their
// contents at Open time *under this lock*, so a listing never tears against
// concurrent window creation.
class SerializedHandler : public FileHandler {
 public:
  SerializedHandler(Help* h, std::shared_ptr<FileHandler> inner)
      : h_(h), inner_(std::move(inner)) {}

  Status Open(OpenFile& f, uint8_t mode) override {
    auto lock = h_->ninep().LockDispatch();
    return inner_->Open(f, mode);
  }
  Result<std::string> Read(OpenFile& f, uint64_t offset, uint32_t count) override {
    auto lock = h_->ninep().LockDispatch();
    return inner_->Read(f, offset, count);
  }
  Result<uint32_t> Write(OpenFile& f, uint64_t offset, std::string_view data) override {
    auto lock = h_->ninep().LockDispatch();
    return inner_->Write(f, offset, data);
  }
  void Clunk(OpenFile& f) override {
    auto lock = h_->ninep().LockDispatch();
    inner_->Clunk(f);
  }
  uint64_t Length(const Node& n) const override {
    auto lock = h_->ninep().LockDispatch();
    return inner_->Length(n);
  }

 private:
  Help* h_;
  std::shared_ptr<FileHandler> inner_;
};

std::shared_ptr<FileHandler> Serialized(Help* h, std::shared_ptr<FileHandler> inner) {
  return std::make_shared<SerializedHandler>(h, std::move(inner));
}

// Serves a snapshot string computed at open time.
class SnapshotHandler : public FileHandler {
 public:
  using Producer = std::function<std::string()>;
  explicit SnapshotHandler(Producer p) : producer_(std::move(p)) {}

  Status Open(OpenFile& f, uint8_t mode) override {
    f.state = producer_();
    return Status::Ok();
  }
  Result<std::string> Read(OpenFile& f, uint64_t offset, uint32_t count) override {
    if (offset >= f.state.size()) {
      return std::string();
    }
    return f.state.substr(offset, count);
  }
  Result<uint32_t> Write(OpenFile& f, uint64_t offset, std::string_view data) override {
    return ErrPerm("read-only file");
  }

 private:
  Producer producer_;
};

class NewCtlHandler : public FileHandler {
 public:
  explicit NewCtlHandler(Help* h) : h_(h) {}

  Status Open(OpenFile& f, uint8_t mode) override {
    Window* w = h_->CreateWindow("");
    f.state_int = w->id();
    f.state = StrFormat("%d\n", w->id());
    return Status::Ok();
  }
  Result<std::string> Read(OpenFile& f, uint64_t offset, uint32_t count) override {
    if (offset >= f.state.size()) {
      return std::string();
    }
    return f.state.substr(offset, count);
  }
  Result<uint32_t> Write(OpenFile& f, uint64_t offset, std::string_view data) override {
    Window* w = h_->FindWindow(static_cast<int>(f.state_int));
    if (w == nullptr) {
      return Status::Error("window is gone");
    }
    Status s = h_->HandleCtl(w, data);
    if (!s.ok()) {
      return s;
    }
    return static_cast<uint32_t>(data.size());
  }

 private:
  Help* h_;
};

class SnarfHandler : public FileHandler {
 public:
  explicit SnarfHandler(Help* h) : h_(h) {}

  Result<std::string> Read(OpenFile& f, uint64_t offset, uint32_t count) override {
    const std::string& s = h_->snarf();
    if (offset >= s.size()) {
      return std::string();
    }
    return s.substr(offset, count);
  }
  Result<uint32_t> Write(OpenFile& f, uint64_t offset, std::string_view data) override {
    if (offset == 0) {
      h_->set_snarf(std::string(data));
    } else {
      std::string s = h_->snarf();
      s.resize(std::max<size_t>(s.size(), offset), ' ');
      s.replace(offset, data.size(), data);
      h_->set_snarf(std::move(s));
    }
    return static_cast<uint32_t>(data.size());
  }
  uint64_t Length(const Node& n) const override { return h_->snarf().size(); }

 private:
  Help* h_;
};

// Handlers for one window's files. They hold the window id, not the pointer,
// and look it up per operation so a closed window yields a clean error.
class WindowFileHandler : public FileHandler {
 public:
  enum class Kind { kTag, kBody, kBodyApp, kCtl };

  WindowFileHandler(Help* h, int id, Kind kind) : h_(h), id_(id), kind_(kind) {}

  Status Open(OpenFile& f, uint8_t mode) override {
    Window* w = Win();
    if (w == nullptr) {
      return Status::Error("window is gone");
    }
    if ((mode & kOtrunc) != 0) {
      if (kind_ == Kind::kBody) {
        return h_->SetBodyBytes(w, 0, "", /*truncate=*/true);
      }
      if (kind_ == Kind::kTag) {
        return h_->SetTagBytes(w, 0, "", /*truncate=*/true);
      }
    }
    return Status::Ok();
  }

  Result<std::string> Read(OpenFile& f, uint64_t offset, uint32_t count) override {
    Window* w = Win();
    if (w == nullptr) {
      return Status::Error("window is gone");
    }
    switch (kind_) {
      case Kind::kTag:
        // Indexed range read: a client paging through a big body costs
        // O(log n + count) per read, not a full UTF-8 encode per packet.
        return w->tag().text->Utf8Substr(offset, count);
      case Kind::kBody:
        return w->body().text->Utf8Substr(offset, count);
      case Kind::kBodyApp:
        return std::string();  // write-only
      case Kind::kCtl: {
        std::string data = StrFormat("%d\n", id_);
        if (offset >= data.size()) {
          return std::string();
        }
        return data.substr(offset, count);
      }
    }
    return std::string();
  }

  Result<uint32_t> Write(OpenFile& f, uint64_t offset, std::string_view data) override {
    Window* w = Win();
    if (w == nullptr) {
      return Status::Error("window is gone");
    }
    Status s;
    switch (kind_) {
      case Kind::kTag:
        s = h_->SetTagBytes(w, offset, data, /*truncate=*/false);
        break;
      case Kind::kBody:
        s = h_->SetBodyBytes(w, offset, data, /*truncate=*/false);
        break;
      case Kind::kBodyApp:
        s = h_->AppendBody(w, data);
        break;
      case Kind::kCtl:
        s = h_->HandleCtl(w, data);
        break;
    }
    if (!s.ok()) {
      return s;
    }
    return static_cast<uint32_t>(data.size());
  }

  uint64_t Length(const Node& n) const override {
    Window* w = Win();
    if (w == nullptr) {
      return 0;
    }
    switch (kind_) {
      case Kind::kTag:
        // O(1): stat never encodes the body.
        return w->tag().text->Utf8Bytes();
      case Kind::kBody:
        return w->body().text->Utf8Bytes();
      default:
        return 0;
    }
  }

 private:
  Window* Win() const { return h_->FindWindow(id_); }

  Help* h_;
  int id_;
  Kind kind_;
};

// Extension: writing "<dir> <name[:addr]>" to /mnt/help/open opens a file
// exactly as the Open command would. This is what lets `decl` close the loop
// ("a future change to help will be to close this loop so the Open operation
// also happens automatically") from a shell script.
class OpenRequestHandler : public FileHandler {
 public:
  explicit OpenRequestHandler(Help* h) : h_(h) {}

  Result<std::string> Read(OpenFile& f, uint64_t offset, uint32_t count) override {
    return std::string();
  }
  Result<uint32_t> Write(OpenFile& f, uint64_t offset, std::string_view data) override {
    for (const std::string& line : Split(data, '\n')) {
      std::vector<std::string> words = Tokenize(line);
      if (words.empty()) {
        continue;
      }
      if (words.size() < 2) {
        return Status::Error("open: want 'dir name'");
      }
      auto r = h_->OpenFile(words[1], words[0], nullptr);
      if (!r.ok()) {
        return r.status();
      }
    }
    return static_cast<uint32_t>(data.size());
  }

 private:
  Help* h_;
};

// Control file for the global tracer. Writes accept newline-separated
// commands: on / off / clear / json / text. Reads snapshot at open time:
// normally a short status, or — after a `json` write — the whole ring as
// Chrome trace-event JSON (loadable in chrome://tracing or Perfetto);
// `text` switches the read payload back. Deliberately *not* serialized
// through the dispatch lock: the tracer and registry are internally
// thread-safe, so the trace stays readable even while a dispatch is stuck.
class TraceCtlHandler : public FileHandler {
 public:
  Status Open(OpenFile& f, uint8_t mode) override {
    obs::Tracer& t = obs::Tracer::Global();
    f.state = json_mode_.load(std::memory_order_relaxed) ? t.RenderChromeJson()
                                                         : t.RenderStatus();
    return Status::Ok();
  }
  Result<std::string> Read(OpenFile& f, uint64_t offset, uint32_t count) override {
    if (offset >= f.state.size()) {
      return std::string();
    }
    return f.state.substr(offset, count);
  }
  Result<uint32_t> Write(OpenFile& f, uint64_t offset, std::string_view data) override {
    obs::Tracer& t = obs::Tracer::Global();
    for (const std::string& line : Split(data, '\n')) {
      std::string_view cmd = TrimSpace(line);
      if (cmd.empty()) {
        continue;
      }
      if (cmd == "on") {
        t.Enable();
      } else if (cmd == "off") {
        t.Disable();
      } else if (cmd == "clear") {
        t.Clear();
      } else if (cmd == "json") {
        json_mode_.store(true, std::memory_order_relaxed);
      } else if (cmd == "text") {
        json_mode_.store(false, std::memory_order_relaxed);
      } else {
        return Status::Error("tracectl: unknown command '" + std::string(cmd) + "'");
      }
    }
    return static_cast<uint32_t>(data.size());
  }

 private:
  std::atomic<bool> json_mode_{false};
};

// One live connection's status or stats file under /mnt/help/net/<cid>/.
// Holds the cid, not the ConnInfo: the connection may die while the file is
// open (or between Walk and Topen), and a re-lookup per open answers
// "connection is gone" exactly like a window file whose window was deleted.
// Like the other observability files, not Serialized — ConnInfo is all
// relaxed atomics and the server queries take only the session-table lock,
// so these stay readable while a dispatch is stuck.
class ConnFileHandler : public FileHandler {
 public:
  enum class Kind : uint8_t { kStatus, kStats };

  ConnFileHandler(NinepServer* srv, uint64_t cid, Kind kind)
      : srv_(srv), cid_(cid), kind_(kind) {}

  Status Open(OpenFile& f, uint8_t mode) override {
    std::shared_ptr<ConnInfo> info = srv_->net().Find(cid_);
    if (info == nullptr) {
      return Status::Error("connection is gone");
    }
    f.state = kind_ == Kind::kStatus ? info->RenderStatus() : info->RenderStats();
    return Status::Ok();
  }
  Result<std::string> Read(OpenFile& f, uint64_t offset, uint32_t count) override {
    if (offset >= f.state.size()) {
      return std::string();
    }
    return f.state.substr(offset, count);
  }
  Result<uint32_t> Write(OpenFile& f, uint64_t offset, std::string_view data) override {
    return ErrPerm("read-only file");
  }

 private:
  NinepServer* srv_;
  uint64_t cid_;
  Kind kind_;
};

// Synthesizes /mnt/help/net/<cid>/ — one numbered directory per live
// connection, the Plan 9 /net idiom. Nothing creates or destroys Vfs nodes
// at accept/close time (the listener loop must never touch the tree);
// instead lookups and listings consult the server's NetState and lazily
// build a small cached subtree per connection, pruned when the connection
// dies. Lookups also run from the UI thread outside the dispatch lock, so it
// carries its own mutex. Qids live in a high range so they can't collide with the Vfs's
// sequential ids.
class NetDirSynth : public DirSynth {
 public:
  static constexpr uint64_t kQidBase = 1ull << 48;

  NetDirSynth(NinepServer* srv, Node* parent) : srv_(srv), parent_(parent) {}

  NodePtr Lookup(std::string_view name) override {
    uint64_t cid = 0;
    if (name.empty() || name.size() > 8) {
      return nullptr;
    }
    for (char ch : name) {
      if (ch < '0' || ch > '9') {
        return nullptr;
      }
      cid = cid * 10 + static_cast<uint64_t>(ch - '0');
    }
    std::lock_guard<std::mutex> lk(mu_);
    return DirForLocked(cid);
  }

  std::vector<NodePtr> List() override {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<NodePtr> out;
    std::vector<std::shared_ptr<ConnInfo>> live = srv_->net().List();
    for (const auto& info : live) {
      NodePtr d = DirForLocked(info->cid());
      if (d != nullptr) {
        out.push_back(d);
      }
    }
    // Prune directories of connections that have since closed.
    for (auto it = cache_.begin(); it != cache_.end();) {
      bool alive = false;
      for (const auto& info : live) {
        if (info->cid() == it->first) {
          alive = true;
          break;
        }
      }
      it = alive ? std::next(it) : cache_.erase(it);
    }
    return out;
  }

 private:
  NodePtr DirForLocked(uint64_t cid) {
    if (srv_->net().Find(cid) == nullptr) {
      cache_.erase(cid);
      return nullptr;
    }
    auto it = cache_.find(cid);
    if (it != cache_.end()) {
      return it->second;
    }
    auto dir = std::make_shared<Node>(std::to_string(cid), /*dir=*/true,
                                      kQidBase + cid * 4);
    dir->set_parent(parent_);
    auto status = std::make_shared<Node>("status", /*dir=*/false,
                                         kQidBase + cid * 4 + 1);
    status->set_handler(std::make_shared<ConnFileHandler>(
        srv_, cid, ConnFileHandler::Kind::kStatus));
    auto stats = std::make_shared<Node>("stats", /*dir=*/false,
                                        kQidBase + cid * 4 + 2);
    stats->set_handler(std::make_shared<ConnFileHandler>(
        srv_, cid, ConnFileHandler::Kind::kStats));
    dir->AddChild(std::move(status));
    dir->AddChild(std::move(stats));
    cache_[cid] = dir;
    return dir;
  }

  NinepServer* srv_;
  Node* parent_;
  std::mutex mu_;
  std::map<uint64_t, NodePtr> cache_;
};

// /mnt/help/net/slowctl: reads show the flight recorder's settings; writes
// accept "threshold <us>" and "clear".
class SlowCtlHandler : public FileHandler {
 public:
  explicit SlowCtlHandler(NinepServer* srv) : srv_(srv) {}

  Status Open(OpenFile& f, uint8_t mode) override {
    f.state = srv_->net().recorder().RenderCtl();
    return Status::Ok();
  }
  Result<std::string> Read(OpenFile& f, uint64_t offset, uint32_t count) override {
    if (offset >= f.state.size()) {
      return std::string();
    }
    return f.state.substr(offset, count);
  }
  Result<uint32_t> Write(OpenFile& f, uint64_t offset, std::string_view data) override {
    FlightRecorder& rec = srv_->net().recorder();
    for (const std::string& line : Split(data, '\n')) {
      std::vector<std::string> words = Tokenize(line);
      if (words.empty()) {
        continue;
      }
      if (words[0] == "clear" && words.size() == 1) {
        rec.Clear();
      } else if (words[0] == "threshold" && words.size() == 2) {
        long us = ParseInt(words[1]);
        if (us < 0) {
          return Status::Error("slowctl: bad threshold '" + words[1] + "'");
        }
        rec.set_threshold_us(static_cast<uint64_t>(us));
      } else {
        return Status::Error("slowctl: unknown command '" + words[0] + "'");
      }
    }
    return static_cast<uint32_t>(data.size());
  }

 private:
  NinepServer* srv_;
};

// /mnt/help/statsctl: "clear" zeroes the ninep.*/net.* counters and
// histograms (the /mnt/help/stats view), so a bench can measure steady-state
// percentiles without a process restart. Gauges (in_flight, active_conns)
// are left alone.
class StatsCtlHandler : public FileHandler {
 public:
  explicit StatsCtlHandler(NinepServer* srv) : srv_(srv) {}

  Result<std::string> Read(OpenFile& f, uint64_t offset, uint32_t count) override {
    return std::string();
  }
  Result<uint32_t> Write(OpenFile& f, uint64_t offset, std::string_view data) override {
    for (const std::string& line : Split(data, '\n')) {
      std::string_view cmd = TrimSpace(line);
      if (cmd.empty()) {
        continue;
      }
      if (cmd == "clear") {
        srv_->metrics().Reset();
      } else {
        return Status::Error("statsctl: unknown command '" + std::string(cmd) + "'");
      }
    }
    return static_cast<uint32_t>(data.size());
  }

 private:
  NinepServer* srv_;
};

}  // namespace

void InstallHelpFs(Help* h) {
  Vfs& vfs = h->vfs();
  vfs.MkdirAll("/mnt/help/new");
  vfs.AttachHandler("/mnt/help/index",
                    Serialized(h, std::make_shared<SnapshotHandler>([h] {
                      std::string out;
                      for (Window* w : h->AllWindows()) {
                        std::string tagline = w->tag().text->Utf8();
                        size_t nl = tagline.find('\n');
                        if (nl != std::string::npos) {
                          tagline = tagline.substr(0, nl);
                        }
                        out += StrFormat("%d\t%s\n", w->id(), tagline.c_str());
                      }
                      return out;
                    })));
  vfs.AttachHandler("/mnt/help/new/ctl", Serialized(h, std::make_shared<NewCtlHandler>(h)));
  vfs.AttachHandler("/mnt/help/snarf", Serialized(h, std::make_shared<SnarfHandler>(h)));
  vfs.AttachHandler("/mnt/help/open",
                    Serialized(h, std::make_shared<OpenRequestHandler>(h)));
  // The observability surface, served the paper's own way: as files you can
  // cat. stats keeps PR 1's 9P-only byte format; metrics is every counter and
  // histogram in the process-wide registry; trace/tracectl expose the event
  // ring. The new three skip the dispatch lock — the tracer and registry are
  // internally thread-safe, so they stay readable under load (or deadlock).
  vfs.AttachHandler("/mnt/help/stats",
                    Serialized(h, std::make_shared<SnapshotHandler>(
                                      [h] { return h->ninep().metrics().Render(); })));
  vfs.AttachHandler("/mnt/help/metrics", std::make_shared<SnapshotHandler>([] {
                      return obs::Registry::Global().RenderText();
                    }));
  vfs.AttachHandler("/mnt/help/trace", std::make_shared<SnapshotHandler>([] {
                      return obs::Tracer::Global().RenderText();
                    }));
  vfs.AttachHandler("/mnt/help/tracectl", std::make_shared<TraceCtlHandler>());
  vfs.AttachHandler("/mnt/help/statsctl",
                    std::make_shared<StatsCtlHandler>(&h->ninep()));
  // The network introspection tree. None of these are Serialized: the whole
  // point of /mnt/help/net is to stay readable while dispatch is wedged, and
  // NetState/ConnInfo/FlightRecorder never touch the dispatch lock.
  vfs.MkdirAll("/mnt/help/net");
  vfs.AttachHandler("/mnt/help/net/clients",
                    std::make_shared<SnapshotHandler>(
                        [h] { return h->ninep().net().RenderClients(); }));
  vfs.AttachHandler("/mnt/help/net/slow",
                    std::make_shared<SnapshotHandler>([h] {
                      return h->ninep().net().recorder().RenderText();
                    }));
  vfs.AttachHandler("/mnt/help/net/slowctl",
                    std::make_shared<SlowCtlHandler>(&h->ninep()));
  auto net = vfs.Walk("/mnt/help/net");
  if (net.ok()) {
    net.value()->set_dir_synth(
        std::make_shared<NetDirSynth>(&h->ninep(), net.value().get()));
  }
}

// --- Help member functions that form the file-server surface ----------------

void Help::RegisterWindowFiles(Window* w) {
  std::string dir = StrFormat("/mnt/help/%d", w->id());
  using K = WindowFileHandler::Kind;
  for (auto [name, kind] : {std::pair{"tag", K::kTag}, std::pair{"body", K::kBody},
                            std::pair{"bodyapp", K::kBodyApp},
                            std::pair{"ctl", K::kCtl}}) {
    vfs_.AttachHandler(dir + "/" + name,
                       Serialized(this, std::make_shared<WindowFileHandler>(
                                            this, w->id(), kind)));
  }
}

void Help::UnregisterWindowFiles(Window* w) {
  std::string dir = StrFormat("/mnt/help/%d", w->id());
  for (const char* f : {"tag", "body", "bodyapp", "ctl"}) {
    vfs_.Remove(dir + "/" + f);
  }
  vfs_.Remove(dir);
}

namespace {

// Byte-level patch of a Text (program writes arrive as bytes). Writes that
// land exactly at the end — the overwhelmingly common shape: loggers and
// typescript-style clients stream sequential writes — append incrementally
// instead of re-encoding and re-decoding the whole document. Stored text is
// always whole runes, so an append can never complete a partial encoding
// left by earlier bytes; decoding the new data alone is byte-equivalent to
// the rewrite path.
void PatchText(Text* t, uint64_t offset, std::string_view data, bool truncate) {
  if (!truncate && offset == t->Utf8Bytes()) {
    t->InsertNoUndo(t->size(), RunesFromUtf8(data));
    return;
  }
  std::string cur = truncate ? std::string() : t->Utf8();
  if (offset > cur.size()) {
    cur.resize(offset, ' ');
  }
  if (offset + data.size() >= cur.size()) {
    cur.resize(offset + data.size());
  }
  cur.replace(static_cast<size_t>(offset), data.size(), data);
  bool was_dirty = t->dirty();
  t->SetAll(cur);
  t->set_dirty(was_dirty);
}

}  // namespace

Status Help::SetBodyBytes(Window* w, uint64_t offset, std::string_view data,
                          bool truncate) {
  PatchText(w->body().text.get(), offset, data, truncate);
  TouchBody(w);
  return Status::Ok();
}

Status Help::AppendBody(Window* w, std::string_view data) {
  Text& t = *w->body().text;
  t.InsertNoUndo(t.size(), RunesFromUtf8(data));
  TouchBody(w);
  return Status::Ok();
}

Status Help::SetTagBytes(Window* w, uint64_t offset, std::string_view data, bool truncate) {
  PatchText(w->tag().text.get(), offset, data, truncate);
  w->tag().Relayout();
  return Status::Ok();
}

Status Help::HandleCtl(Window* w, std::string_view commands) {
  for (const std::string& line : Split(commands, '\n')) {
    std::string_view trimmed = TrimSpace(line);
    if (trimmed.empty()) {
      continue;
    }
    std::vector<std::string> words = Tokenize(trimmed);
    const std::string& cmd = words[0];
    if (cmd == "tag") {
      size_t pos = trimmed.find("tag");
      std::string text(TrimSpace(trimmed.substr(pos + 3)));
      w->tag().text->SetAll(text);
      w->tag().Relayout();
    } else if (cmd == "show") {
      if (words.size() < 2) {
        return Status::Error("ctl: show needs an address");
      }
      int col = page_->ColumnOf(w);
      if (col >= 0) {
        page_->col(col).MakeVisible(w);
      }
      SelectAddress(w, words[1]);
    } else if (cmd == "select") {
      if (words.size() < 3) {
        return Status::Error("ctl: select needs q0 q1");
      }
      long q0 = ParseInt(words[1]);
      long q1 = ParseInt(words[2]);
      if (q0 < 0 || q1 < 0) {
        return Status::Error("ctl: bad select offsets");
      }
      size_t n = w->body().text->size();
      Selection sel{static_cast<size_t>(q0), static_cast<size_t>(q1)};
      sel.q0 = std::min(sel.q0, n);
      sel.q1 = std::min(std::max(sel.q1, sel.q0), n);
      w->body().sel = sel;
      current_ = &w->body();
      w->body().ShowOffset(sel.q0);
    } else if (cmd == "insert") {
      if (words.size() < 2) {
        return Status::Error("ctl: insert needs an offset");
      }
      long q = ParseInt(words[1]);
      if (q < 0) {
        return Status::Error("ctl: bad insert offset");
      }
      // The text is everything after the offset word, untrimmed (trailing
      // spaces are part of the payload).
      std::string_view raw = line;
      size_t text_at = raw.find(words[1], raw.find("insert") + 6) + words[1].size();
      std::string_view text = raw.substr(std::min(raw.size(), text_at));
      if (!text.empty() && text[0] == ' ') {
        text.remove_prefix(1);
      }
      Text& t = *w->body().text;
      t.InsertNoUndo(std::min(static_cast<size_t>(q), t.size()), RunesFromUtf8(text));
      TouchBody(w);
    } else if (cmd == "delete") {
      if (words.size() < 3) {
        return Status::Error("ctl: delete needs q0 q1");
      }
      long q0 = ParseInt(words[1]);
      long q1 = ParseInt(words[2]);
      if (q0 < 0 || q1 < q0) {
        return Status::Error("ctl: bad delete range");
      }
      w->body().text->DeleteNoUndo(static_cast<size_t>(q0), static_cast<size_t>(q1 - q0));
      TouchBody(w);
    } else if (cmd == "clean") {
      w->body().text->set_dirty(false);
      UpdateDirtyTag(w);
    } else {
      return Status::Error("ctl: unknown message '" + cmd + "'");
    }
  }
  return Status::Ok();
}

}  // namespace help
