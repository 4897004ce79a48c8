#include "src/fs/ninep.h"

#include <algorithm>
#include <cassert>

#include "src/base/strings.h"
#include "src/fs/lockorder.h"

namespace help {

namespace {

// --- Little-endian packing helpers ------------------------------------------

void PutU8(std::string* out, uint8_t v) { out->push_back(static_cast<char>(v)); }
void PutU16(std::string* out, uint16_t v) {
  PutU8(out, v & 0xFF);
  PutU8(out, v >> 8);
}
void PutU32(std::string* out, uint32_t v) {
  PutU16(out, v & 0xFFFF);
  PutU16(out, v >> 16);
}
void PutU64(std::string* out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v));
  PutU32(out, static_cast<uint32_t>(v >> 32));
}
void PutStr(std::string* out, std::string_view s) {
  PutU16(out, static_cast<uint16_t>(s.size()));
  out->append(s);
}
void PutQid(std::string* out, const Qid& q) {
  PutU8(out, q.dir ? 0x80 : 0x00);
  PutU32(out, q.vers);
  PutU64(out, q.path);
}

class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == data_.size(); }

  uint8_t U8() {
    if (pos_ + 1 > data_.size()) {
      ok_ = false;
      return 0;
    }
    return static_cast<uint8_t>(data_[pos_++]);
  }
  uint16_t U16() {
    uint16_t lo = U8();
    uint16_t hi = U8();
    return static_cast<uint16_t>(lo | (hi << 8));
  }
  uint32_t U32() {
    uint32_t lo = U16();
    uint32_t hi = U16();
    return lo | (hi << 16);
  }
  uint64_t U64() {
    uint64_t lo = U32();
    uint64_t hi = U32();
    return lo | (hi << 32);
  }
  std::string Str() {
    uint16_t n = U16();
    if (pos_ + n > data_.size()) {
      ok_ = false;
      return {};
    }
    std::string s(data_.substr(pos_, n));
    pos_ += n;
    return s;
  }
  std::string Bytes(uint32_t n) {
    if (pos_ + n > data_.size()) {
      ok_ = false;
      return {};
    }
    std::string s(data_.substr(pos_, n));
    pos_ += n;
    return s;
  }
  Qid ReadQid() {
    Qid q;
    uint8_t t = U8();
    q.dir = (t & 0x80) != 0;
    q.vers = U32();
    q.path = U64();
    return q;
  }

 private:
  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace

std::string EncodeFcall(const Fcall& f) {
  // One string per message: a size placeholder, the fields, then the size
  // patched in. A payload sizes it up front (23 bytes is Twrite's header,
  // the longest before data), so an Rread allocates once; a message without
  // one may stay in the string's inline buffer.
  std::string out;
  if (!f.data.empty()) {
    out.reserve(23 + f.data.size());
  }
  PutU32(&out, 0);
  PutU8(&out, static_cast<uint8_t>(f.type));
  PutU16(&out, f.tag);
  switch (f.type) {
    case MsgType::kTversion:
    case MsgType::kRversion:
      PutU32(&out, f.msize);
      PutStr(&out, f.version);
      break;
    case MsgType::kTattach:
      PutU32(&out, f.fid);
      PutStr(&out, f.uname);
      PutStr(&out, f.aname);
      break;
    case MsgType::kRattach:
      PutQid(&out, f.qid);
      break;
    case MsgType::kRerror:
      PutStr(&out, f.ename);
      break;
    case MsgType::kTflush:
      PutU16(&out, f.oldtag);
      break;
    case MsgType::kRflush:
      break;
    case MsgType::kTwalk:
      PutU32(&out, f.fid);
      PutU32(&out, f.newfid);
      PutU16(&out, static_cast<uint16_t>(f.wname.size()));
      for (const std::string& n : f.wname) {
        PutStr(&out, n);
      }
      break;
    case MsgType::kRwalk:
      PutU16(&out, static_cast<uint16_t>(f.wqid.size()));
      for (const Qid& q : f.wqid) {
        PutQid(&out, q);
      }
      break;
    case MsgType::kTopen:
      PutU32(&out, f.fid);
      PutU8(&out, f.mode);
      break;
    case MsgType::kRopen:
    case MsgType::kRcreate:
      PutQid(&out, f.qid);
      PutU32(&out, f.iounit);
      break;
    case MsgType::kTcreate:
      PutU32(&out, f.fid);
      PutStr(&out, f.name);
      PutU32(&out, f.perm);
      PutU8(&out, f.mode);
      break;
    case MsgType::kTread:
      PutU32(&out, f.fid);
      PutU64(&out, f.offset);
      PutU32(&out, f.count);
      break;
    case MsgType::kRread:
      PutU32(&out, static_cast<uint32_t>(f.data.size()));
      out.append(f.data);
      break;
    case MsgType::kTwrite:
      PutU32(&out, f.fid);
      PutU64(&out, f.offset);
      PutU32(&out, static_cast<uint32_t>(f.data.size()));
      out.append(f.data);
      break;
    case MsgType::kRwrite:
      PutU32(&out, f.count);
      break;
    case MsgType::kTclunk:
    case MsgType::kTremove:
    case MsgType::kTstat:
      PutU32(&out, f.fid);
      break;
    case MsgType::kRclunk:
    case MsgType::kRremove:
      break;
    case MsgType::kRstat: {
      std::string st = EncodeDirEntry(f.stat);
      PutU16(&out, static_cast<uint16_t>(st.size()));
      out.append(st);
      break;
    }
  }
  const auto size = static_cast<uint32_t>(out.size());
  for (int i = 0; i < 4; i++) {
    out[static_cast<size_t>(i)] = static_cast<char>(size >> (8 * i));
  }
  return out;
}

Result<Fcall> DecodeFcall(std::string_view bytes) {
  Reader r(bytes);
  uint32_t size = r.U32();
  if (!r.ok() || size != bytes.size()) {
    return Status::Error("ninep: bad message size");
  }
  Fcall f;
  f.type = static_cast<MsgType>(r.U8());
  f.tag = r.U16();
  switch (f.type) {
    case MsgType::kTversion:
    case MsgType::kRversion:
      f.msize = r.U32();
      f.version = r.Str();
      break;
    case MsgType::kTattach:
      f.fid = r.U32();
      f.uname = r.Str();
      f.aname = r.Str();
      break;
    case MsgType::kRattach:
      f.qid = r.ReadQid();
      break;
    case MsgType::kRerror:
      f.ename = r.Str();
      break;
    case MsgType::kTflush:
      f.oldtag = r.U16();
      break;
    case MsgType::kRflush:
      break;
    case MsgType::kTwalk: {
      f.fid = r.U32();
      f.newfid = r.U32();
      uint16_t n = r.U16();
      for (uint16_t i = 0; i < n; i++) {
        f.wname.push_back(r.Str());
      }
      break;
    }
    case MsgType::kRwalk: {
      uint16_t n = r.U16();
      for (uint16_t i = 0; i < n; i++) {
        f.wqid.push_back(r.ReadQid());
      }
      break;
    }
    case MsgType::kTopen:
      f.fid = r.U32();
      f.mode = r.U8();
      break;
    case MsgType::kRopen:
    case MsgType::kRcreate:
      f.qid = r.ReadQid();
      f.iounit = r.U32();
      break;
    case MsgType::kTcreate:
      f.fid = r.U32();
      f.name = r.Str();
      f.perm = r.U32();
      f.mode = r.U8();
      break;
    case MsgType::kTread:
      f.fid = r.U32();
      f.offset = r.U64();
      f.count = r.U32();
      break;
    case MsgType::kRread: {
      uint32_t n = r.U32();
      f.data = r.Bytes(n);
      break;
    }
    case MsgType::kTwrite: {
      f.fid = r.U32();
      f.offset = r.U64();
      uint32_t n = r.U32();
      f.data = r.Bytes(n);
      break;
    }
    case MsgType::kRwrite:
      f.count = r.U32();
      break;
    case MsgType::kTclunk:
    case MsgType::kTremove:
    case MsgType::kTstat:
      f.fid = r.U32();
      break;
    case MsgType::kRclunk:
    case MsgType::kRremove:
      break;
    case MsgType::kRstat: {
      uint16_t n = r.U16();
      std::string blob = r.Bytes(n);
      auto entries = DecodeDirEntries(blob);
      if (!entries.ok() || entries.value().size() != 1) {
        return Status::Error("ninep: bad stat payload");
      }
      f.stat = entries.value()[0];
      break;
    }
    default:
      return Status::Error("ninep: unknown message type");
  }
  if (!r.ok() || !r.AtEnd()) {
    return Status::Error("ninep: truncated or overlong message");
  }
  return f;
}

std::string EncodeDirEntry(const StatInfo& s) {
  std::string out;
  PutQid(&out, s.qid);
  PutU64(&out, s.length);
  PutU64(&out, s.mtime);
  PutU8(&out, s.dir ? 1 : 0);
  PutStr(&out, s.name);
  return out;
}

Result<std::vector<StatInfo>> DecodeDirEntries(std::string_view data) {
  Reader r(data);
  std::vector<StatInfo> out;
  while (!r.AtEnd()) {
    StatInfo s;
    s.qid = r.ReadQid();
    s.length = r.U64();
    s.mtime = r.U64();
    s.dir = r.U8() != 0;
    s.name = r.Str();
    if (!r.ok()) {
      return Status::Error("ninep: bad directory entry");
    }
    out.push_back(std::move(s));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Session.

Fcall ErrorFcall(uint16_t tag, std::string_view msg) {
  Fcall r;
  r.type = MsgType::kRerror;
  r.tag = tag;
  r.ename = std::string(msg);
  return r;
}

namespace {
Fcall Error(uint16_t tag, std::string_view msg) { return ErrorFcall(tag, msg); }
}  // namespace

bool Session::BeginTag(uint16_t tag) {
  if (tag == kNoTag) {
    return true;  // kNoTag is never tracked (Tversion convention)
  }
  std::lock_guard<std::mutex> lk(tag_mu_);
  LockOrderScope lo(kLockLevelLeaf);
  return inflight_.insert(tag).second;
}

void Session::EndTag(uint16_t tag) {
  std::lock_guard<std::mutex> lk(tag_mu_);
  LockOrderScope lo(kLockLevelLeaf);
  inflight_.erase(tag);
  flushed_.erase(tag);
}

bool Session::TagInFlight(uint16_t tag) const {
  std::lock_guard<std::mutex> lk(tag_mu_);
  LockOrderScope lo(kLockLevelLeaf);
  return inflight_.count(tag) != 0;
}

bool Session::FlushTag(uint16_t oldtag) {
  std::lock_guard<std::mutex> lk(tag_mu_);
  LockOrderScope lo(kLockLevelLeaf);
  if (inflight_.count(oldtag) == 0) {
    return false;  // already completed (or never sent): flush is a no-op
  }
  flushed_.insert(oldtag);
  return true;
}

bool Session::ConsumeFlushed(uint16_t tag) {
  std::lock_guard<std::mutex> lk(tag_mu_);
  LockOrderScope lo(kLockLevelLeaf);
  return flushed_.erase(tag) != 0;
}

size_t Session::open_fids() const {
  std::lock_guard<std::mutex> lk(fid_mu_);
  LockOrderScope lo(kLockLevelLeaf);
  return fids_.size();
}

Session::FidState* Session::FindFid(uint32_t fid) {
  std::lock_guard<std::mutex> lk(fid_mu_);
  LockOrderScope lo(kLockLevelLeaf);
  auto it = fids_.find(fid);
  return it == fids_.end() ? nullptr : &it->second;
}

// fid_mu_ discipline inside Dispatch: the map structure is only touched
// under fid_mu_, and fid_mu_ is never held across a Vfs or handler call
// (those can re-enter the server's dispatch lock). Per-fid state (node,
// open, dirbuf) needs no lock: dispatches never overlap.
Fcall Session::Dispatch(const Fcall& t) {
  Fcall r;
  r.tag = t.tag;
  switch (t.type) {
    case MsgType::kTversion: {
      r.type = MsgType::kRversion;
      msize_.store(std::min(std::max(t.msize, kIoHeader + 1), kDefaultMsize),
                   std::memory_order_relaxed);
      r.msize = msize();
      r.version = "9P.help";
      std::map<uint32_t, FidState> doomed;  // version resets the session
      {
        std::lock_guard<std::mutex> lk(fid_mu_);
        LockOrderScope lo(kLockLevelLeaf);
        doomed.swap(fids_);
      }
      attached_ = false;
      // doomed's open files are destroyed on return, after fid_mu_ dropped:
      // their handler Clunks may re-enter the dispatch lock.
      return r;
    }

    case MsgType::kTflush:
      // Normally answered by the server front end without entering the
      // serialized dispatch path; kept here so a bare Session is complete.
      r.type = MsgType::kRflush;
      return r;

    case MsgType::kTattach: {
      std::lock_guard<std::mutex> lk(fid_mu_);
      LockOrderScope lo(kLockLevelLeaf);
      if (fids_.count(t.fid) != 0) {
        return Error(t.tag, "fid in use");
      }
      FidState st;
      st.node = vfs_->root();
      fids_[t.fid] = st;
      attached_ = true;
      uname_ = t.uname;
      r.type = MsgType::kRattach;
      r.qid = vfs_->root()->qid();
      return r;
    }

    case MsgType::kTwalk: {
      // When newfid == fid the walk rebinds the fid; the old state (possibly
      // an open file whose Clunk re-enters the dispatch lock) is moved here
      // and destroyed only after fid_mu_ drops.
      FidState replaced;
      // The whole walk runs under fid_mu_: it only reads the tree (no Vfs or
      // handler calls that could re-enter the dispatch lock).
      std::lock_guard<std::mutex> lk(fid_mu_);
      LockOrderScope lo(kLockLevelLeaf);
      auto it = fids_.find(t.fid);
      if (it == fids_.end()) {
        return Error(t.tag, "unknown fid");
      }
      if (t.newfid != t.fid && fids_.count(t.newfid) != 0) {
        return Error(t.tag, "newfid in use");
      }
      NodePtr cur = it->second.node;
      r.type = MsgType::kRwalk;
      for (const std::string& name : t.wname) {
        NodePtr next;
        if (name == "..") {
          next = cur->parent() != nullptr ? cur->parent()->shared_from_this() : cur;
        } else {
          if (!cur->dir()) {
            break;
          }
          next = cur->Child(name);
        }
        if (next == nullptr) {
          break;
        }
        cur = next;
        r.wqid.push_back(cur->qid());
      }
      if (r.wqid.size() != t.wname.size()) {
        if (r.wqid.empty() && !t.wname.empty()) {
          return Error(t.tag, t.wname[0] + ": file does not exist");
        }
        return r;  // partial walk; newfid not created
      }
      FidState st;
      st.node = cur;
      auto nit = fids_.find(t.newfid);
      if (nit != fids_.end()) {
        replaced = std::move(nit->second);  // newfid == fid: rebind
        nit->second = st;
      } else {
        fids_[t.newfid] = st;
      }
      return r;
    }

    case MsgType::kTopen: {
      FidState* st = FindFid(t.fid);
      if (st == nullptr) {
        return Error(t.tag, "unknown fid");
      }
      if (st->open != nullptr) {
        return Error(t.tag, "fid already open");
      }
      if (st->node->dir()) {
        if ((t.mode & 3) != kOread) {
          return Error(t.tag, st->node->name() + ": is a directory");
        }
      } else {
        // Vfs::Open runs the handler's Open, which may re-enter the dispatch
        // lock — so it runs outside fid_mu_.
        auto f = vfs_->Open(Vfs::FullPath(*st->node), t.mode);
        if (!f.ok()) {
          return Error(t.tag, f.message());
        }
        st->open = f.take();
      }
      r.type = MsgType::kRopen;
      r.qid = st->node->qid();
      r.iounit = msize() - kIoHeader;
      return r;
    }

    case MsgType::kTcreate: {
      FidState* st = FindFid(t.fid);
      if (st == nullptr) {
        return Error(t.tag, "unknown fid");
      }
      if (!st->node->dir()) {
        return Error(t.tag, "create in non-directory");
      }
      bool dir = (t.perm & kDirPerm) != 0;
      std::string path = JoinPath(Vfs::FullPath(*st->node), t.name);
      auto created = vfs_->Create(path, dir);
      if (!created.ok()) {
        return Error(t.tag, created.message());
      }
      st->node = created.value();
      if (!dir) {
        auto f = vfs_->Open(path, t.mode);
        if (!f.ok()) {
          return Error(t.tag, f.message());
        }
        st->open = f.take();
      }
      r.type = MsgType::kRcreate;
      r.qid = st->node->qid();
      r.iounit = msize() - kIoHeader;
      return r;
    }

    case MsgType::kTread: {
      FidState* stp = FindFid(t.fid);
      if (stp == nullptr) {
        return Error(t.tag, "unknown fid");
      }
      FidState& st = *stp;
      uint32_t count = std::min(t.count, msize() - kIoHeader);
      if (st.node->dir()) {
        if (!st.dirbuf_valid) {
          st.dirbuf.clear();
          for (const StatInfo& s : Vfs::ListDir(*st.node)) {
            st.dirbuf += EncodeDirEntry(s);
          }
          st.dirbuf_valid = true;
        }
        r.type = MsgType::kRread;
        if (t.offset < st.dirbuf.size()) {
          // Clamp to whole entries would be proper 9P; our decoder tolerates
          // any split because reads are sequential and clients reassemble.
          r.data = st.dirbuf.substr(t.offset, count);
        }
        return r;
      }
      if (st.open == nullptr) {
        return Error(t.tag, "fid not open");
      }
      auto data = st.open->Read(t.offset, count);
      if (!data.ok()) {
        return Error(t.tag, data.message());
      }
      r.type = MsgType::kRread;
      r.data = data.take();
      return r;
    }

    case MsgType::kTwrite: {
      FidState* st = FindFid(t.fid);
      if (st == nullptr) {
        return Error(t.tag, "unknown fid");
      }
      if (st->open == nullptr) {
        return Error(t.tag, "fid not open");
      }
      auto n = st->open->Write(t.offset, t.data);
      if (!n.ok()) {
        return Error(t.tag, n.message());
      }
      r.type = MsgType::kRwrite;
      r.count = n.value();
      return r;
    }

    case MsgType::kTclunk: {
      FidState doomed;
      {
        std::lock_guard<std::mutex> lk(fid_mu_);
        LockOrderScope lo(kLockLevelLeaf);
        auto it = fids_.find(t.fid);
        if (it == fids_.end()) {
          return Error(t.tag, "unknown fid");
        }
        doomed = std::move(it->second);
        fids_.erase(it);
      }
      r.type = MsgType::kRclunk;
      // doomed's open file (if any) is destroyed on return, outside fid_mu_:
      // its handler Clunk may re-enter the dispatch lock.
      return r;
    }

    case MsgType::kTremove: {
      FidState doomed;  // remove always clunks
      {
        std::lock_guard<std::mutex> lk(fid_mu_);
        LockOrderScope lo(kLockLevelLeaf);
        auto it = fids_.find(t.fid);
        if (it == fids_.end()) {
          return Error(t.tag, "unknown fid");
        }
        doomed = std::move(it->second);
        fids_.erase(it);
      }
      std::string path = Vfs::FullPath(*doomed.node);
      Status s = vfs_->Remove(path);
      if (!s.ok()) {
        return Error(t.tag, s.message());
      }
      r.type = MsgType::kRremove;
      return r;
    }

    case MsgType::kTstat: {
      const FidState* st = FindFid(t.fid);
      if (st == nullptr) {
        return Error(t.tag, "unknown fid");
      }
      r.type = MsgType::kRstat;
      r.stat = Vfs::StatOf(*st->node);
      return r;
    }

    default:
      return Error(t.tag, "ninep: not a T-message");
  }
}

// ---------------------------------------------------------------------------
// Client.

Result<Fcall> NinepClient::Rpc(Fcall t) {
  t.tag = next_tag_++;
  if (next_tag_ == kNoTag) {
    next_tag_ = 1;
  }
  rpcs_++;
  std::string reply = transport_(EncodeFcall(t));
  auto r = DecodeFcall(reply);
  if (!r.ok()) {
    return r.status();
  }
  // The reply must answer the request just issued. The in-process transport
  // echoes the tag by construction, but a socket peer can send anything —
  // accepting a stray R-message here would hand one request another's data.
  if (r.value().tag != t.tag) {
    return Status::Error(
        StrFormat("ninep: reply tag %u was never issued", r.value().tag));
  }
  if (r.value().type == MsgType::kRerror) {
    return Status::Error(r.value().ename);
  }
  return r;
}

Status NinepClient::Connect(std::string_view uname) {
  Fcall tv;
  tv.type = MsgType::kTversion;
  tv.msize = kDefaultMsize;
  tv.version = "9P.help";
  auto rv = Rpc(tv);
  if (!rv.ok()) {
    return rv.status();
  }
  Fcall ta;
  ta.type = MsgType::kTattach;
  ta.fid = 0;
  ta.uname = std::string(uname);
  auto ra = Rpc(ta);
  if (!ra.ok()) {
    return ra.status();
  }
  root_fid_ = 0;
  next_fid_ = 1;
  return Status::Ok();
}

Result<uint32_t> NinepClient::WalkFid(std::string_view path) {
  Fcall t;
  t.type = MsgType::kTwalk;
  t.fid = root_fid_;
  t.newfid = NextFid();
  t.wname = PathElements(path);
  auto r = Rpc(t);
  if (!r.ok()) {
    return r.status();
  }
  if (r.value().wqid.size() != t.wname.size()) {
    return ErrNotExist(path);
  }
  return t.newfid;
}

Status NinepClient::OpenFid(uint32_t fid, uint8_t mode) {
  Fcall t;
  t.type = MsgType::kTopen;
  t.fid = fid;
  t.mode = mode;
  return Rpc(t).status();
}

Result<std::string> NinepClient::ReadFid(uint32_t fid, uint64_t offset, uint32_t count) {
  Fcall t;
  t.type = MsgType::kTread;
  t.fid = fid;
  t.offset = offset;
  t.count = count;
  auto r = Rpc(t);
  if (!r.ok()) {
    return r.status();
  }
  return r.value().data;
}

Result<uint32_t> NinepClient::WriteFid(uint32_t fid, uint64_t offset, std::string_view data) {
  Fcall t;
  t.type = MsgType::kTwrite;
  t.fid = fid;
  t.offset = offset;
  t.data = std::string(data);
  auto r = Rpc(t);
  if (!r.ok()) {
    return r.status();
  }
  return r.value().count;
}

Status NinepClient::Clunk(uint32_t fid) {
  Fcall t;
  t.type = MsgType::kTclunk;
  t.fid = fid;
  return Rpc(t).status();
}

Status NinepClient::Flush(uint16_t oldtag) {
  Fcall t;
  t.type = MsgType::kTflush;
  t.oldtag = oldtag;
  return Rpc(t).status();
}

Result<std::vector<std::string>> NinepClient::ReadFidPipelined(
    uint32_t fid, const std::vector<ReadRange>& ranges, int window) {
  std::vector<std::string> out(ranges.size());
  if (!pipe_.send || !pipe_.recv) {
    for (size_t i = 0; i < ranges.size(); i++) {
      auto r = ReadFid(fid, ranges[i].offset, ranges[i].count);
      if (!r.ok()) {
        return r.status();
      }
      out[i] = r.take();
    }
    return out;
  }
  if (window < 1) {
    window = 1;
  }
  std::map<uint16_t, size_t> pending;  // in-flight tag -> result slot
  size_t next = 0;
  while (next < ranges.size() || !pending.empty()) {
    while (next < ranges.size() && pending.size() < static_cast<size_t>(window)) {
      Fcall t;
      t.type = MsgType::kTread;
      t.fid = fid;
      t.offset = ranges[next].offset;
      t.count = ranges[next].count;
      t.tag = next_tag_++;
      if (next_tag_ == kNoTag) {
        next_tag_ = 1;
      }
      rpcs_++;
      Status s = pipe_.send(EncodeFcall(t));
      if (!s.ok()) {
        return s;
      }
      pending[t.tag] = next++;
    }
    auto packet = pipe_.recv();
    if (!packet.ok()) {
      return packet.status();
    }
    auto rr = DecodeFcall(packet.value());
    if (!rr.ok()) {
      return rr.status();
    }
    Fcall rc = rr.take();
    auto it = pending.find(rc.tag);
    if (it == pending.end()) {
      // Same hostile-peer check as the lockstep Rpc: an unknown (or
      // double-answered) tag means the peer is off the rails.
      return Status::Error(
          StrFormat("ninep: reply tag %u was never issued", rc.tag));
    }
    size_t slot = it->second;
    pending.erase(it);
    if (rc.type == MsgType::kRerror) {
      return Status::Error(rc.ename);
    }
    if (rc.type != MsgType::kRread) {
      return Status::Error("ninep: Tread answered by a non-Rread");
    }
    out[slot] = std::move(rc.data);
  }
  return out;
}

Status NinepClient::RemoveFid(uint32_t fid) {
  Fcall t;
  t.type = MsgType::kTremove;
  t.fid = fid;
  return Rpc(t).status();
}

Result<StatInfo> NinepClient::StatFid(uint32_t fid) {
  Fcall t;
  t.type = MsgType::kTstat;
  t.fid = fid;
  auto r = Rpc(t);
  if (!r.ok()) {
    return r.status();
  }
  return r.value().stat;
}

Result<std::string> NinepClient::ReadFile(std::string_view path) {
  auto fid = WalkFid(path);
  if (!fid.ok()) {
    return fid.status();
  }
  Status s = OpenFid(fid.value(), kOread);
  if (!s.ok()) {
    Clunk(fid.value());
    return s;
  }
  std::string out;
  uint64_t off = 0;
  while (true) {
    auto chunk = ReadFid(fid.value(), off, kDefaultMsize - 24);
    if (!chunk.ok()) {
      Clunk(fid.value());
      return chunk.status();
    }
    if (chunk.value().empty()) {
      break;
    }
    off += chunk.value().size();
    out += chunk.take();
  }
  Clunk(fid.value());
  return out;
}

Status NinepClient::WriteFile(std::string_view path, std::string_view data) {
  auto fid = WalkFid(path);
  if (!fid.ok()) {
    // Create it.
    Status cs = Create(path, /*dir=*/false);
    if (!cs.ok()) {
      return cs;
    }
    fid = WalkFid(path);
    if (!fid.ok()) {
      return fid.status();
    }
  }
  Status s = OpenFid(fid.value(), kOwrite | kOtrunc);
  if (!s.ok()) {
    Clunk(fid.value());
    return s;
  }
  uint64_t off = 0;
  while (off < data.size()) {
    uint32_t n = static_cast<uint32_t>(
        std::min<uint64_t>(data.size() - off, kDefaultMsize - 24));
    auto w = WriteFid(fid.value(), off, data.substr(off, n));
    if (!w.ok()) {
      Clunk(fid.value());
      return w.status();
    }
    off += w.value();
  }
  return Clunk(fid.value());
}

Status NinepClient::AppendFile(std::string_view path, std::string_view data) {
  auto fid = WalkFid(path);
  if (!fid.ok()) {
    return WriteFile(path, data);
  }
  auto st = StatFid(fid.value());
  if (!st.ok()) {
    Clunk(fid.value());
    return st.status();
  }
  Status s = OpenFid(fid.value(), kOwrite);
  if (!s.ok()) {
    Clunk(fid.value());
    return s;
  }
  auto w = WriteFid(fid.value(), st.value().length, data);
  Status ws = w.status();
  Status cs = Clunk(fid.value());
  return ws.ok() ? cs : ws;
}

Result<std::vector<StatInfo>> NinepClient::ReadDir(std::string_view path) {
  auto fid = WalkFid(path);
  if (!fid.ok()) {
    return fid.status();
  }
  Status s = OpenFid(fid.value(), kOread);
  if (!s.ok()) {
    Clunk(fid.value());
    return s;
  }
  std::string blob;
  uint64_t off = 0;
  while (true) {
    auto chunk = ReadFid(fid.value(), off, kDefaultMsize - 24);
    if (!chunk.ok()) {
      Clunk(fid.value());
      return chunk.status();
    }
    if (chunk.value().empty()) {
      break;
    }
    off += chunk.value().size();
    blob += chunk.take();
  }
  Clunk(fid.value());
  return DecodeDirEntries(blob);
}

Status NinepClient::Create(std::string_view path, bool dir) {
  auto fid = WalkFid(DirPath(path));
  if (!fid.ok()) {
    return fid.status();
  }
  Fcall t;
  t.type = MsgType::kTcreate;
  t.fid = fid.value();
  t.name = BasePath(path);
  t.perm = dir ? kDirPerm : 0;
  t.mode = dir ? kOread : kOwrite;
  auto r = Rpc(t);
  Status rs = r.status();
  Status cs = Clunk(fid.value());
  return rs.ok() ? cs : rs;
}

Status NinepClient::Remove(std::string_view path) {
  auto fid = WalkFid(path);
  if (!fid.ok()) {
    return fid.status();
  }
  return RemoveFid(fid.value());
}

Result<StatInfo> NinepClient::Stat(std::string_view path) {
  auto fid = WalkFid(path);
  if (!fid.ok()) {
    return fid.status();
  }
  auto st = StatFid(fid.value());
  Clunk(fid.value());
  return st;
}

}  // namespace help
