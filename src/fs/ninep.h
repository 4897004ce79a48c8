// A 9P-style file protocol. Help "provides its client processes access to
// its structure by presenting a file service"; this module is the wire level
// of that service. Messages are length-prefixed little-endian packets —
// T-messages from clients, R-messages from the server — covering version,
// attach, flush, walk, open, create, read, write, clunk, remove, and stat,
// with Rerror carrying Plan 9-style error strings.
//
// The transport is pluggable; tests and examples use the in-process byte
// transport, which still exercises the full encode → dispatch → decode path.
//
// Concurrency model (DESIGN.md §8):
//   * This header holds the codec, the per-connection Session, and the
//     synchronous NinepClient. The multi-client front end lives in
//     src/fs/server.h (NinepServer).
//   * A Session owns one connection's protocol state: its fid table, its
//     negotiated msize, and its attach identity. N clients each hold an
//     independent Session against the same Vfs tree, so fid 7 in one
//     session and fid 7 in another never collide.
//   * A session has one driver at a time: the listener runs a connection's
//     frames in arrival order, and an in-process transport has one caller.
//     NinepServer runs every Session::Dispatch under its one dispatch lock,
//     and the fid table is touched only there. The fid count and msize are
//     also kept in atomics, for the /mnt/help/net files that read them
//     without the lock.
//   * Tflush is answered Rflush in order, like any request. On a serial
//     session the request it names has already been answered, so it cancels
//     nothing, which 9P allows.
#ifndef SRC_FS_NINEP_H_
#define SRC_FS_NINEP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/fs/vfs.h"

namespace help {

enum class MsgType : uint8_t {
  kTversion = 100,
  kRversion = 101,
  kTattach = 104,
  kRattach = 105,
  kRerror = 107,
  kTflush = 108,
  kRflush = 109,
  kTwalk = 110,
  kRwalk = 111,
  kTopen = 112,
  kRopen = 113,
  kTcreate = 114,
  kRcreate = 115,
  kTread = 116,
  kRread = 117,
  kTwrite = 118,
  kRwrite = 119,
  kTclunk = 120,
  kRclunk = 121,
  kTremove = 122,
  kRremove = 123,
  kTstat = 124,
  kRstat = 125,
};

inline constexpr uint16_t kNoTag = 0xFFFF;
inline constexpr uint32_t kNoFid = 0xFFFFFFFF;
inline constexpr uint32_t kDefaultMsize = 64 * 1024;
// Per-message overhead reserved out of msize for read/write payloads.
inline constexpr uint32_t kIoHeader = 24;

// One protocol message, T or R; unused fields are ignored per type.
struct Fcall {
  MsgType type = MsgType::kRerror;
  uint16_t tag = kNoTag;
  uint32_t fid = kNoFid;
  uint32_t newfid = kNoFid;   // Twalk
  uint16_t oldtag = kNoTag;   // Tflush
  uint32_t msize = 0;         // Tversion/Rversion
  std::string version;        // Tversion/Rversion
  std::string uname;          // Tattach
  std::string aname;          // Tattach
  std::vector<std::string> wname;  // Twalk
  std::vector<Qid> wqid;           // Rwalk
  Qid qid;                    // Rattach/Ropen/Rcreate
  uint8_t mode = 0;           // Topen/Tcreate
  std::string name;           // Tcreate
  uint32_t perm = 0;          // Tcreate (bit 31 = directory)
  uint64_t offset = 0;        // Tread/Twrite
  uint32_t count = 0;         // Tread/Rwrite
  std::string data;           // Rread/Twrite
  uint32_t iounit = 0;        // Ropen/Rcreate
  StatInfo stat;              // Rstat
  std::string ename;          // Rerror
};

inline constexpr uint32_t kDirPerm = 0x80000000;  // Tcreate perm bit for directories

// Serializes `f` into one complete packet (including the leading size
// field). Every reply the server sends is built here, Rread included: one
// string, with the payload appended once after the header.
std::string EncodeFcall(const Fcall& f);

// Parses one packet. `bytes` must contain exactly one complete message.
Result<Fcall> DecodeFcall(std::string_view bytes);

// Directory payloads in Rread: a sequence of encoded stat entries.
std::string EncodeDirEntry(const StatInfo& s);
Result<std::vector<StatInfo>> DecodeDirEntries(std::string_view data);

// Makes an Rerror reply for `tag`.
Fcall ErrorFcall(uint16_t tag, std::string_view msg);

// ---------------------------------------------------------------------------

// One client connection's protocol state: fid table, negotiated msize and
// auth/attach identity. NinepServer runs Dispatch under its dispatch lock.
class Session {
 public:
  Session(Vfs* vfs, uint64_t id) : vfs_(vfs), id_(id) {}

  // Handles one T-message. Callers must hold the server's dispatch lock.
  Fcall Dispatch(const Fcall& t);

  uint64_t id() const { return id_; }
  // Relaxed loads: read by /mnt/help/net status handlers on other threads
  // while a dispatch may be changing them. Any stale value is a value the
  // session legitimately had.
  uint32_t msize() const { return msize_.load(std::memory_order_relaxed); }
  size_t open_fids() const { return fid_count_.load(std::memory_order_relaxed); }
  bool attached() const { return attached_; }
  const std::string& uname() const { return uname_; }

 private:
  struct FidState {
    NodePtr node;
    OpenFilePtr open;
    std::string dirbuf;  // snapshot of directory listing for reads
    bool dirbuf_valid = false;
  };

  FidState* FindFid(uint32_t fid);
  // Publishes fids_.size() to open_fids(); called wherever fids_ grows or
  // shrinks.
  void CountFids() { fid_count_.store(fids_.size(), std::memory_order_relaxed); }

  Vfs* vfs_;
  uint64_t id_;
  std::string uname_;
  bool attached_ = false;
  std::map<uint32_t, FidState> fids_;
  std::atomic<size_t> fid_count_{0};
  std::atomic<uint32_t> msize_{kDefaultMsize};
};

// ---------------------------------------------------------------------------

// Client API over a byte transport (typically a NinepServer session; see
// server.h for the convenience constructor wiring).
class NinepClient {
 public:
  using Transport = std::function<std::string(std::string_view)>;

  // Pipelined half of a full-duplex transport: send one framed T-message
  // without waiting for its reply, receive the next complete R-message
  // (whichever request it answers). The lockstep Transport cannot express N
  // requests in flight; socket transports provide this pair
  // (SocketTransport::AsPipeIo).
  struct PipeIo {
    std::function<Status(std::string_view)> send;
    std::function<Result<std::string>()> recv;
  };

  explicit NinepClient(Transport transport) : transport_(std::move(transport)) {}

  Status Connect(std::string_view uname = "user");

  // Enables pipelined helpers; without it they fall back to lockstep RPCs.
  void set_pipe_io(PipeIo io) { pipe_ = std::move(io); }

  // Low-level operations; fids are allocated by the client.
  Result<uint32_t> WalkFid(std::string_view path);           // returns new fid
  Status OpenFid(uint32_t fid, uint8_t mode);
  Result<std::string> ReadFid(uint32_t fid, uint64_t offset, uint32_t count);
  Result<uint32_t> WriteFid(uint32_t fid, uint64_t offset, std::string_view data);
  Status Clunk(uint32_t fid);
  Status RemoveFid(uint32_t fid);
  Result<StatInfo> StatFid(uint32_t fid);
  // Sends Tflush(oldtag). The server answers a session's requests in
  // order, so the request it names has already been answered and the flush
  // cancels nothing.
  Status Flush(uint16_t oldtag);

  // Issues one Tread per range on `fid`, keeping up to `window` requests in
  // flight, and returns the replies in issue order. Replies are matched by
  // tag, so the helper does not depend on the server answering in order; a
  // reply carrying a tag that was never issued (or already answered) fails
  // the whole call, the same hostile-peer check the lockstep Rpc applies.
  // Without PipeIo, degrades to sequential ReadFid.
  struct ReadRange {
    uint64_t offset = 0;
    uint32_t count = 0;
  };
  Result<std::vector<std::string>> ReadFidPipelined(
      uint32_t fid, const std::vector<ReadRange>& ranges, int window = 8);

  // High-level conveniences (walk + open + transfer + clunk).
  Result<std::string> ReadFile(std::string_view path);
  Status WriteFile(std::string_view path, std::string_view data);
  Status AppendFile(std::string_view path, std::string_view data);
  Result<std::vector<StatInfo>> ReadDir(std::string_view path);
  Status Create(std::string_view path, bool dir);
  Status Remove(std::string_view path);
  Result<StatInfo> Stat(std::string_view path);

  uint64_t rpcs() const { return rpcs_; }

 private:
  Result<Fcall> Rpc(Fcall t);
  uint32_t NextFid() { return next_fid_++; }

  Transport transport_;
  PipeIo pipe_;
  uint32_t root_fid_ = kNoFid;
  uint32_t next_fid_ = 1;
  uint16_t next_tag_ = 1;
  uint64_t rpcs_ = 0;
};

}  // namespace help

#endif  // SRC_FS_NINEP_H_
