// The in-memory virtual file system: the Plan 9 namespace that substitutes
// for the paper's kernel. Regular files hold bytes; synthetic files delegate
// to a FileHandler, which is how help's /mnt/help window interface (and the
// simulated /proc) are implemented — "the standard currency in Plan 9: files
// and file servers".
//
// The VFS is the single source of truth. The shell's coreutils call it
// directly; external clients go through the 9P-style protocol in ninep.h,
// which serves this same tree.
//
// Threading: the VFS carries no locks of its own — nodes, handlers, and the
// clock are unsynchronized. A Vfs is served by exactly one NinepServer
// (src/fs/server.h; Help::ninep() for Help's tree), which runs every
// tree-touching dispatch under its dispatch lock, so concurrent 9P clients
// are safe. Anything else that shares a Vfs with a live NinepServer must
// serialize through that server's LockDispatch().
#ifndef SRC_FS_VFS_H_
#define SRC_FS_VFS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/clock.h"
#include "src/base/status.h"
#include "src/fs/path.h"

namespace help {

// Open modes (values match Plan 9's so protocol encoding is natural).
enum OpenMode : uint8_t {
  kOread = 0,
  kOwrite = 1,
  kOrdwr = 2,
  kOtrunc = 0x10,  // or'ed in
};

struct Qid {
  uint64_t path = 0;  // unique id
  uint32_t vers = 0;  // bumped on modification
  bool dir = false;
};

struct StatInfo {
  std::string name;
  Qid qid;
  uint64_t length = 0;
  uint64_t mtime = 0;
  bool dir = false;
};

class Node;
using NodePtr = std::shared_ptr<Node>;

class OpenFile;

// Behaviour hook for synthetic files. One handler instance may serve many
// nodes; per-open state lives in the OpenFile. Handlers receive the OpenFile
// so that e.g. /mnt/help/new/ctl can create a window at Open time and answer
// subsequent reads with the new window's name.
class FileHandler {
 public:
  virtual ~FileHandler() = default;
  // Called when a client opens the file. Default: accept.
  virtual Status Open(OpenFile& f, uint8_t mode) { return Status::Ok(); }
  // Read up to `count` bytes at `offset`.
  virtual Result<std::string> Read(OpenFile& f, uint64_t offset, uint32_t count) = 0;
  // Write `data` at `offset`; returns bytes accepted.
  virtual Result<uint32_t> Write(OpenFile& f, uint64_t offset, std::string_view data) = 0;
  // Called when the last reference to the open file goes away.
  virtual void Clunk(OpenFile& f) {}
  // Length reported by stat (synthetic files often report 0).
  virtual uint64_t Length(const Node& n) const { return 0; }
};

// Synthesizes a directory's children on demand — the Plan 9 /net and /proc
// idiom, where a listing reflects live objects (one numbered directory per
// connection) instead of nodes something had to create and destroy. A
// directory with a DirSynth answers Child() and ListDir() from the synth
// after its static children. Lookups run under the 9P dispatch lock and
// from the UI thread, so implementations must be internally thread-safe and
// must never acquire the dispatch lock.
class DirSynth {
 public:
  virtual ~DirSynth() = default;
  // Resolves one name; nullptr when it doesn't (or no longer) exists.
  virtual NodePtr Lookup(std::string_view name) = 0;
  // All currently live synthesized children.
  virtual std::vector<NodePtr> List() = 0;
};

class Node : public std::enable_shared_from_this<Node> {
 public:
  Node(std::string name, bool dir, uint64_t qid_path);

  const std::string& name() const { return name_; }
  bool dir() const { return qid_.dir; }
  // vers and mtime are stored in relaxed atomics: a stat through the Vfs
  // from outside the dispatch lock may read them while a dispatch Touches
  // the node, and such readers only need *a* consistent value, not
  // ordering. qid() therefore returns by value.
  Qid qid() const {
    Qid q = qid_;
    q.vers = vers_.load(std::memory_order_relaxed);
    return q;
  }
  uint64_t mtime() const { return mtime_.load(std::memory_order_relaxed); }
  void set_mtime(uint64_t t) { mtime_.store(t, std::memory_order_relaxed); }
  void Touch(uint64_t t) {
    mtime_.store(t, std::memory_order_relaxed);
    vers_.fetch_add(1, std::memory_order_relaxed);
  }

  // Regular file payload (ignored when handler_ is set).
  std::string& data() { return data_; }
  const std::string& data() const { return data_; }

  FileHandler* handler() const { return handler_.get(); }
  void set_handler(std::shared_ptr<FileHandler> h) { handler_ = std::move(h); }

  // Directory contents, sorted by name (help lists directories in order)
  // and found by view. Child() and Vfs::ListDir also consult the DirSynth,
  // if one is set; children() is the static map only.
  using Children = std::map<std::string, NodePtr, std::less<>>;
  const Children& children() const { return children_; }
  NodePtr Child(std::string_view name) const;
  void AddChild(NodePtr child);
  void RemoveChild(std::string_view name);
  Node* parent() const { return parent_; }
  // For synthesized subtrees: gives a node built outside AddChild a parent so
  // FullPath resolves. The parent must outlive the child.
  void set_parent(Node* p) { parent_ = p; }

  DirSynth* dir_synth() const { return dir_synth_.get(); }
  void set_dir_synth(std::shared_ptr<DirSynth> s) { dir_synth_ = std::move(s); }

  uint64_t length() const;

 private:
  std::string name_;
  Qid qid_;  // vers_ is authoritative for qid_.vers; qid_ holds path/dir
  std::atomic<uint32_t> vers_{0};
  std::atomic<uint64_t> mtime_{0};
  std::string data_;
  std::shared_ptr<FileHandler> handler_;
  std::shared_ptr<DirSynth> dir_synth_;
  Children children_;
  Node* parent_ = nullptr;
};

// An open-file session: node + mode + per-open handler state.
class OpenFile {
 public:
  OpenFile(NodePtr node, uint8_t mode, Clock* clock)
      : node_(std::move(node)), mode_(mode), clock_(clock) {}
  ~OpenFile();

  Result<std::string> Read(uint64_t offset, uint32_t count);
  Result<uint32_t> Write(uint64_t offset, std::string_view data);

  Node& node() { return *node_; }
  const NodePtr& node_ptr() const { return node_; }
  uint8_t mode() const { return mode_; }

  // Opaque per-open state for handlers.
  std::string state;
  int64_t state_int = 0;

 private:
  NodePtr node_;
  uint8_t mode_;
  Clock* clock_;
};

using OpenFilePtr = std::shared_ptr<OpenFile>;

class Vfs {
 public:
  Vfs();

  Clock* clock() { return &clock_; }
  const NodePtr& root() const { return root_; }

  // Process-unique instance id. Qid paths and the logical clock are both
  // per-instance and deterministic, so two namespaces can produce identical
  // (path, qid, mtime) triples for different contents; caches that key on a
  // file's identity (the shell's compiled-script cache) include this id to
  // keep entries from aliasing across namespaces.
  uint64_t id() const { return id_; }

  // --- Namespace operations -------------------------------------------------
  // Paths are resolved as CleanPath would resolve them, reading the path in
  // place. A relative path is taken from the root.
  Result<NodePtr> Walk(std::string_view path) const;
  // The node at `path`, or null where Walk fails. For existence probes: it
  // builds no error text.
  NodePtr Find(std::string_view path) const;
  Result<NodePtr> Create(std::string_view path, bool dir);
  Status MkdirAll(std::string_view path);
  Status Remove(std::string_view path);
  Result<StatInfo> Stat(std::string_view path) const;
  Result<std::vector<StatInfo>> ReadDir(std::string_view path) const;

  // --- File I/O ---------------------------------------------------------------
  Result<OpenFilePtr> Open(std::string_view path, uint8_t mode);

  // Convenience whole-file operations used pervasively by the shell and core.
  Result<std::string> ReadFile(std::string_view path) const;
  Status WriteFile(std::string_view path, std::string_view data);   // create/truncate
  Status AppendFile(std::string_view path, std::string_view data);  // create/append

  // Installs a synthetic file, making the node and any missing parent
  // directories, in one walk, if absent.
  Status AttachHandler(std::string_view path, std::shared_ptr<FileHandler> handler);

  // Full path of a node (walks parent links).
  static std::string FullPath(const Node& n);

  static StatInfo StatOf(const Node& n);

  // Consistent point-in-time listing of a directory node: the stats of all
  // children, in name order. Callers (e.g. a 9P session's directory-read
  // buffer) take this snapshot once and serve reads from it, so a listing
  // never tears while entries are created or removed.
  static std::vector<StatInfo> ListDir(const Node& n);

 private:
  // Walks to the node at `path`, holding a plain pointer until the end. On
  // failure returns null and sets *err, if given, to the error Walk reports.
  NodePtr Resolve(std::string_view path, Status* err) const;
  // The parent directory of cleaned path `clean`; *base views its last
  // element.
  Result<NodePtr> WalkParent(std::string_view clean, std::string_view* base) const;
  // Opens node `n`, which the caller has walked to.
  Result<OpenFilePtr> OpenNode(NodePtr n, uint8_t mode);
  // Makes `name` in directory `parent`, which has no such child.
  NodePtr AddNode(Node* parent, std::string_view name, bool dir);

  NodePtr root_;
  Clock clock_;
  uint64_t id_ = 0;
  uint64_t next_qid_ = 1;

  uint64_t NextQid() { return next_qid_++; }
};

}  // namespace help

#endif  // SRC_FS_VFS_H_
