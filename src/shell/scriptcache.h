// A process-wide LRU cache of parsed shell scripts, the analogue of the
// RegexpCache for rc programs. Everything the system executes — `decl`-style
// tool scripts, `mk` recipe lines, ctl commands, eval'd text — parses once
// per edit, and the evaluator walks the cached tree on every later run.
//
// Two keying layers share one LRU:
//   - source-keyed: the script text itself (content-addressed, always safe);
//   - file-keyed: (vfs id, path), validated by the node's qid path, version,
//     mtime, and length — the "path+mtime" fast path that lets a repeated
//     `help/decl` or `mk` run skip even the ReadFile. A signature mismatch
//     falls through to the source layer, so an edit that restores previous
//     contents still hits.
// Parsing runs outside the lock (two racers just parse twice), and errors
// are never cached. Hits/misses surface as shell.compile_cache_{hit,miss}
// in /mnt/help/metrics.
#ifndef SRC_SHELL_SCRIPTCACHE_H_
#define SRC_SHELL_SCRIPTCACHE_H_

#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "src/base/status.h"
#include "src/fs/vfs.h"
#include "src/shell/shell.h"

namespace help {

class ShellScriptCache {
 public:
  static constexpr size_t kCapacity = 128;

  static ShellScriptCache& Global();

  // Parse tree of `src`, parsing and caching on a miss.
  Result<std::shared_ptr<const ShellScript>> Get(std::string_view src);

  // Parse tree of the script file at `path` in `vfs`. On a signature hit the
  // file is not even read; otherwise behaves like ReadFile + Get and records
  // the file's signature for next time.
  Result<std::shared_ptr<const ShellScript>> GetFile(Vfs& vfs, std::string_view path);

  void Clear();
  size_t size() const;

 private:
  struct FileSig {
    uint64_t qid_path = 0;
    uint32_t vers = 0;
    uint64_t mtime = 0;
    uint64_t length = 0;
    bool operator==(const FileSig& o) const {
      return qid_path == o.qid_path && vers == o.vers && mtime == o.mtime &&
             length == o.length;
    }
  };
  struct Entry {
    std::string key;
    FileSig sig;  // file-keyed entries only
    std::shared_ptr<const ShellScript> script;
  };

  std::shared_ptr<const ShellScript> Lookup(std::string_view key, const FileSig* want);
  void Insert(std::string key, const FileSig* sig, std::shared_ptr<const ShellScript> script);

  // MRU at the front; the map holds list iterators, both only touched under
  // mu_ (shell runs arrive from the UI thread and from 9P ctl dispatch).
  mutable std::mutex mu_;
  std::list<Entry> lru_;
  std::map<std::string, std::list<Entry>::iterator, std::less<>> index_;
};

}  // namespace help

#endif  // SRC_SHELL_SCRIPTCACHE_H_
