#include "src/shell/scriptcache.h"

#include "src/base/strings.h"
#include "src/obs/trace.h"

namespace help {

ShellScriptCache& ShellScriptCache::Global() {
  static ShellScriptCache* cache = new ShellScriptCache();
  return *cache;
}

std::shared_ptr<const ShellScript> ShellScriptCache::Lookup(std::string_view key,
                                                            const FileSig* want) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    return nullptr;
  }
  if (want != nullptr && !(it->second->sig == *want)) {
    // The file changed since this entry was recorded; drop it. The parse
    // may still be rescued by the source layer if the contents round-tripped.
    lru_.erase(it->second);
    index_.erase(it);
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // bump to MRU
  return it->second->script;
}

void ShellScriptCache::Insert(std::string key, const FileSig* sig,
                              std::shared_ptr<const ShellScript> script) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    // A racer beat us to it (or a file entry is being refreshed): update in
    // place and bump.
    it->second->script = std::move(script);
    if (sig != nullptr) {
      it->second->sig = *sig;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{std::move(key), sig != nullptr ? *sig : FileSig(),
                        std::move(script)});
  index_[lru_.front().key] = lru_.begin();
  while (lru_.size() > kCapacity) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
  }
}

Result<std::shared_ptr<const ShellScript>> ShellScriptCache::Get(std::string_view src) {
  std::string key = "s:" + std::string(src);
  if (auto p = Lookup(key, nullptr)) {
    OBS_COUNT("shell.compile_cache_hit", 1);
    return p;
  }
  // Parse outside the lock: two threads racing on the same script just
  // parse it twice.
  auto parsed = ParseShell(src);
  if (!parsed.ok()) {
    return parsed.status();  // errors are never cached
  }
  OBS_COUNT("shell.compile_cache_miss", 1);
  std::shared_ptr<const ShellScript> script = parsed.take();
  Insert(std::move(key), nullptr, script);
  return script;
}

Result<std::shared_ptr<const ShellScript>> ShellScriptCache::GetFile(Vfs& vfs,
                                                                     std::string_view path) {
  std::string fkey;
  FileSig sig;
  NodePtr node = vfs.Find(path);
  if (node != nullptr && !node->dir()) {
    fkey = StrFormat("f:%llu:", static_cast<unsigned long long>(vfs.id())) +
           std::string(path);
    Qid qid = node->qid();
    sig = FileSig{qid.path, qid.vers, node->mtime(), node->length()};
    if (auto p = Lookup(fkey, &sig)) {
      OBS_COUNT("shell.compile_cache_hit", 1);
      return p;
    }
  }
  auto data = vfs.ReadFile(path);
  if (!data.ok()) {
    return data.status();
  }
  auto script = Get(data.value());
  if (script.ok() && !fkey.empty()) {
    Insert(std::move(fkey), &sig, script.value());
  }
  return script;
}

void ShellScriptCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
}

size_t ShellScriptCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

}  // namespace help
