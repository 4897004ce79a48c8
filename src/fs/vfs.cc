#include "src/fs/vfs.h"

#include <algorithm>
#include <atomic>

namespace help {

Node::Node(std::string name, bool dir, uint64_t qid_path) : name_(std::move(name)) {
  qid_.path = qid_path;
  qid_.dir = dir;
}

NodePtr Node::Child(std::string_view name) const {
  auto it = children_.find(std::string(name));
  if (it != children_.end()) {
    return it->second;
  }
  if (dir_synth_ != nullptr) {
    return dir_synth_->Lookup(name);
  }
  return nullptr;
}

void Node::AddChild(NodePtr child) {
  child->parent_ = this;
  children_[child->name_] = std::move(child);
}

void Node::RemoveChild(std::string_view name) { children_.erase(std::string(name)); }

uint64_t Node::length() const {
  if (qid_.dir) {
    return 0;
  }
  if (handler_ != nullptr) {
    return handler_->Length(*this);
  }
  return data_.size();
}

OpenFile::~OpenFile() {
  if (node_ != nullptr && node_->handler() != nullptr) {
    node_->handler()->Clunk(*this);
  }
}

Result<std::string> OpenFile::Read(uint64_t offset, uint32_t count) {
  if ((mode_ & 3) == kOwrite) {
    return ErrPerm(node_->name());
  }
  if (node_->handler() != nullptr) {
    return node_->handler()->Read(*this, offset, count);
  }
  const std::string& data = node_->data();
  if (offset >= data.size()) {
    return std::string();
  }
  size_t n = std::min<uint64_t>(count, data.size() - offset);
  return data.substr(offset, n);
}

Result<uint32_t> OpenFile::Write(uint64_t offset, std::string_view data) {
  if ((mode_ & 3) == kOread) {
    return ErrPerm(node_->name());
  }
  if (node_->handler() != nullptr) {
    auto r = node_->handler()->Write(*this, offset, data);
    if (r.ok()) {
      node_->Touch(clock_->Tick());
    }
    return r;
  }
  std::string& dst = node_->data();
  if (offset > dst.size()) {
    dst.resize(offset, 0);  // sparse writes zero-fill, like a real fs
  }
  if (offset + data.size() > dst.size()) {
    dst.resize(offset + data.size());
  }
  std::copy(data.begin(), data.end(), dst.begin() + static_cast<long>(offset));
  node_->Touch(clock_->Tick());
  return static_cast<uint32_t>(data.size());
}

Vfs::Vfs() {
  static std::atomic<uint64_t> next_vfs_id{1};
  id_ = next_vfs_id.fetch_add(1, std::memory_order_relaxed);
  root_ = std::make_shared<Node>("/", /*dir=*/true, NextQid());
}

Result<NodePtr> Vfs::Walk(std::string_view path) const {
  NodePtr cur = root_;
  for (const std::string& elem : PathElements(path)) {
    if (!cur->dir()) {
      return ErrNotDir(FullPath(*cur));
    }
    NodePtr next = cur->Child(elem);
    if (next == nullptr) {
      return ErrNotExist(CleanPath(path));
    }
    cur = next;
  }
  return cur;
}

Result<NodePtr> Vfs::WalkParent(std::string_view path, std::string* base) const {
  std::string clean = CleanPath(path);
  *base = BasePath(clean);
  if (*base == "/" || base->empty()) {
    return Status::Error("cannot operate on root");
  }
  return Walk(DirPath(clean));
}

Result<NodePtr> Vfs::Create(std::string_view path, bool dir) {
  std::string base;
  auto parent = WalkParent(path, &base);
  if (!parent.ok()) {
    return parent;
  }
  if (!parent.value()->dir()) {
    return ErrNotDir(DirPath(path));
  }
  if (parent.value()->Child(base) != nullptr) {
    return ErrExists(CleanPath(path));
  }
  auto node = std::make_shared<Node>(base, dir, NextQid());
  node->set_mtime(clock_.Tick());
  parent.value()->AddChild(node);
  parent.value()->Touch(clock_.Now());
  return node;
}

Status Vfs::MkdirAll(std::string_view path) {
  NodePtr cur = root_;
  for (const std::string& elem : PathElements(path)) {
    NodePtr next = cur->Child(elem);
    if (next == nullptr) {
      next = std::make_shared<Node>(elem, /*dir=*/true, NextQid());
      next->set_mtime(clock_.Tick());
      cur->AddChild(next);
      cur->Touch(clock_.Now());
    } else if (!next->dir()) {
      return ErrNotDir(elem);
    }
    cur = next;
  }
  return Status::Ok();
}

Status Vfs::Remove(std::string_view path) {
  std::string base;
  auto parent = WalkParent(path, &base);
  if (!parent.ok()) {
    return parent.status();
  }
  NodePtr victim = parent.value()->Child(base);
  if (victim == nullptr) {
    return ErrNotExist(CleanPath(path));
  }
  if (victim->dir() && !victim->children().empty()) {
    return Status::Error(CleanPath(path) + ": directory not empty");
  }
  parent.value()->RemoveChild(base);
  parent.value()->Touch(clock_.Tick());
  return Status::Ok();
}

StatInfo Vfs::StatOf(const Node& n) {
  StatInfo s;
  s.name = n.name();
  s.qid = n.qid();
  s.length = n.length();
  s.mtime = n.mtime();
  s.dir = n.dir();
  return s;
}

Result<StatInfo> Vfs::Stat(std::string_view path) const {
  auto node = Walk(path);
  if (!node.ok()) {
    return node.status();
  }
  return StatOf(*node.value());
}

std::vector<StatInfo> Vfs::ListDir(const Node& n) {
  std::vector<StatInfo> out;
  for (const auto& [name, child] : n.children()) {
    out.push_back(StatOf(*child));
  }
  if (n.dir_synth() != nullptr) {
    // Synthesized entries merge after the static ones; the whole listing is
    // re-sorted so it stays in name order (static names win a collision via
    // Child(), but a sane synth never shadows a static child).
    for (const NodePtr& child : n.dir_synth()->List()) {
      out.push_back(StatOf(*child));
    }
    std::sort(out.begin(), out.end(),
              [](const StatInfo& a, const StatInfo& b) { return a.name < b.name; });
  }
  return out;
}

Result<std::vector<StatInfo>> Vfs::ReadDir(std::string_view path) const {
  auto node = Walk(path);
  if (!node.ok()) {
    return node.status();
  }
  if (!node.value()->dir()) {
    return ErrNotDir(CleanPath(path));
  }
  return ListDir(*node.value());
}

Result<OpenFilePtr> Vfs::Open(std::string_view path, uint8_t mode) {
  auto node = Walk(path);
  NodePtr n;
  if (!node.ok()) {
    // Opening for write creates the file, which keeps shell redirection and
    // WriteFile simple (Plan 9 create-on-open semantics via the shell).
    if ((mode & 3) == kOread) {
      return node.status();
    }
    auto created = Create(path, /*dir=*/false);
    if (!created.ok()) {
      return created.status();
    }
    n = created.take();
  } else {
    n = node.take();
  }
  if (n->dir() && (mode & 3) != kOread) {
    return ErrIsDir(CleanPath(path));
  }
  auto f = std::make_shared<OpenFile>(n, mode, &clock_);
  if (n->handler() != nullptr) {
    Status s = n->handler()->Open(*f, mode);
    if (!s.ok()) {
      return s;
    }
  } else if ((mode & kOtrunc) != 0) {
    n->data().clear();
    n->Touch(clock_.Tick());
  }
  return f;
}

Result<std::string> Vfs::ReadFile(std::string_view path) const {
  auto node = Walk(path);
  if (!node.ok()) {
    return node.status();
  }
  NodePtr n = node.take();
  if (n->dir()) {
    return ErrIsDir(CleanPath(path));
  }
  if (n->handler() != nullptr) {
    // Whole-file read through a transient open.
    auto f = const_cast<Vfs*>(this)->Open(path, kOread);
    if (!f.ok()) {
      return f.status();
    }
    std::string out;
    uint64_t off = 0;
    while (true) {
      auto chunk = f.value()->Read(off, 65536);
      if (!chunk.ok()) {
        return chunk.status();
      }
      if (chunk.value().empty()) {
        break;
      }
      off += chunk.value().size();
      out += chunk.take();
    }
    return out;
  }
  return n->data();
}

Status Vfs::WriteFile(std::string_view path, std::string_view data) {
  auto f = Open(path, kOwrite | kOtrunc);
  if (!f.ok()) {
    return f.status();
  }
  auto w = f.value()->Write(0, data);
  return w.status();
}

Status Vfs::AppendFile(std::string_view path, std::string_view data) {
  auto f = Open(path, kOwrite);
  if (!f.ok()) {
    return f.status();
  }
  uint64_t off = f.value()->node().length();
  auto w = f.value()->Write(off, data);
  return w.status();
}

Status Vfs::AttachHandler(std::string_view path, std::shared_ptr<FileHandler> handler) {
  auto node = Walk(path);
  NodePtr n;
  if (node.ok()) {
    n = node.take();
  } else {
    Status s = MkdirAll(DirPath(path));
    if (!s.ok()) {
      return s;
    }
    auto created = Create(path, /*dir=*/false);
    if (!created.ok()) {
      return created.status();
    }
    n = created.take();
  }
  n->set_handler(std::move(handler));
  return Status::Ok();
}

std::string Vfs::FullPath(const Node& n) {
  if (n.parent() == nullptr) {
    return "/";
  }
  std::vector<std::string_view> parts;
  const Node* cur = &n;
  while (cur->parent() != nullptr) {
    parts.push_back(cur->name());
    cur = cur->parent();
  }
  std::string out;
  for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
    out += '/';
    out += *it;
  }
  return out;
}

}  // namespace help
