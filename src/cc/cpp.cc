#include "src/cc/cpp.h"

#include <algorithm>
#include <set>

#include "src/base/strings.h"

namespace help {

namespace {

constexpr char kSysInclude[] = "/sys/include";

struct CppState {
  const Vfs* vfs;
  std::set<std::string> visited;  // include-once per translation unit
};

NodePtr WalkOrNull(const Vfs& vfs, const std::string& path) {
  auto n = vfs.Walk(path);
  return n.ok() ? n.take() : nullptr;
}

Status Expand(CppState* st, const std::string& path, const NodePtr& node, std::string* out,
              int depth) {
  if (depth > 32) {
    return Status::Error("cpp: include nesting too deep at " + path);
  }
  // A regular file's bytes are read in place; anything else (a directory's
  // error, a synthetic file's handler) goes through ReadFile.
  std::string held;
  std::string_view data = node->data();
  if (node->dir() || node->handler() != nullptr) {
    auto r = st->vfs->ReadFile(path);
    if (!r.ok()) {
      return r.status();
    }
    held = r.take();
    data = held;
  }
  st->visited.insert(path);
  out->append("#line 1 \"").append(path).append("\"\n");
  // Lines are copied in runs; only an #include line breaks a run.
  size_t copied = 0;
  int lineno = 0;
  for (size_t pos = 0; pos <= data.size();) {
    size_t bol = pos;
    size_t eol = std::min(data.find('\n', pos), data.size());
    std::string_view line = TrimSpace(data.substr(bol, eol - bol));
    pos = eol + 1;
    lineno++;
    if (!HasPrefix(line, "#include")) {
      continue;
    }
    line = TrimSpace(line.substr(8));
    char close = line.empty() ? 0 : line[0] == '"' ? '"' : line[0] == '<' ? '>' : 0;
    if (close == 0) {
      continue;
    }
    out->append(data.substr(copied, bol - copied));
    copied = pos;
    size_t end = line.find(close, 1);
    if (end == std::string_view::npos) {
      return Status::Error(StrFormat("%s:%d: bad #include", path.c_str(), lineno));
    }
    std::string_view name = line.substr(1, end - 1);
    // "local" includes look beside the including file, then in /sys/include.
    std::string resolved;
    NodePtr inc;
    if (close == '"') {
      resolved = JoinPath(DirPath(path), name);
      inc = WalkOrNull(*st->vfs, resolved);
    }
    if (inc == nullptr) {
      resolved = JoinPath(kSysInclude, name);
      inc = WalkOrNull(*st->vfs, resolved);
    }
    if (inc == nullptr) {
      if (close == '"') {
        return Status::Error(StrFormat("%s:%d: include file %s not found", path.c_str(),
                                       lineno, std::string(name).c_str()));
      }
      // Unmodelled system header: skip, leaving a breadcrumb comment.
      out->append("/* cpp: skipped <").append(name).append("> */\n");
    } else if (st->visited.count(resolved) != 0) {
      *out += '\n';  // keep line numbers stable for the rest of this file
    } else {
      Status s = Expand(st, resolved, inc, out, depth + 1);
      if (!s.ok()) {
        return s;
      }
      out->append("#line ").append(std::to_string(lineno + 1)).append(" \"");
      out->append(path).append("\"\n");
    }
  }
  if (copied <= data.size()) {
    out->append(data.substr(copied)).push_back('\n');
  }
  return Status::Ok();
}

}  // namespace

Result<std::string> Preprocess(const Vfs& vfs, std::string_view path) {
  CppState st;
  st.vfs = &vfs;
  std::string clean = CleanPath(path);
  auto node = vfs.Walk(clean);
  if (!node.ok()) {
    return node.status();
  }
  std::string out;
  Status s = Expand(&st, clean, node.value(), &out, 0);
  if (!s.ok()) {
    return s;
  }
  return out;
}

}  // namespace help
