#include "src/fs/path.h"

#include <algorithm>
#include <vector>

namespace help {

namespace {

// CleanPath for a path that is not clean: one pass over its elements with a
// stack of the ones kept.
std::string Clean(std::string_view path) {
  bool abs = IsAbsPath(path);
  std::vector<std::string_view> stack;
  size_t i = 0;
  while (i < path.size()) {
    while (i < path.size() && path[i] == '/') {
      i++;
    }
    size_t start = i;
    while (i < path.size() && path[i] != '/') {
      i++;
    }
    std::string_view elem = path.substr(start, i - start);
    if (elem.empty() || elem == ".") {
      continue;
    }
    if (elem == "..") {
      if (!stack.empty() && stack.back() != "..") {
        stack.pop_back();
      } else if (!abs) {
        stack.push_back(elem);  // relative paths keep leading ..
      }
      continue;
    }
    stack.push_back(elem);
  }
  std::string out;
  if (abs) {
    out = "/";
  }
  for (size_t k = 0; k < stack.size(); k++) {
    if (k > 0) {
      out += '/';
    }
    out += stack[k];
  }
  if (out.empty()) {
    out = abs ? "/" : ".";
  }
  return out;
}

}  // namespace

CleanElements::CleanElements(std::string_view path) : path_(path) {
  // Next drops "" and "." elements as it splits. A ".." element may remove
  // one Next would already have handed out, so a path with ".." in it is
  // cleaned first.
  if (path_.find("..") != std::string_view::npos) {
    clean_ = Clean(path_);
    path_ = clean_;
  }
}

bool CleanElements::Next(std::string_view* elem) {
  while (pos_ < path_.size()) {
    size_t end = std::min(path_.find('/', pos_), path_.size());
    std::string_view e = path_.substr(pos_, end - pos_);
    pos_ = end + 1;
    if (!e.empty() && e != ".") {
      *elem = e;
      yielded_ = true;
      return true;
    }
  }
  if (yielded_ || IsAbsPath(path_)) {
    return false;
  }
  yielded_ = true;  // a relative path that cleans to "."
  *elem = ".";
  return true;
}

bool IsCleanPath(std::string_view path) {
  if (path == "/" || path == ".") {
    return true;
  }
  if (path.empty() || path.back() == '/') {
    return false;
  }
  bool leading = !IsAbsPath(path);  // a relative path may start with ".."s
  for (size_t start = IsAbsPath(path) ? 1 : 0, i = start; i <= path.size(); i++) {
    if (i < path.size() && path[i] != '/') {
      continue;
    }
    std::string_view elem = path.substr(start, i - start);
    if (elem.empty() || elem == "." || (elem == ".." && !leading)) {
      return false;  // a "//", or a "." or removable ".." element
    }
    leading = leading && elem == "..";
    start = i + 1;
  }
  return true;
}

std::string CleanPath(std::string_view path) {
  return IsCleanPath(path) ? std::string(path) : Clean(path);
}

std::string JoinPath(std::string_view dir, std::string_view name) {
  if (IsAbsPath(name) || dir.empty()) {
    return CleanPath(name);
  }
  std::string joined;
  joined.reserve(dir.size() + 1 + name.size());
  joined.append(dir).append(dir == "/" ? "" : "/").append(name);
  return IsCleanPath(joined) ? joined : Clean(joined);
}

std::string BasePath(std::string_view path) {
  if (!IsCleanPath(path)) {
    return BasePath(Clean(path));
  }
  size_t slash = path.rfind('/');
  if (slash == std::string_view::npos || path == "/") {
    return std::string(path);
  }
  return std::string(path.substr(slash + 1));
}

std::string DirPath(std::string_view path) {
  if (!IsCleanPath(path)) {
    return DirPath(Clean(path));
  }
  size_t slash = path.rfind('/');
  if (slash == std::string_view::npos) {
    return ".";
  }
  if (slash == 0) {
    return "/";
  }
  return std::string(path.substr(0, slash));
}

bool IsAbsPath(std::string_view path) { return !path.empty() && path[0] == '/'; }

}  // namespace help
