#include "src/cc/cpp.h"

#include <algorithm>

#include "src/base/strings.h"

namespace help {

namespace {

constexpr char kSysInclude[] = "/sys/include";

}  // namespace

void CUnit::Add(const CToken* begin, const CToken* end) {
  if (begin != end) {
    runs.push_back({begin, end, At(runs.size())});
  }
}

Result<CSources::File*> CSources::Load(const std::string& path) {
  if (auto it = by_path_.find(path); it != by_path_.end()) {
    return it->second;
  }
  NodePtr node = vfs_.Find(path);
  if (node == nullptr) {
    return static_cast<File*>(nullptr);
  }
  // A regular file's bytes are copied once; anything else (a directory's
  // error, a synthetic file's handler) goes through ReadFile.
  std::string text;
  if (node->dir() || node->handler() != nullptr) {
    auto r = vfs_.ReadFile(path);
    if (!r.ok()) {
      return r.status();
    }
    text = r.take();
  } else {
    text = node->data();
  }
  File& f = files_.emplace_back();
  f.id = static_cast<int>(files_.size()) - 1;
  f.path = path;
  f.dir = DirPath(path);
  f.text = std::move(text) + '\n';
  by_path_.emplace(path, &f);
  return &f;
}

Status CSources::Scan(File* f, bool tokens) {
  if (tokens ? f->lexed : f->scanned) {
    return Status::Ok();
  }
  f->includes.clear();
  if (tokens) {
    auto toks = CLex(f->text, f->path, names_, &f->includes);
    if (!toks.ok()) {
      return toks.status();
    }
    f->toks = toks.take();
    f->lexed = true;
  } else if (Status s = CLexIncludes(f->text, f->path, &f->includes); !s.ok()) {
    return s;
  }
  f->scanned = true;
  return Status::Ok();
}

Result<CSources::File*> CSources::Resolve(const File& from, const CInclude& inc) {
  key_.assign(1, inc.system ? '<' : '"');
  if (!inc.system) {
    key_.append(from.dir).push_back('\0');
  }
  key_.append(inc.name);
  if (auto it = resolved_.find(key_); it != resolved_.end()) {
    return it->second;
  }
  // "name" looks beside the including file first.
  Result<File*> r = static_cast<File*>(nullptr);
  if (!inc.system) {
    r = Load(JoinPath(from.dir, inc.name));
  }
  if (r.ok() && r.value() == nullptr) {
    r = Load(JoinPath(kSysInclude, inc.name));
  }
  if (r.ok()) {
    resolved_.emplace(key_, r.value());
  }
  return r;
}

Status CSources::Expand(File* f, CUnit* unit, std::string* text, int depth) {
  if (depth > 32) {
    return Status::Error("cpp: include nesting too deep at " + f->path);
  }
  if (Status s = Scan(f, unit != nullptr); !s.ok()) {
    return s;
  }
  f->unit = unit_;
  if (text != nullptr) {
    text->append("#line 1 \"").append(f->path).append("\"\n");
  }
  size_t tok = 0;
  size_t byte = 0;
  for (const CInclude& inc : f->includes) {
    if (unit != nullptr) {
      unit->Add(f->toks.data() + tok, f->toks.data() + inc.tok);
    }
    tok = inc.tok;
    std::string_view skipped(f->text.data() + byte, inc.begin - byte);
    byte = inc.end;
    if (text != nullptr) {
      text->append(skipped);
    }
    auto r = Resolve(*f, inc);
    if (!r.ok()) {
      return r.status();
    }
    File* g = r.value();
    if (g == nullptr && !inc.system) {
      return Status::Error(StrFormat("%.*s:%d: include file %.*s not found",
                                     static_cast<int>(inc.file.size()), inc.file.data(), inc.line,
                                     static_cast<int>(inc.name.size()), inc.name.data()));
    }
    bool expand = g != nullptr && g->unit != unit_;
    if (expand) {
      size_t header = 0;
      if (unit != nullptr) {
        header = unit->headers.size();
        unit->headers.push_back({g->id, unit->runs.size(), 0, 0});
      }
      if (Status s = Expand(g, unit, text, depth + 1); !s.ok()) {
        return s;
      }
      if (unit != nullptr) {
        unit->headers[header].last = unit->runs.size();
        unit->headers[header].inner = unit->headers.size();
      }
    }
    if (text == nullptr) {
      continue;
    }
    // The directive's lines are replaced: by a breadcrumb for a skipped
    // system header, by blank lines for a file already included, and after
    // an expanded file by a marker back into this one.
    int lines = static_cast<int>(std::count(f->text.begin() + static_cast<ptrdiff_t>(inc.begin),
                                            f->text.begin() + static_cast<ptrdiff_t>(inc.end),
                                            '\n'));
    if (g == nullptr) {
      text->append("/* cpp: skipped <").append(inc.name).append("> */");
    }
    if (expand) {
      text->append(StrFormat("#line %d \"%.*s\"\n", inc.line + lines,
                             static_cast<int>(inc.file.size()), inc.file.data()));
    } else {
      text->append(static_cast<size_t>(lines), '\n');
    }
  }
  if (unit != nullptr) {
    unit->Add(f->toks.data() + tok, f->toks.data() + f->toks.size() - (depth == 0 ? 0 : 1));
  }
  if (text != nullptr) {
    text->append(f->text, byte);
  }
  return Status::Ok();
}

Status CSources::Walk(std::string_view path, CUnit* unit, std::string* text) {
  std::string clean = CleanPath(path);
  auto r = Load(clean);
  if (!r.ok()) {
    return r.status();
  }
  if (r.value() == nullptr) {
    return vfs_.Walk(clean).status();
  }
  unit_++;
  return Expand(r.value(), unit, text, 0);
}

Status CSources::Unit(std::string_view path, CUnit* out) {
  out->runs.clear();
  out->headers.clear();
  return Walk(path, out, nullptr);
}

Status CSources::Text(std::string_view path, std::string* out) {
  out->clear();
  return Walk(path, nullptr, out);
}

Result<std::string> Preprocess(const Vfs& vfs, std::string_view path) {
  std::string out;
  Status s = CSources(vfs).Text(path, &out);
  if (!s.ok()) {
    return s;
  }
  return out;
}

}  // namespace help
