#include "src/shell/coreutils.h"

#include <algorithm>
#include <memory>

#include "src/base/strings.h"
#include "src/regexp/regexp.h"

namespace help {

namespace {

// Reads the named files (cwd-relative) or, with no names, stdin.
Result<std::string> GatherInput(ExecContext& ctx, const std::vector<std::string>& argv,
                                size_t first, const Io& io) {
  if (first >= argv.size()) {
    return io.in;
  }
  std::string all;
  for (size_t i = first; i < argv.size(); i++) {
    auto data = ctx.vfs->ReadFile(JoinPath(ctx.cwd, argv[i]));
    if (!data.ok()) {
      return data.status();
    }
    all += data.take();
  }
  return all;
}

std::vector<std::string> Lines(std::string_view text) {
  std::vector<std::string> out = Split(text, '\n');
  if (!out.empty() && out.back().empty()) {
    out.pop_back();  // trailing newline does not make an extra line
  }
  return out;
}

int Cat(ExecContext& ctx, const std::vector<std::string>& argv, Io& io) {
  auto data = GatherInput(ctx, argv, 1, io);
  if (!data.ok()) {
    *io.err += "cat: " + data.message() + "\n";
    return 1;
  }
  *io.out += data.take();
  return 0;
}

int Cp(ExecContext& ctx, const std::vector<std::string>& argv, Io& io) {
  if (argv.size() != 3) {
    *io.err += "usage: cp from to\n";
    return 1;
  }
  auto data = ctx.vfs->ReadFile(JoinPath(ctx.cwd, argv[1]));
  if (!data.ok()) {
    *io.err += "cp: " + data.message() + "\n";
    return 1;
  }
  std::string dst = JoinPath(ctx.cwd, argv[2]);
  NodePtr dnode = ctx.vfs->Find(dst);
  if (dnode != nullptr && dnode->dir()) {
    dst = JoinPath(dst, BasePath(argv[1]));
  }
  Status s = ctx.vfs->WriteFile(dst, data.value());
  if (!s.ok()) {
    *io.err += "cp: " + s.message() + "\n";
    return 1;
  }
  return 0;
}

int Mv(ExecContext& ctx, const std::vector<std::string>& argv, Io& io) {
  int rc = Cp(ctx, argv, io);
  if (rc != 0) {
    return rc;
  }
  Status s = ctx.vfs->Remove(JoinPath(ctx.cwd, argv[1]));
  if (!s.ok()) {
    *io.err += "mv: " + s.message() + "\n";
    return 1;
  }
  return 0;
}

int Ls(ExecContext& ctx, const std::vector<std::string>& argv, Io& io) {
  bool longform = false;
  std::vector<std::string> paths;
  for (size_t i = 1; i < argv.size(); i++) {
    if (argv[i] == "-l") {
      longform = true;
    } else {
      paths.push_back(argv[i]);
    }
  }
  if (paths.empty()) {
    paths.push_back(ctx.cwd);
  }
  int rc = 0;
  for (const std::string& p : paths) {
    std::string full = JoinPath(ctx.cwd, p);
    auto st = ctx.vfs->Stat(full);
    if (!st.ok()) {
      *io.err += "ls: " + st.message() + "\n";
      rc = 1;
      continue;
    }
    std::vector<StatInfo> entries;
    if (st.value().dir) {
      auto dir = ctx.vfs->ReadDir(full);
      if (!dir.ok()) {
        *io.err += "ls: " + dir.message() + "\n";
        rc = 1;
        continue;
      }
      entries = dir.take();
      for (StatInfo& e : entries) {
        e.name = full == "/" ? "/" + e.name : full + "/" + e.name;
      }
    } else {
      StatInfo e = st.take();
      e.name = full;
      entries.push_back(e);
    }
    for (const StatInfo& e : entries) {
      if (longform) {
        *io.out += StrFormat("%c %8llu %s %s\n", e.dir ? 'd' : '-',
                             static_cast<unsigned long long>(e.length),
                             FormatDate(e.mtime).c_str(), e.name.c_str());
      } else {
        *io.out += e.name + (e.dir ? "/" : "") + "\n";
      }
    }
  }
  return rc;
}

int Grep(ExecContext& ctx, const std::vector<std::string>& argv, Io& io) {
  bool number = false;
  bool count = false;
  bool invert = false;
  size_t i = 1;
  for (; i < argv.size() && !argv[i].empty() && argv[i][0] == '-'; i++) {
    for (char c : argv[i].substr(1)) {
      if (c == 'n') {
        number = true;
      } else if (c == 'c') {
        count = true;
      } else if (c == 'v') {
        invert = true;
      } else {
        *io.err += StrFormat("grep: bad flag -%c\n", c);
        return 2;
      }
    }
  }
  if (i >= argv.size()) {
    *io.err += "usage: grep [-ncv] pattern [files]\n";
    return 2;
  }
  auto re = Regexp::Compile(argv[i]);
  if (!re.ok()) {
    *io.err += "grep: " + re.message() + "\n";
    return 2;
  }
  i++;
  bool many = argv.size() - i > 1;
  bool any = false;
  auto scan = [&](std::string_view label, std::string_view content) {
    long nmatch = 0;
    // One decode of the whole input instead of one RuneString per line; each
    // line is a zero-copy view and the literal fast path / Pike VM run over
    // it directly. Only matched lines are re-encoded for output.
    RuneString all = RunesFromUtf8(content);
    RuneStringView doc(all);
    size_t pos = 0;
    size_t ln = 0;
    while (pos < doc.size()) {
      size_t eol = doc.find('\n', pos);
      if (eol == RuneStringView::npos) {
        eol = doc.size();
      }
      RuneStringView line = doc.substr(pos, eol - pos);
      ln++;
      pos = eol + 1;
      bool hit = re.value().Search(line).has_value();
      if (hit == invert) {
        continue;
      }
      any = true;
      nmatch++;
      if (count) {
        continue;
      }
      if (many) {
        *io.out += std::string(label) + ":";
      }
      if (number) {
        *io.out += StrFormat("%zu: ", ln);
      }
      *io.out += Utf8FromRunes(line) + "\n";
    }
    if (count) {
      if (many) {
        *io.out += std::string(label) + ":";
      }
      *io.out += StrFormat("%ld\n", nmatch);
    }
  };
  if (i >= argv.size()) {
    scan("(stdin)", io.in);
  } else {
    for (; i < argv.size(); i++) {
      auto data = ctx.vfs->ReadFile(JoinPath(ctx.cwd, argv[i]));
      if (!data.ok()) {
        *io.err += "grep: " + data.message() + "\n";
        return 2;
      }
      scan(argv[i], data.value());
    }
  }
  return any ? 0 : 1;
}

// sed subset: "Nq" (quit after N lines) and "s/re/repl/[g]" — all the paper's
// scripts use is `sed 1q`.
int Sed(ExecContext& ctx, const std::vector<std::string>& argv, Io& io) {
  if (argv.size() < 2) {
    *io.err += "usage: sed script [files]\n";
    return 1;
  }
  const std::string& script = argv[1];
  auto data = GatherInput(ctx, argv, 2, io);
  if (!data.ok()) {
    *io.err += "sed: " + data.message() + "\n";
    return 1;
  }
  // Nq form.
  if (!script.empty() && script.back() == 'q') {
    std::vector<std::string> lines = Lines(data.value());
    long n = ParseInt(std::string_view(script).substr(0, script.size() - 1));
    if (n < 0) {
      *io.err += "sed: bad script\n";
      return 1;
    }
    for (long k = 0; k < n && k < static_cast<long>(lines.size()); k++) {
      *io.out += lines[static_cast<size_t>(k)] + "\n";
    }
    return 0;
  }
  // s/re/repl/[g] form.
  if (script.size() >= 4 && script[0] == 's') {
    char delim = script[1];
    std::vector<std::string> parts = Split(std::string_view(script).substr(2), delim);
    if (parts.size() < 2) {
      *io.err += "sed: bad substitution\n";
      return 1;
    }
    bool global = parts.size() > 2 && parts[2] == "g";
    auto re = Regexp::Compile(parts[0]);
    if (!re.ok()) {
      *io.err += "sed: " + re.message() + "\n";
      return 1;
    }
    // As in grep: decode the input once and substitute over zero-copy line
    // views instead of materializing a RuneString per line.
    RuneString repl = RunesFromUtf8(parts[1]);
    RuneString all = RunesFromUtf8(data.value());
    RuneStringView doc(all);
    size_t lpos = 0;
    while (lpos < doc.size()) {
      size_t eol = doc.find('\n', lpos);
      if (eol == RuneStringView::npos) {
        eol = doc.size();
      }
      RuneStringView runes = doc.substr(lpos, eol - lpos);
      lpos = eol + 1;
      RuneString result;
      size_t pos = 0;
      while (pos <= runes.size()) {
        auto m = re.value().Search(runes, pos);
        if (!m) {
          break;
        }
        result.append(runes.substr(pos, m->begin - pos));
        result += repl;
        pos = m->end > m->begin ? m->end : m->end + 1;
        if (!global) {
          break;
        }
      }
      if (pos <= runes.size()) {
        result.append(runes.substr(pos));
      }
      *io.out += Utf8FromRunes(result) + "\n";
    }
    return 0;
  }
  *io.err += "sed: unsupported script\n";
  return 1;
}

int Wc(ExecContext& ctx, const std::vector<std::string>& argv, Io& io) {
  bool lines_only = argv.size() > 1 && argv[1] == "-l";
  auto data = GatherInput(ctx, argv, lines_only ? 2 : 1, io);
  if (!data.ok()) {
    *io.err += "wc: " + data.message() + "\n";
    return 1;
  }
  const std::string& text = data.value();
  size_t nl = static_cast<size_t>(std::count(text.begin(), text.end(), '\n'));
  if (lines_only) {
    *io.out += StrFormat("%zu\n", nl);
  } else {
    size_t words = Tokenize(text).size();
    *io.out += StrFormat("%7zu %7zu %7zu\n", nl, words, text.size());
  }
  return 0;
}

int Sort(ExecContext& ctx, const std::vector<std::string>& argv, Io& io) {
  bool reverse = argv.size() > 1 && argv[1] == "-r";
  auto data = GatherInput(ctx, argv, reverse ? 2 : 1, io);
  if (!data.ok()) {
    *io.err += "sort: " + data.message() + "\n";
    return 1;
  }
  std::vector<std::string> lines = Lines(data.value());
  std::sort(lines.begin(), lines.end());
  if (reverse) {
    std::reverse(lines.begin(), lines.end());
  }
  for (const std::string& l : lines) {
    *io.out += l + "\n";
  }
  return 0;
}

int Uniq(ExecContext& ctx, const std::vector<std::string>& argv, Io& io) {
  auto data = GatherInput(ctx, argv, 1, io);
  if (!data.ok()) {
    *io.err += "uniq: " + data.message() + "\n";
    return 1;
  }
  std::vector<std::string> lines = Lines(data.value());
  const std::string* prev = nullptr;
  for (const std::string& l : lines) {
    if (prev == nullptr || l != *prev) {
      *io.out += l + "\n";
    }
    prev = &l;
  }
  return 0;
}

int HeadTail(bool head, ExecContext& ctx, const std::vector<std::string>& argv, Io& io) {
  long n = 10;
  size_t first = 1;
  if (argv.size() > 2 && argv[1] == "-n") {
    n = ParseInt(argv[2]);
    first = 3;
  }
  auto data = GatherInput(ctx, argv, first, io);
  if (!data.ok()) {
    *io.err += data.message() + "\n";
    return 1;
  }
  std::vector<std::string> lines = Lines(data.value());
  size_t count = std::min<size_t>(static_cast<size_t>(std::max(0L, n)), lines.size());
  size_t start = head ? 0 : lines.size() - count;
  for (size_t k = 0; k < count; k++) {
    *io.out += lines[start + k] + "\n";
  }
  return 0;
}

int Touch(ExecContext& ctx, const std::vector<std::string>& argv, Io& io) {
  for (size_t i = 1; i < argv.size(); i++) {
    std::string path = JoinPath(ctx.cwd, argv[i]);
    NodePtr node = ctx.vfs->Find(path);
    if (node != nullptr) {
      node->Touch(ctx.vfs->clock()->Tick());
    } else {
      Status s = ctx.vfs->WriteFile(path, "");
      if (!s.ok()) {
        *io.err += "touch: " + s.message() + "\n";
        return 1;
      }
    }
  }
  return 0;
}

int Mkdir(ExecContext& ctx, const std::vector<std::string>& argv, Io& io) {
  for (size_t i = 1; i < argv.size(); i++) {
    Status s = ctx.vfs->MkdirAll(JoinPath(ctx.cwd, argv[i]));
    if (!s.ok()) {
      *io.err += "mkdir: " + s.message() + "\n";
      return 1;
    }
  }
  return 0;
}

int Rm(ExecContext& ctx, const std::vector<std::string>& argv, Io& io) {
  int rc = 0;
  for (size_t i = 1; i < argv.size(); i++) {
    if (argv[i] == "-f") {
      continue;
    }
    Status s = ctx.vfs->Remove(JoinPath(ctx.cwd, argv[i]));
    if (!s.ok()) {
      bool force = argv[1] == "-f";
      if (!force) {
        *io.err += "rm: " + s.message() + "\n";
        rc = 1;
      }
    }
  }
  return rc;
}

int Basename(ExecContext& ctx, const std::vector<std::string>& argv, Io& io) {
  if (argv.size() < 2) {
    *io.err += "usage: basename path\n";
    return 1;
  }
  *io.out += BasePath(argv[1]) + "\n";
  return 0;
}

int Dirname(ExecContext& ctx, const std::vector<std::string>& argv, Io& io) {
  if (argv.size() < 2) {
    *io.err += "usage: dirname path\n";
    return 1;
  }
  *io.out += DirPath(argv[1]) + "\n";
  return 0;
}

int DateCmd(ExecContext& ctx, const std::vector<std::string>& argv, Io& io) {
  *io.out += FormatDate(ctx.vfs->clock()->Now()) + "\n";
  return 0;
}

int Ps(ExecContext& ctx, const std::vector<std::string>& argv, Io& io) {
  if (ctx.procs == nullptr) {
    *io.err += "ps: no process table\n";
    return 1;
  }
  *io.out += AdbPs(*ctx.procs);
  return 0;
}

// adb: `adb broke` lists broken processes; `adb <pid> <cmd>` examines one.
int Adb(ExecContext& ctx, const std::vector<std::string>& argv, Io& io) {
  if (ctx.procs == nullptr) {
    *io.err += "adb: no process table\n";
    return 1;
  }
  if (argv.size() >= 2 && argv[1] == "broke") {
    *io.out += AdbBroke(*ctx.procs);
    return 0;
  }
  if (argv.size() < 3) {
    *io.err += "usage: adb pid stack|regs|pc|kstack\n";
    return 1;
  }
  long pid = ParseInt(argv[1]);
  const ProcImage* p = pid >= 0 ? ctx.procs->Find(static_cast<int>(pid)) : nullptr;
  if (p == nullptr) {
    *io.err += "adb: no such process " + argv[1] + "\n";
    return 1;
  }
  const std::string& cmd = argv[2];
  if (cmd == "stack") {
    *io.out += AdbStack(*p);
  } else if (cmd == "regs") {
    *io.out += AdbRegs(*p);
  } else if (cmd == "pc") {
    *io.out += AdbPc(*p);
  } else if (cmd == "kstack") {
    *io.out += AdbKstack(*p);
  } else if (cmd == "srcdir") {
    // Where the binary's sources live, from its symbol table — the db tool
    // uses this as the new window's directory context.
    *io.out += p->srcdir + "\n";
  } else {
    *io.err += "adb: unknown command " + cmd + "\n";
    return 1;
  }
  return 0;
}

int Fortune(ExecContext& ctx, const std::vector<std::string>& argv, Io& io) {
  static const char* kFortunes[] = {
      "A year spent in artificial intelligence is enough to make one believe in God.\n",
      "If a program is useless, it will have to be documented.\n",
      "The UKUUG are collecting old-time verses about UNIX.\n",
      "Minimalism, uniformity, and universality have merit.\n",
  };
  uint64_t i = ctx.vfs->clock()->Tick() % (sizeof(kFortunes) / sizeof(kFortunes[0]));
  *io.out += kFortunes[i];
  return 0;
}

int News(ExecContext& ctx, const std::vector<std::string>& argv, Io& io) {
  auto data = ctx.vfs->ReadFile("/lib/news");
  *io.out += data.ok() ? data.value() : std::string("no news is good news\n");
  return 0;
}

int True(ExecContext&, const std::vector<std::string>&, Io&) { return 0; }
int False(ExecContext&, const std::vector<std::string>&, Io&) { return 1; }

}  // namespace

std::string FormatDate(uint64_t unix_seconds) {
  // Civil-time conversion (proleptic Gregorian), no libc dependency so the
  // deterministic clock renders identically everywhere.
  uint64_t days = unix_seconds / 86400;
  uint64_t rem = unix_seconds % 86400;
  int hour = static_cast<int>(rem / 3600);
  int min = static_cast<int>((rem % 3600) / 60);
  int sec = static_cast<int>(rem % 60);
  // 1970-01-01 was a Thursday.
  static const char* kDow[] = {"Thu", "Fri", "Sat", "Sun", "Mon", "Tue", "Wed"};
  const char* dow = kDow[days % 7];
  // Days -> y/m/d.
  int64_t z = static_cast<int64_t>(days) + 719468;
  int64_t era = z / 146097;
  int64_t doe = z - era * 146097;
  int64_t yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  int64_t y = yoe + era * 400;
  int64_t doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  int64_t mp = (5 * doy + 2) / 153;
  int64_t d = doy - (153 * mp + 2) / 5 + 1;
  int64_t m = mp + (mp < 10 ? 3 : -9);
  if (m <= 2) {
    y++;
  }
  static const char* kMon[] = {"Jan", "Feb", "Mar", "Apr", "May", "Jun",
                               "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"};
  return StrFormat("%s %s %lld %02d:%02d:%02d EDT %lld", dow, kMon[m - 1],
                   static_cast<long long>(d), hour, min, sec, static_cast<long long>(y));
}

void RegisterCoreutils(Vfs* vfs, CommandRegistry* registry) {
  registry->Register(vfs, "/bin/cat", Cat);
  registry->Register(vfs, "/bin/cp", Cp);
  registry->Register(vfs, "/bin/mv", Mv);
  registry->Register(vfs, "/bin/ls", Ls);
  registry->Register(vfs, "/bin/lc", Ls);  // Plan 9 habit
  registry->Register(vfs, "/bin/grep", Grep);
  registry->Register(vfs, "/bin/sed", Sed);
  registry->Register(vfs, "/bin/wc", Wc);
  registry->Register(vfs, "/bin/sort", Sort);
  registry->Register(vfs, "/bin/uniq", Uniq);
  registry->Register(vfs, "/bin/head",
                     [](ExecContext& c, const std::vector<std::string>& a, Io& i) {
                       return HeadTail(true, c, a, i);
                     });
  registry->Register(vfs, "/bin/tail",
                     [](ExecContext& c, const std::vector<std::string>& a, Io& i) {
                       return HeadTail(false, c, a, i);
                     });
  registry->Register(vfs, "/bin/touch", Touch);
  registry->Register(vfs, "/bin/mkdir", Mkdir);
  registry->Register(vfs, "/bin/rm", Rm);
  registry->Register(vfs, "/bin/basename", Basename);
  registry->Register(vfs, "/bin/dirname", Dirname);
  registry->Register(vfs, "/bin/date", DateCmd);
  registry->Register(vfs, "/bin/ps", Ps);
  registry->Register(vfs, "/bin/adb", Adb);
  registry->Register(vfs, "/bin/fortune", Fortune);
  registry->Register(vfs, "/bin/news", News);
  registry->Register(vfs, "/bin/true", True);
  registry->Register(vfs, "/bin/false", False);
  // bind: Plan 9 namespace surgery. The VFS has a single namespace, so this
  // is a successful no-op shim — profiles run unmodified.
  registry->Register(vfs, "/bin/bind",
                     [](ExecContext&, const std::vector<std::string>&, Io&) { return 0; });
  // echo is a shell builtin, but scripts sometimes invoke /bin/echo directly.
  registry->Register(vfs, "/bin/echo",
                     [](ExecContext& c, const std::vector<std::string>& a, Io& i) {
                       std::string line;
                       for (size_t k = 1; k < a.size(); k++) {
                         if (k > 1) {
                           line += ' ';
                         }
                         line += a[k];
                       }
                       *i.out += line + "\n";
                       return 0;
                     });
}

}  // namespace help
