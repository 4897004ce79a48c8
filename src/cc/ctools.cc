#include "src/cc/ctools.h"

#include <algorithm>

#include "src/base/strings.h"
#include "src/cc/browser.h"
#include "src/cc/cpp.h"

namespace help {

namespace {

int CppCmd(ExecContext& ctx, const std::vector<std::string>& argv, Io& io) {
  std::string file;
  for (size_t i = 1; i < argv.size(); i++) {
    if (!argv[i].empty() && argv[i][0] == '-') {
      continue;  // -D/-I etc. accepted and ignored
    }
    file = argv[i];
  }
  if (file.empty()) {
    *io.out += io.in;  // filter mode: pass stdin through
    return 0;
  }
  auto pp = Preprocess(*ctx.vfs, JoinPath(ctx.cwd, file));
  if (!pp.ok()) {
    *io.err += "cpp: " + pp.message() + "\n";
    return 1;
  }
  *io.out += pp.take();
  return 0;
}

struct RccArgs {
  std::string id;
  int line = 0;
  std::string file;          // -f: the file containing the marked identifier
  std::string src_name;      // -s: function whose definition is wanted
  bool uses = false;         // -u
  std::vector<std::string> files;
};

RccArgs ParseRccArgs(const std::vector<std::string>& argv) {
  RccArgs a;
  for (size_t i = 1; i < argv.size(); i++) {
    const std::string& s = argv[i];
    if (HasPrefix(s, "-i")) {
      a.id = s.substr(2);
    } else if (HasPrefix(s, "-n")) {
      a.line = static_cast<int>(ParseInt(s.substr(2)));
    } else if (HasPrefix(s, "-f")) {
      a.file = s.substr(2);
    } else if (HasPrefix(s, "-s")) {
      a.src_name = s.substr(2);
    } else if (s == "-u") {
      a.uses = true;
    } else if (HasPrefix(s, "-")) {
      // -w -g and friends: accepted for compatibility, ignored.
    } else {
      a.files.push_back(s);
    }
  }
  return a;
}

// Prints a source coordinate the way the paper's windows show them: paths
// under `dir` are relative; files reached only via #include get a "./".
std::string DisplayPath(std::string_view file, const std::string& dir,
                        const std::vector<std::string>& named_files) {
  std::string rel(file);
  std::string prefix = dir == "/" ? dir : dir + "/";
  if (HasPrefix(rel, prefix)) {
    rel = rel.substr(prefix.size());
  }
  std::string base = BasePath(rel);
  for (const std::string& f : named_files) {
    if (BasePath(f) == base) {
      return rel;
    }
  }
  if (rel.find('/') == std::string::npos) {
    return "./" + rel;
  }
  return rel;
}

int RccCmd(ExecContext& ctx, const std::vector<std::string>& argv, Io& io) {
  RccArgs a = ParseRccArgs(argv);
  auto fail = [&](const std::string& message) {
    *io.err += "rcc: " + message + "\n";
    return 1;
  };
  std::string anchor_file = a.file.empty() ? "" : JoinPath(ctx.cwd, a.file);  // -f, in full
  CBrowser browser;
  if (!a.files.empty()) {
    std::vector<std::string> paths;
    for (const std::string& f : a.files) {
      paths.push_back(JoinPath(ctx.cwd, f));
    }
    // The anchor file must be parsed too, or the marked identifier is
    // unresolvable.
    if (!anchor_file.empty() && std::find(paths.begin(), paths.end(), anchor_file) == paths.end()) {
      paths.push_back(anchor_file);
    }
    for (const std::string& path : paths) {
      if (Status s = browser.AddFile(*ctx.vfs, path); !s.ok()) {
        return fail(s.message());
      }
    }
  } else if (!io.in.empty()) {
    // Preprocessed translation unit on stdin (the decl pipeline).
    Status s = browser.AddTranslationUnit(io.in, anchor_file.empty() ? "<stdin>" : anchor_file);
    if (!s.ok()) {
      return fail(s.message());
    }
  } else {
    *io.err += "usage: rcc [-u] [-sname] -iID -nLINE -fFILE [files...]\n";
    return 1;
  }

  std::string dir = anchor_file.empty() ? ctx.cwd : DirPath(anchor_file);

  if (!a.src_name.empty()) {
    const CSymbol* f = browser.FindFunc(a.src_name);
    if (f == nullptr) {
      return fail("no definition of " + a.src_name);
    }
    *io.out += StrFormat("%s:%d\n", DisplayPath(f->file, dir, a.files).c_str(), f->line);
    return 0;
  }

  if (a.id.empty()) {
    return fail("no identifier marked (-i)");
  }
  const CSymbol* sym = browser.ResolveAt(a.id, anchor_file, a.line);
  if (sym == nullptr) {
    return fail("cannot resolve " + a.id);
  }
  if (a.uses) {
    for (const CUse& u : browser.UsesOf(sym->id)) {
      *io.out += StrFormat("%s:%d\n", DisplayPath(u.file, dir, a.files).c_str(), u.line);
    }
    return 0;
  }
  // Declaration query: one line, "file:line identifier".
  *io.out += StrFormat("%s:%d %s\n", DisplayPath(sym->file, dir, a.files).c_str(),
                       sym->line, sym->name.c_str());
  return 0;
}

// vc: "compile" a C file — read its unit's tokens for real (reporting genuine
// syntax-level errors) and stamp <stem>.v.
int VcCmd(ExecContext& ctx, const std::vector<std::string>& argv, Io& io) {
  std::string file;
  for (size_t i = 1; i < argv.size(); i++) {
    if (!HasPrefix(argv[i], "-")) {
      file = argv[i];
    }
  }
  if (file.empty()) {
    *io.err += "usage: vc [-w] file.c\n";
    return 1;
  }
  CSources sources(*ctx.vfs);
  CUnit unit;
  if (Status s = sources.Unit(JoinPath(ctx.cwd, file), &unit); !s.ok()) {
    *io.err += "vc: " + s.message() + "\n";
    return 1;
  }
  // Balanced-delimiter check: the cheapest real syntax diagnostic.
  int brace = 0;
  int paren = 0;
  for (const CUnit::Run& run : unit.runs) {
    for (const CToken* t = run.begin; t != run.end; t++) {
      char c = t->kind == CTok::kPunct && t->text.size() == 1 ? t->text[0] : 0;
      brace += (c == '{') - (c == '}');
      paren += (c == '(') - (c == ')');
      if (brace < 0 || paren < 0) {
        *io.err += StrFormat("vc: %.*s:%d: unbalanced '%c'\n", static_cast<int>(t->file.size()),
                             t->file.data(), t->line, c);
        return 1;
      }
    }
  }
  if (brace != 0 || paren != 0) {
    *io.err += "vc: " + file + ": unbalanced braces at end of file\n";
    return 1;
  }
  std::string stem = file;
  if (HasSuffix(stem, ".c")) {
    stem = stem.substr(0, stem.size() - 2);
  }
  std::string obj = JoinPath(ctx.cwd, stem + ".v");
  Status s = ctx.vfs->WriteFile(obj, StrFormat("object %s ntokens %zu\n", file.c_str(),
                                               unit.At(unit.runs.size())));
  if (!s.ok()) {
    *io.err += "vc: " + s.message() + "\n";
    return 1;
  }
  return 0;
}

// vl: "link" — verify objects exist, stamp the output binary.
int VlCmd(ExecContext& ctx, const std::vector<std::string>& argv, Io& io) {
  std::string out = "v.out";
  std::vector<std::string> objs;
  for (size_t i = 1; i < argv.size(); i++) {
    if (argv[i] == "-o" && i + 1 < argv.size()) {
      out = argv[++i];
    } else if (HasPrefix(argv[i], "-l") || HasPrefix(argv[i], "-")) {
      continue;  // libraries and flags: accepted
    } else {
      objs.push_back(argv[i]);
    }
  }
  std::string manifest = "#!binary\n";
  for (const std::string& o : objs) {
    if (ctx.vfs->Find(JoinPath(ctx.cwd, o)) == nullptr) {
      *io.err += "vl: cannot open " + o + "\n";
      return 1;
    }
    manifest += o + "\n";
  }
  Status s = ctx.vfs->WriteFile(JoinPath(ctx.cwd, out), manifest);
  if (!s.ok()) {
    *io.err += "vl: " + s.message() + "\n";
    return 1;
  }
  return 0;
}

}  // namespace

void RegisterCompilerTools(Vfs* vfs, CommandRegistry* registry) {
  registry->Register(vfs, "/bin/cpp", CppCmd);
  registry->Register(vfs, "/bin/help/rcc", RccCmd);
  registry->Register(vfs, "/bin/vc", VcCmd);
  registry->Register(vfs, "/bin/vl", VlCmd);
}

}  // namespace help
