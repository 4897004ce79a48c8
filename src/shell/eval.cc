// Shell evaluator: word expansion, pipelines, redirection, builtins, and
// external dispatch (native commands or nested shell scripts). Every entry
// point — Shell::Run, a script file run by RunArgv, the eval builtin — takes
// its parse tree from the script cache (src/shell/scriptcache.h) and walks it.
#include <algorithm>

#include "src/base/strings.h"
#include "src/shell/lex.h"
#include "src/shell/scriptcache.h"
#include "src/shell/shell.h"

namespace help {

namespace {

constexpr int kMaxDepth = 32;
constexpr int kNotFound = 127;

}  // namespace

// --- Glob -------------------------------------------------------------------

bool GlobMatch(std::string_view pattern, std::string_view name) {
  size_t pi = 0;
  size_t ni = 0;
  size_t star_pi = std::string_view::npos;
  size_t star_ni = 0;
  while (ni < name.size()) {
    if (pi < pattern.size()) {
      char pc = pattern[pi];
      if (pc == '*') {
        star_pi = pi++;
        star_ni = ni;
        continue;
      }
      if (pc == '?') {
        pi++;
        ni++;
        continue;
      }
      if (pc == '[') {
        size_t close = pattern.find(']', pi + 1);
        if (close != std::string_view::npos) {
          bool neg = pi + 1 < pattern.size() && pattern[pi + 1] == '^';
          size_t ci = pi + (neg ? 2 : 1);
          bool hit = false;
          while (ci < close) {
            if (ci + 2 < close && pattern[ci + 1] == '-') {
              if (name[ni] >= pattern[ci] && name[ni] <= pattern[ci + 2]) {
                hit = true;
              }
              ci += 3;
            } else {
              if (name[ni] == pattern[ci]) {
                hit = true;
              }
              ci++;
            }
          }
          if (hit != neg) {
            pi = close + 1;
            ni++;
            continue;
          }
        } else if (pc == name[ni]) {  // unclosed '[': literal
          pi++;
          ni++;
          continue;
        }
      } else if (pc == name[ni]) {
        pi++;
        ni++;
        continue;
      }
    }
    if (star_pi != std::string_view::npos) {
      pi = star_pi + 1;
      ni = ++star_ni;
      continue;
    }
    return false;
  }
  while (pi < pattern.size() && pattern[pi] == '*') {
    pi++;
  }
  return pi == pattern.size();
}

std::vector<std::string> GlobExpand(const Vfs& vfs, std::string_view cwd,
                                    std::string_view pattern) {
  std::string full = JoinPath(cwd, pattern);
  CleanElements elems(full);
  std::vector<std::string> current = {"/"};
  for (std::string_view elem; elems.Next(&elem);) {
    std::vector<std::string> next;
    if (!ShellHasGlobChars(elem)) {
      for (const std::string& dir : current) {
        std::string candidate = JoinPath(dir, elem);
        if (vfs.Find(candidate) != nullptr) {
          next.push_back(candidate);
        }
      }
    } else {
      for (const std::string& dir : current) {
        auto entries = vfs.ReadDir(dir);
        if (!entries.ok()) {
          continue;
        }
        for (const StatInfo& st : entries.value()) {
          if (GlobMatch(elem, st.name)) {
            next.push_back(JoinPath(dir, st.name));
          }
        }
      }
    }
    current = std::move(next);
    if (current.empty()) {
      break;
    }
  }
  if (current.empty()) {
    return {std::string(pattern)};  // rc: unmatched patterns pass through
  }
  std::sort(current.begin(), current.end());
  return current;
}

// --- Registry ----------------------------------------------------------------

void CommandRegistry::Register(Vfs* vfs, std::string_view path, NativeCommand fn) {
  std::string clean = CleanPath(path);
  commands_[clean] = std::move(fn);
  if (vfs != nullptr && vfs->Find(clean) == nullptr) {
    vfs->MkdirAll(DirPath(clean));
    vfs->WriteFile(clean, "#!native " + clean + "\n");
  }
}

const NativeCommand* CommandRegistry::Find(std::string_view path) const {
  auto it = commands_.find(CleanPath(path));
  return it == commands_.end() ? nullptr : &it->second;
}

// --- Evaluator ---------------------------------------------------------------

namespace {

class Evaluator {
 public:
  Evaluator(Shell* shell, Env* env, std::string cwd, int depth)
      : shell_(shell), env_(env), cwd_(std::move(cwd)), depth_(depth) {}

  Result<int> RunScript(const ShellScript& script, Io& io) {
    int status = 0;
    for (const Pipeline& line : script.lines) {
      if (exited_) {
        break;
      }
      auto r = RunPipeline(line, io);
      if (!r.ok()) {
        return r;
      }
      status = r.value();
      env_->SetString("status", StrFormat("%d", status));
    }
    return status;
  }

 private:
  Result<int> RunPipeline(const Pipeline& p, Io& io) {
    std::string carry = io.in;
    int status = 0;
    for (size_t i = 0; i < p.cmds.size(); i++) {
      bool last = i + 1 == p.cmds.size();
      std::string stage_out;
      Io stage;
      stage.in = std::move(carry);
      stage.out = last ? io.out : &stage_out;
      stage.err = io.err;
      auto r = RunCmd(p.cmds[i], stage);
      if (!r.ok()) {
        return r;
      }
      status = r.value();
      carry = std::move(stage_out);
    }
    return status;
  }

  Result<int> RunCmd(const ShellCmd& cmd, Io& io) {
    // Apply redirections around the core execution.
    std::string redirected_out;
    bool has_out = false;
    std::string out_path;
    bool append = false;
    for (const Redir& r : cmd.redirs) {
      auto target = ExpandWord(r.target);
      if (!target.ok()) {
        return target.status();
      }
      if (target.value().size() != 1) {
        return Status::Error("rc: redirection target is not a single word");
      }
      std::string path = JoinPath(cwd_, target.value()[0]);
      switch (r.kind) {
        case Redir::Kind::kIn: {
          auto data = shell_->vfs()->ReadFile(path);
          if (!data.ok()) {
            *io.err += data.message() + "\n";
            return 1;
          }
          io.in = data.take();
          break;
        }
        case Redir::Kind::kOut:
          has_out = true;
          append = false;
          out_path = path;
          break;
        case Redir::Kind::kAppend:
          has_out = true;
          append = true;
          out_path = path;
          break;
      }
    }
    Io inner = io;
    if (has_out) {
      inner.out = &redirected_out;
    }

    auto status = RunCmdCore(cmd, inner);
    if (!status.ok()) {
      return status;
    }
    if (has_out) {
      Status ws = append ? shell_->vfs()->AppendFile(out_path, redirected_out)
                         : shell_->vfs()->WriteFile(out_path, redirected_out);
      if (!ws.ok()) {
        *io.err += ws.message() + "\n";
        return 1;
      }
    }
    return status;
  }

  Result<int> RunCmdCore(const ShellCmd& cmd, Io& io) {
    switch (cmd.kind) {
      case ShellCmd::Kind::kBlock:
        return RunScript(*cmd.block, io);
      case ShellCmd::Kind::kIf: {
        Io cio = io;
        auto c = RunScript(*cmd.cond, cio);
        if (!c.ok()) {
          return c;
        }
        last_if_taken_ = c.value() == 0;
        if (!last_if_taken_) {
          return 0;
        }
        return RunScript(*cmd.body, io);
      }
      case ShellCmd::Kind::kIfNot:
        if (last_if_taken_) {
          return 0;
        }
        return RunScript(*cmd.body, io);
      case ShellCmd::Kind::kWhile: {
        int status = 0;
        for (int guard = 0; guard < 100000; guard++) {
          Io cio = io;
          auto c = RunScript(*cmd.cond, cio);
          if (!c.ok()) {
            return c;
          }
          if (c.value() != 0 || exited_) {
            return status;
          }
          auto b = RunScript(*cmd.body, io);
          if (!b.ok()) {
            return b;
          }
          status = b.value();
        }
        return Status::Error("rc: while loop ran away");
      }
      case ShellCmd::Kind::kFor: {
        std::vector<std::string> values;
        if (cmd.for_in) {
          for (const Word& w : cmd.for_list) {
            auto v = ExpandWord(w);
            if (!v.ok()) {
              return v.status();
            }
            bool quoted = std::any_of(w.frags.begin(), w.frags.end(), [](const WordFrag& f) {
              return f.kind == WordFrag::Kind::kQuoted;
            });
            for (std::string& field : v.value()) {
              if (!quoted && ShellHasGlobChars(field)) {
                for (std::string& m : GlobExpand(*shell_->vfs(), cwd_, field)) {
                  values.push_back(std::move(m));
                }
              } else {
                values.push_back(std::move(field));
              }
            }
          }
        } else {
          values = env_->Get("*");
        }
        int status = 0;
        for (const std::string& value : values) {
          env_->SetString(cmd.var, value);
          auto b = RunScript(*cmd.body, io);
          if (!b.ok()) {
            return b;
          }
          status = b.value();
          if (exited_) {
            break;
          }
        }
        return status;
      }
      case ShellCmd::Kind::kSwitch: {
        auto subject = ExpandWord(cmd.subject);
        if (!subject.ok()) {
          return subject.status();
        }
        std::string value = Join(subject.value(), " ");
        for (const CaseClause& clause : cmd.cases) {
          for (const Word& pw : clause.patterns) {
            auto pats = ExpandWord(pw);
            if (!pats.ok()) {
              return pats.status();
            }
            for (const std::string& pat : pats.value()) {
              if (GlobMatch(pat, value)) {
                return RunScript(*clause.body, io);
              }
            }
          }
        }
        return 0;
      }
      case ShellCmd::Kind::kFnDef: {
        // Copy-on-write so a child shell's definitions stay local.
        auto table = std::static_pointer_cast<FunctionTable>(env_->ext);
        auto copy = table != nullptr ? std::make_shared<FunctionTable>(*table)
                                     : std::make_shared<FunctionTable>();
        copy->Define(cmd.var, cmd.body);
        env_->ext = copy;
        return 0;
      }
      case ShellCmd::Kind::kSimple:
        break;
    }
    // Assignments: permanent when there is no command word, scoped to the
    // command otherwise (restored afterwards).
    std::vector<std::pair<std::string, std::vector<std::string>>> saved;
    for (const auto& [name, words] : cmd.assigns) {
      std::vector<std::string> value;
      for (const Word& word : words) {
        auto v = ExpandWord(word);
        if (!v.ok()) {
          return v.status();
        }
        for (std::string& field : v.value()) {
          value.push_back(std::move(field));
        }
      }
      if (!cmd.words.empty()) {
        saved.emplace_back(name, env_->Get(name));
      }
      env_->Set(name, std::move(value));
    }
    if (cmd.words.empty()) {
      return 0;
    }
    // Simple command: expand all words, then glob.
    std::vector<std::string> argv;
    for (const Word& w : cmd.words) {
      auto fields = ExpandWord(w);
      if (!fields.ok()) {
        return fields.status();
      }
      bool quoted = std::any_of(w.frags.begin(), w.frags.end(), [](const WordFrag& f) {
        return f.kind == WordFrag::Kind::kQuoted;
      });
      for (std::string& field : fields.value()) {
        if (!quoted && ShellHasGlobChars(field)) {
          for (std::string& m : GlobExpand(*shell_->vfs(), cwd_, field)) {
            argv.push_back(std::move(m));
          }
        } else {
          argv.push_back(std::move(field));
        }
      }
    }
    if (argv.empty()) {
      return 0;
    }
    auto result = Builtin(argv, io);
    for (auto& [name, value] : saved) {
      env_->Set(name, std::move(value));
    }
    return result;
  }

  Result<int> Builtin(std::vector<std::string>& argv, Io& io) {
    const std::string& name = argv[0];
    if (name == "!") {
      // Negation: run the rest and invert the status.
      if (argv.size() < 2) {
        return 1;
      }
      std::vector<std::string> rest(argv.begin() + 1, argv.end());
      auto r = Builtin(rest, io);
      if (!r.ok()) {
        return r;
      }
      return r.value() == 0 ? 1 : 0;
    }
    if (name == "~") {
      // rc's match builtin: `~ subject pattern...` succeeds when any glob
      // pattern matches the subject.
      if (argv.size() < 2) {
        return 1;
      }
      for (size_t i = 2; i < argv.size(); i++) {
        if (GlobMatch(argv[i], argv[1])) {
          return 0;
        }
      }
      return 1;
    }
    if (auto table = std::static_pointer_cast<FunctionTable>(env_->ext)) {
      if (auto fn = table->Find(name)) {
        // Functions run in the caller's environment with their own
        // positional parameters (saved and restored around the call).
        std::vector<std::string> saved_star = env_->Get("*");
        std::vector<std::vector<std::string>> saved_pos;
        for (int i = 1; i <= 9; i++) {
          saved_pos.push_back(env_->Get(StrFormat("%d", i)));
        }
        std::vector<std::string> args(argv.begin() + 1, argv.end());
        env_->Set("*", args);
        for (size_t i = 0; i < 9; i++) {
          if (i < args.size()) {
            env_->SetString(StrFormat("%zu", i + 1), args[i]);
          } else {
            env_->Unset(StrFormat("%zu", i + 1));
          }
        }
        auto r = RunScript(*fn, io);
        env_->Set("*", std::move(saved_star));
        for (int i = 1; i <= 9; i++) {
          env_->Set(StrFormat("%d", i), std::move(saved_pos[static_cast<size_t>(i - 1)]));
        }
        return r;
      }
    }
    if (name == "cd") {
      if (argv.size() > 1) {
        std::string to = JoinPath(cwd_, argv[1]);
        NodePtr node = shell_->vfs()->Find(to);
        if (node == nullptr || !node->dir()) {
          *io.err += "cd: " + to + ": bad directory\n";
          return 1;
        }
        cwd_ = to;
      } else {
        cwd_ = "/";
      }
      return 0;
    }
    if (name == "echo") {
      std::string line;
      size_t start = 1;
      bool nl = true;
      if (argv.size() > 1 && argv[1] == "-n") {
        nl = false;
        start = 2;
      }
      for (size_t i = start; i < argv.size(); i++) {
        if (i > start) {
          line += ' ';
        }
        line += argv[i];
      }
      if (nl) {
        line += '\n';
      }
      *io.out += line;
      return 0;
    }
    if (name == "eval") {
      std::string src;
      for (size_t i = 1; i < argv.size(); i++) {
        if (i > 1) {
          src += ' ';
        }
        src += argv[i];
      }
      // `eval `{help/parse -c}` runs the same text on every browse.
      auto script = ShellScriptCache::Global().Get(src);
      if (!script.ok()) {
        *io.err += script.message() + "\n";
        return 1;
      }
      return RunScript(*script.value(), io);
    }
    if (name == "exit") {
      exited_ = true;
      return argv.size() > 1 ? static_cast<int>(ParseInt(argv[1])) : 0;
    }
    // External.
    ExecContext ctx;
    ctx.vfs = shell_->vfs();
    ctx.registry = shell_->registry();
    ctx.procs = shell_->procs();
    ctx.env = env_;
    ctx.cwd = cwd_;
    ctx.depth = depth_;
    return shell_->RunArgv(ctx, argv, io);
  }

  // Expands a word to a field list: per-fragment lists combined by rc's
  // distribution rule (singleton × list distributes; equal lengths pair).
  Result<std::vector<std::string>> ExpandWord(const Word& w) {
    std::vector<std::string> acc;
    bool acc_init = false;
    for (const WordFrag& f : w.frags) {
      std::vector<std::string> part;
      switch (f.kind) {
        case WordFrag::Kind::kLit:
        case WordFrag::Kind::kQuoted:
          part = {f.text};
          break;
        case WordFrag::Kind::kVar: {
          if (!f.text.empty() && f.text[0] == '#') {
            part = {StrFormat("%zu", env_->Get(f.text.substr(1)).size())};
          } else {
            part = env_->Get(f.text);
          }
          break;
        }
        case WordFrag::Kind::kBackquote: {
          std::string captured;
          Io sub;
          sub.out = &captured;
          std::string sub_err;
          sub.err = &sub_err;
          auto r = RunScript(*f.script, sub);
          if (!r.ok()) {
            return r.status();
          }
          part = Tokenize(captured);
          break;
        }
      }
      if (!acc_init) {
        acc = std::move(part);
        acc_init = true;
        continue;
      }
      // Distribution rule.
      if (part.empty() || acc.empty()) {
        // Concatenation with an empty list yields the other side unchanged
        // when one side is empty (rc errors; being lenient is friendlier
        // for window tags with empty fields).
        if (acc.empty()) {
          acc = std::move(part);
        }
        continue;
      }
      std::vector<std::string> merged;
      if (acc.size() == 1) {
        for (const std::string& p : part) {
          merged.push_back(acc[0] + p);
        }
      } else if (part.size() == 1) {
        for (const std::string& a : acc) {
          merged.push_back(a + part[0]);
        }
      } else if (acc.size() == part.size()) {
        for (size_t i = 0; i < acc.size(); i++) {
          merged.push_back(acc[i] + part[i]);
        }
      } else {
        return Status::Error("rc: mismatched list lengths in concatenation");
      }
      acc = std::move(merged);
    }
    return acc;
  }

  Shell* shell_;
  Env* env_;
  std::string cwd_;
  int depth_;
  bool exited_ = false;
  bool last_if_taken_ = false;
};

// Binds the positional parameters ($*, $1..$9) in `env` and walks `script`.
Result<int> RunParsed(Shell* shell, const ShellScript& script, Env* env, std::string cwd,
                      const std::vector<std::string>& args, Io& io, int depth) {
  env->Set("*", args);
  for (size_t i = 0; i < args.size() && i < 9; i++) {
    env->SetString(StrFormat("%zu", i + 1), args[i]);
  }
  Evaluator ev(shell, env, std::move(cwd), depth);
  return ev.RunScript(script, io);
}

}  // namespace

Result<int> Shell::Run(std::string_view src, Env* env, std::string cwd,
                       const std::vector<std::string>& args, Io& io, int depth) {
  if (depth > kMaxDepth) {
    return Status::Error("rc: script recursion too deep");
  }
  auto script = ShellScriptCache::Global().Get(src);
  if (!script.ok()) {
    return script.status();
  }
  return RunParsed(this, *script.value(), env, std::move(cwd), args, io, depth);
}

std::string Shell::ResolveCommand(std::string_view name, std::string_view cwd) const {
  if (IsAbsPath(name)) {
    std::string path = CleanPath(name);
    NodePtr node = vfs_->Find(path);
    return node != nullptr && !node->dir() ? path : std::string();
  }
  // Relative names (with or without internal slashes, so the tool-suite
  // convention `help/rcc` works from any directory): current directory
  // first, then the standard directory of program binaries.
  for (std::string_view dir : {cwd, std::string_view("/bin")}) {
    std::string path = JoinPath(dir, name);
    NodePtr node = vfs_->Find(path);
    if (node != nullptr && !node->dir()) {
      return path;
    }
  }
  return std::string();
}

int Shell::RunArgv(ExecContext& ctx, const std::vector<std::string>& argv, Io& io) {
  if (argv.empty()) {
    return 0;
  }
  std::string path = ResolveCommand(argv[0], ctx.cwd);
  if (path.empty()) {
    *io.err += argv[0] + ": file does not exist\n";
    return kNotFound;
  }
  std::vector<std::string> resolved = argv;
  resolved[0] = path;
  if (const NativeCommand* native = registry_->Find(path)) {
    return (*native)(ctx, resolved, io);
  }
  // Shell script: run its file contents with $1.. bound to the arguments.
  // The file-keyed cache lets a repeated tool run skip the read and parse;
  // a read or parse error is reported before the recursion limit.
  auto script = ShellScriptCache::Global().GetFile(*vfs_, path);
  if (!script.ok()) {
    *io.err += script.message() + "\n";
    return 1;
  }
  if (ctx.depth + 1 > kMaxDepth) {
    *io.err += "rc: script recursion too deep\n";
    return 1;
  }
  Env child = ctx.env != nullptr ? ctx.env->Clone() : Env();
  std::vector<std::string> args(argv.begin() + 1, argv.end());
  auto r = RunParsed(this, *script.value(), &child, ctx.cwd, args, io, ctx.depth + 1);
  if (!r.ok()) {
    *io.err += r.message() + "\n";
    return 1;
  }
  return r.value();
}

}  // namespace help
