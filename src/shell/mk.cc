#include "src/shell/mk.h"

#include <set>

#include "src/base/strings.h"
#include "src/obs/trace.h"

namespace help {

const MkRule* Mkfile::Find(std::string_view target) const {
  for (const MkRule& r : rules) {
    if (r.target == target) {
      return &r;
    }
  }
  return nullptr;
}

namespace {

// $NAME and ${NAME} substitution.
std::string SubstVars(std::string_view s, const std::map<std::string, std::string>& vars) {
  std::string out;
  size_t i = 0;
  while (i < s.size()) {
    if (s[i] != '$') {
      out += s[i++];
      continue;
    }
    i++;
    std::string name;
    if (i < s.size() && s[i] == '{') {
      i++;
      while (i < s.size() && s[i] != '}') {
        name += s[i++];
      }
      if (i < s.size()) {
        i++;
      }
    } else {
      while (i < s.size() && (isalnum(static_cast<unsigned char>(s[i])) != 0 || s[i] == '_')) {
        name += s[i++];
      }
    }
    auto it = vars.find(name);
    if (it != vars.end()) {
      out += it->second;
    } else {
      out += "$" + name;  // leave shell variables for the recipe's shell
    }
  }
  return out;
}

}  // namespace

Result<Mkfile> ParseMkfile(std::string_view src) {
  Mkfile mk;
  MkRule* current = nullptr;
  for (const std::string& raw : Split(src, '\n')) {
    if (!raw.empty() && raw[0] == '\t') {
      if (current == nullptr) {
        return Status::Error("mk: recipe line outside rule");
      }
      current->recipe.push_back(SubstVars(raw.substr(1), mk.vars));
      continue;
    }
    std::string_view line = TrimSpace(raw);
    if (line.empty() || line[0] == '#') {
      current = nullptr;
      continue;
    }
    size_t colon = line.find(':');
    size_t eq = line.find('=');
    if (eq != std::string_view::npos && (colon == std::string_view::npos || eq < colon)) {
      std::string name(TrimSpace(line.substr(0, eq)));
      mk.vars[name] = SubstVars(TrimSpace(line.substr(eq + 1)), mk.vars);
      current = nullptr;
      continue;
    }
    if (colon == std::string_view::npos) {
      return Status::Error("mk: expected 'target: deps' line: " + std::string(line));
    }
    MkRule rule;
    rule.target = SubstVars(TrimSpace(line.substr(0, colon)), mk.vars);
    for (const std::string& dep : Tokenize(SubstVars(line.substr(colon + 1), mk.vars))) {
      rule.deps.push_back(dep);
    }
    mk.rules.push_back(std::move(rule));
    current = &mk.rules.back();
  }
  return mk;
}

namespace {

class MkRun {
 public:
  MkRun(ExecContext& ctx, const Mkfile& mk, Io& io) : ctx_(ctx), mk_(mk), io_(io) {}

  // Returns the effective mtime of `name` after (re)building it if needed;
  // 0 means "does not exist and has no rule".
  Result<uint64_t> Build(const std::string& name, int depth) {
    if (depth > 64) {
      return Status::Error("mk: dependency cycle at " + name);
    }
    const MkRule* rule = mk_.Find(name);
    uint64_t self = Mtime(name);
    if (rule == nullptr) {
      if (self == 0) {
        return Status::Error("mk: don't know how to make " + name);
      }
      return self;
    }
    uint64_t newest_dep = 0;
    for (const std::string& dep : rule->deps) {
      auto t = Build(dep, depth + 1);
      if (!t.ok()) {
        return t;
      }
      newest_dep = std::max(newest_dep, t.value());
    }
    if (self == 0 || newest_dep > self) {
      Status s = RunRecipe(*rule);
      if (!s.ok()) {
        return s;
      }
      built_.insert(name);
      self = Mtime(name);
      if (self == 0) {
        // Phony target: pretend it is as fresh as its newest dependency.
        self = newest_dep;
      }
    }
    return self;
  }

  // The reverse mode (`mk -r`): rebuild every stale target in the file.
  Status BuildAllStale() {
    for (const MkRule& rule : mk_.rules) {
      auto t = Build(rule.target, 0);
      if (!t.ok()) {
        return t.status();
      }
    }
    return Status::Ok();
  }

  size_t built_count() const { return built_.size(); }

 private:
  uint64_t Mtime(const std::string& name) const {
    NodePtr node = ctx_.vfs->Find(JoinPath(ctx_.cwd, name));
    return node != nullptr ? node->mtime() : 0;
  }

  Status RunRecipe(const MkRule& rule) {
    Shell sh(ctx_.vfs, ctx_.registry, ctx_.procs);
    for (const std::string& line : rule.recipe) {
      *io_.out += line + "\n";  // mk echoes recipe lines as it runs them
      // Recipe lines route through Shell::Run and hence the script cache: a
      // rebuild of N targets sharing recipe text parses it once.
      OBS_COUNT("shell.mk_recipe", 1);
      Env env = ctx_.env != nullptr ? ctx_.env->Clone() : Env();
      env.SetString("target", rule.target);
      env.Set("prereq", rule.deps);
      Io rio;
      rio.out = io_.out;
      rio.err = io_.err;
      auto r = sh.Run(line, &env, ctx_.cwd, {}, rio, ctx_.depth + 1);
      if (!r.ok()) {
        return r.status();
      }
      if (r.value() != 0) {
        return Status::Error(StrFormat("mk: %s: exit status %d", rule.target.c_str(),
                                       r.value()));
      }
    }
    return Status::Ok();
  }

  ExecContext& ctx_;
  const Mkfile& mk_;
  Io& io_;
  std::set<std::string> built_;
};

int MkCmd(ExecContext& ctx, const std::vector<std::string>& argv, Io& io) {
  bool reverse = false;
  std::vector<std::string> targets;
  for (size_t i = 1; i < argv.size(); i++) {
    if (argv[i] == "-r") {
      reverse = true;
    } else {
      targets.push_back(argv[i]);
    }
  }
  auto src = ctx.vfs->ReadFile(JoinPath(ctx.cwd, "mkfile"));
  if (!src.ok()) {
    *io.err += "mk: no mkfile in " + ctx.cwd + "\n";
    return 1;
  }
  auto mkfile = ParseMkfile(src.value());
  if (!mkfile.ok()) {
    *io.err += mkfile.message() + "\n";
    return 1;
  }
  MkRun run(ctx, mkfile.value(), io);
  if (reverse) {
    Status s = run.BuildAllStale();
    if (!s.ok()) {
      *io.err += s.message() + "\n";
      return 1;
    }
    if (run.built_count() == 0) {
      *io.out += "mk: everything is up to date\n";
    }
    return 0;
  }
  if (targets.empty()) {
    if (mkfile.value().rules.empty()) {
      *io.err += "mk: nothing to make\n";
      return 1;
    }
    targets.push_back(mkfile.value().rules[0].target);
  }
  for (const std::string& t : targets) {
    auto r = run.Build(t, 0);
    if (!r.ok()) {
      *io.err += r.message() + "\n";
      return 1;
    }
  }
  if (run.built_count() == 0) {
    *io.out += "mk: '" + targets[0] + "' is up to date\n";
  }
  return 0;
}

}  // namespace

void RegisterMk(Vfs* vfs, CommandRegistry* registry) {
  registry->Register(vfs, "/bin/mk", MkCmd);
}

}  // namespace help
