// An rc-like shell [Duff90], the command language of help's world. It is
// complete enough to run the paper's `decl` browser script verbatim:
//
//   eval `{help/parse -c}
//   x=`{cat /mnt/help/new/ctl}
//   {
//     echo a
//     echo $dir/^'Close!'
//     help/buf
//   } > /mnt/help/$x/ctl
//   cpp $cppflags $file |
//     help/rcc -w -g -i$id -n$line |
//     sed 1q
//   > /mnt/help/$x/bodyapp
//
// Supported: words with single-quote quoting and ^ concatenation, $var list
// expansion ($*, $1..$9, $#var, $status), `{...} command substitution,
// pipelines, { ... } blocks, ; and newline separators, > >> < redirection,
// name=value and name=(list) assignment, glob expansion against the VFS,
// comments, control flow (if / if not / for / while / switch-case / fn),
// and the builtins cd, eval, exit, echo, ~ (match), ! (negate).
//
// All I/O is in-memory: commands read a stdin string and append to stdout/
// stderr strings. Pipelines run left-to-right, fully materialized — help's
// model (the paper routes command output to the Errors window wholesale)
// never needs streaming concurrency.
#ifndef SRC_SHELL_SHELL_H_
#define SRC_SHELL_SHELL_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/fs/vfs.h"
#include "src/proc/env.h"
#include "src/proc/proc.h"

namespace help {

// --- AST --------------------------------------------------------------------

struct ShellScript;

struct WordFrag {
  enum class Kind { kLit, kQuoted, kVar, kBackquote };
  Kind kind = Kind::kLit;
  std::string text;                     // kLit/kQuoted: text; kVar: variable name
  std::shared_ptr<ShellScript> script;  // kBackquote
};

struct Word {
  std::vector<WordFrag> frags;
};

struct Redir {
  enum class Kind { kIn, kOut, kAppend };
  Kind kind;
  Word target;
};

struct CaseClause {
  std::vector<Word> patterns;
  std::shared_ptr<ShellScript> body;
};

struct ShellCmd {
  // A command is a simple command (zero or more leading NAME=value
  // assignments followed by words), a { block }, or one of rc's control
  // structures.
  enum class Kind { kSimple, kBlock, kIf, kIfNot, kFor, kWhile, kSwitch, kFnDef };
  Kind kind = Kind::kSimple;

  std::vector<std::pair<std::string, std::vector<Word>>> assigns;
  std::vector<Word> words;
  std::shared_ptr<ShellScript> block;     // kBlock
  std::vector<Redir> redirs;

  // Control flow.
  std::shared_ptr<ShellScript> cond;      // kIf/kWhile condition
  std::shared_ptr<ShellScript> body;      // kIf/kIfNot/kFor/kWhile body, kFnDef body
  std::string var;                        // kFor loop variable, kFnDef name
  std::vector<Word> for_list;             // kFor values ($* when empty and !for_in)
  bool for_in = false;                    // kFor had an explicit `in` list
  Word subject;                           // kSwitch subject
  std::vector<CaseClause> cases;          // kSwitch clauses
};

struct Pipeline {
  std::vector<ShellCmd> cmds;
};

struct ShellScript {
  std::vector<Pipeline> lines;
};

// Parses a script; reports rc-style syntax errors.
Result<std::shared_ptr<ShellScript>> ParseShell(std::string_view src);

// --- Execution --------------------------------------------------------------

struct Io {
  std::string in;              // stdin contents
  std::string* out = nullptr;  // appended to
  std::string* err = nullptr;  // appended to
};

class CommandRegistry;

// Everything a running command can touch.
struct ExecContext {
  Vfs* vfs = nullptr;
  CommandRegistry* registry = nullptr;
  ProcTable* procs = nullptr;  // may be null where irrelevant
  Env* env = nullptr;          // the invoking shell's environment
  std::string cwd = "/";
  int depth = 0;  // script-recursion guard
};

// A native command: argv[0] is the resolved path it was invoked as.
using NativeCommand =
    std::function<int(ExecContext& ctx, const std::vector<std::string>& argv, Io& io)>;

// Shell functions (rc `fn name { ... }`), stored in the environment so they
// clone into subshells the way variables do.
class FunctionTable {
 public:
  void Define(std::string name, std::shared_ptr<ShellScript> body) {
    fns_[std::move(name)] = std::move(body);
  }
  std::shared_ptr<ShellScript> Find(const std::string& name) const {
    auto it = fns_.find(name);
    return it == fns_.end() ? nullptr : it->second;
  }

 private:
  std::map<std::string, std::shared_ptr<ShellScript>> fns_;
};

// Maps VFS paths of executables to native implementations. Files not in the
// registry but present in the VFS execute as shell scripts (that is how the
// whole /help tool tree works).
class CommandRegistry {
 public:
  // Registers `fn` at `path`, creating a marker file in `vfs` so the binary
  // is visible to ls and to help's directory listings.
  void Register(Vfs* vfs, std::string_view path, NativeCommand fn);
  const NativeCommand* Find(std::string_view path) const;

 private:
  std::map<std::string, NativeCommand, std::less<>> commands_;
};

class Shell {
 public:
  Shell(Vfs* vfs, CommandRegistry* registry, ProcTable* procs)
      : vfs_(vfs), registry_(registry), procs_(procs) {}

  // Runs `src` with positional arguments `args` ($1.., $*) in `env`+`cwd`.
  // Returns the script's exit status, or an error for syntax failures.
  Result<int> Run(std::string_view src, Env* env, std::string cwd,
                  const std::vector<std::string>& args, Io& io, int depth = 0);

  // Executes an already-expanded argv (no shell syntax) — the path help's
  // core uses to run external commands. Resolution order: explicit slash →
  // as-is relative to cwd; otherwise cwd, then /bin.
  int RunArgv(ExecContext& ctx, const std::vector<std::string>& argv, Io& io);

  // Resolves a command name to a VFS path using the rules above; empty if
  // not found anywhere.
  std::string ResolveCommand(std::string_view name, std::string_view cwd) const;

  Vfs* vfs() { return vfs_; }
  CommandRegistry* registry() { return registry_; }
  ProcTable* procs() { return procs_; }

 private:
  Vfs* vfs_;
  CommandRegistry* registry_;
  ProcTable* procs_;
};

// Glob matching (exported for tests): does `name` match `pattern`?
// Supports *, ?, and [ranges].
bool GlobMatch(std::string_view pattern, std::string_view name);

// Expands glob `pattern` (absolute or cwd-relative) against the VFS; returns
// matches in sorted order, or the pattern itself when nothing matches (rc's
// behaviour).
std::vector<std::string> GlobExpand(const Vfs& vfs, std::string_view cwd,
                                    std::string_view pattern);

}  // namespace help

#endif  // SRC_SHELL_SHELL_H_
