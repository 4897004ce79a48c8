// The C browser: "a special version of the compiler [that] has no code
// generator: it parses the program and manages the symbol table". It powers
// /help/cbr's `decl` and `uses` (and `src`), giving language-aware answers
// where grep would report "every occurrence of the letter n in the program".
//
// The parser is a scope-tracking declaration reader for 1991 ANSI C: it
// learns typedefs, records declarations of globals, functions, parameters
// and block-locals, and resolves every identifier occurrence in executable
// code to the symbol it denotes under C scoping rules. It is deliberately
// not a full expression parser — browsing needs name resolution, not types.
#ifndef SRC_CC_BROWSER_H_
#define SRC_CC_BROWSER_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/base/status.h"
#include "src/cc/clex.h"
#include "src/fs/vfs.h"

namespace help {

enum class CSymKind {
  kTypedef,
  kStructTag,
  kEnumConst,
  kFunc,
  kGlobalVar,
  kParam,
  kLocal,
  kField,
  kImplicit,  // referenced but never declared in parsed text (libc, etc.)
};

struct CSymbol {
  int id = -1;
  std::string name;
  CSymKind kind = CSymKind::kImplicit;
  std::string file;  // declaration coordinate
  int line = 0;
  int col = 0;
  int func = -1;  // enclosing function symbol for params/locals, else -1
  bool is_definition = false;  // for kFunc: definition vs prototype
};

struct CUse {
  int sym = -1;
  std::string file;
  int line = 0;
  int col = 0;
  bool is_decl = false;
};

class CBrowser {
 public:
  // Parses preprocessed text (with #line markers) as one translation unit.
  // Typedef names are scoped to the unit: it learns them from its own text,
  // that is, from the headers it includes. Symbols and uses accumulate
  // across units, and keep no reference to `text` or `filename`.
  Status AddTranslationUnit(std::string_view text, std::string_view filename);

  // Convenience: preprocess `path` from `vfs`, then add it.
  Status AddFile(const Vfs& vfs, std::string_view path);

  const std::vector<CSymbol>& symbols() const { return symbols_; }

  // Resolves the identifier occurrence nearest to `file`:`line` with the
  // given name (an occurrence on that exact line is preferred; the column is
  // unknown to callers since help passes only line context). Null if the
  // name never occurs there.
  const CSymbol* ResolveAt(std::string_view name, std::string_view file, int line) const;

  // All occurrences (declaration + uses) of symbol `id`, in file/line order.
  std::vector<CUse> UsesOf(int id) const;

  // Function definition lookup (the cbr `src` command).
  const CSymbol* FindFunc(std::string_view name) const;
  // File-scope lookup by name (globals, typedefs, functions).
  const CSymbol* FindGlobal(std::string_view name) const;

 private:
  friend class CParser;

  // Everything known about one spelling, found with one hash lookup.
  struct Name {
    int global = -1;        // file-scope binding: global, typedef, function, tag
    int typedef_unit = -1;  // the last unit that declared it a typedef name
    std::vector<int> syms;  // its file-scope-kind symbols, for Intern's dedupe
  };

  Name& NameOf(std::string_view name);
  // Returns the existing symbol with the identity (name, kind, at's file and
  // line) or registers a new one, so that headers parsed in several
  // translation units yield one symbol. Params and locals are never shared.
  int Intern(std::string_view name, CSymKind kind, const CToken& at, int func = -1,
             bool is_definition = false);
  // Records an occurrence once per (sym, file, line, col).
  void RecordUse(int sym, const CToken& at, bool is_decl);

  struct ViewHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const { return std::hash<std::string_view>{}(s); }
  };

  std::vector<CSymbol> symbols_;
  std::vector<CUse> uses_;
  std::unordered_map<std::string, Name, ViewHash, std::equal_to<>> names_;
  std::unordered_multimap<size_t, size_t> use_index_;  // hash of (sym, line, col) -> use
  int unit_ = 0;  // serial number of the unit being parsed
};

}  // namespace help

#endif  // SRC_CC_BROWSER_H_
