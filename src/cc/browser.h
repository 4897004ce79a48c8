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

#include <memory>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "src/base/status.h"
#include "src/cc/clex.h"
#include "src/cc/cpp.h"
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
  // Declaration coordinate. `file` views the browser's one copy of the
  // file name, so it is valid only while the browser lives.
  std::string_view file;
  int line = 0;
  int col = 0;
  int func = -1;  // enclosing function symbol for params/locals, else -1
  bool is_definition = false;  // for kFunc: definition vs prototype
};

struct CUse {
  int sym = -1;
  std::string_view file;  // the browser's copy, as in CSymbol
  int line = 0;
  int col = 0;
  bool is_decl = false;
};

class CBrowser {
 public:
  CBrowser() = default;
  // Not copyable or movable: sources_ interns into this browser's names_.
  CBrowser(const CBrowser&) = delete;
  CBrowser& operator=(const CBrowser&) = delete;

  // Parses preprocessed text (with #line markers) as one translation unit.
  // Typedef names are scoped to the unit: it learns them from its own text,
  // that is, from the headers it includes. Symbols and uses accumulate
  // across units, and keep no reference to `text` or `filename`.
  Status AddTranslationUnit(std::string_view text, std::string_view filename);

  // Adds the unit rooted at `path` in `vfs`. Each file is read and lexed
  // once per browser, so a browser sees a file as it was when first read:
  // use one browser per command. A header is parsed once: a later unit that
  // reaches it between two top-level declarations replays what its last
  // parse did, if every typedef name that parse looked up outside the
  // header still reads the same. The answers are those of parsing it again.
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

  // One effect of parsing a header on the browser, in parse order, for
  // replay. `sym` is the symbol the effect last resolved to; a replay that
  // resolves to it again records no use, since that use is recorded.
  struct HeaderOp {
    enum Kind : uint8_t {
      kTypedefRead,   // was `name` a typedef name (`flag`)
      kTypedefWrite,  // `name` became a typedef name
      kDeclare,       // file-scope declaration of `name`, of kind `kind`, at `at`
      kUse,           // use of `name` at `at`, implicitly declared if unbound
      kBoundUse,      // use of `name` at `at`, only if it is bound
    };
    Kind op;
    bool flag = false;  // kTypedefRead: the answer; kDeclare: a definition
    CSymKind kind = CSymKind::kImplicit;
    int name = -1;
    int sym = -1;
    const CToken* at = nullptr;  // in the file's own token list
  };
  // What the last parse of a header did: the headers it expanded, which
  // make its tokens, the typedef answers it read before it bound the name
  // itself, and its other effects.
  struct HeaderRecord {
    bool valid = false;
    std::vector<int> inner;
    std::vector<std::pair<int, bool>> reads;
    std::vector<HeaderOp> ops;
  };

  // Everything known about one spelling, indexed by its id in names_.
  struct Name {
    int global = -1;        // file-scope binding: global, typedef, function, tag
    int typedef_unit = -1;  // the last unit that declared it a typedef name
    int tag = -1;           // the id of "struct <spelling>", once needed
    std::vector<int> syms;  // its file-scope-kind symbols, for Intern's dedupe
  };

  // `file` as a string the browser owns: symbols and uses view one copy of
  // each file name, valid while the browser lives.
  std::string_view FileName(std::string_view file);
  // The id of `spelling`, with room for it in info_.
  int NameId(std::string_view spelling);
  Name& NameOf(int name) { return info_[static_cast<size_t>(name)]; }
  const Name& NameOf(int name) const { return info_[static_cast<size_t>(name)]; }
  // The id that struct, union and enum tag `name` is kept under.
  int TagOf(int name);
  // Returns the existing symbol with the identity (name, kind, at's file and
  // line) or registers a new one, so that headers parsed in several
  // translation units yield one symbol. Params and locals are never shared.
  int Intern(int name, CSymKind kind, const CToken& at, int func = -1,
             bool is_definition = false);
  // Records an occurrence once per (sym, file, line, col).
  void RecordUse(int sym, const CToken& at, bool is_decl);
  // The slot of use_slots_ that holds that occurrence, or the empty slot
  // where it would go.
  size_t UseSlot(int sym, std::string_view file, int line, int col) const;
  // Parses `unit`, whose identifiers carry ids from names_, as the next unit.
  Status ParseUnit(const CUnit& unit);
  // Applies `op` as the parse that recorded it did.
  void Apply(HeaderOp& op);
  // Replays the record of unit.headers[header], appending what it did to
  // `log` if set; false, with nothing done, if it has none or it would
  // parse differently now.
  bool Replay(const CUnit& unit, size_t header, std::vector<HeaderOp>* log);
  // Keeps log[begin, end) as the record of unit.headers[header].
  void Record(const CUnit& unit, size_t header, const std::vector<HeaderOp>& log, size_t begin);

  std::vector<CSymbol> symbols_;
  std::vector<CUse> uses_;
  std::unordered_set<std::string> file_names_;  // FileName's copies
  std::string_view last_file_;                  // the one FileName returned last
  CNames names_;
  std::vector<Name> info_;
  std::vector<int> use_slots_;  // uses_ by (sym, file, line, col), open-addressed; -1 is empty
  std::unique_ptr<CSources> sources_;  // every file AddFile has read, read once
  CUnit unit_runs_;                    // the unit AddFile is parsing
  std::vector<HeaderRecord> headers_;  // by sources_' file id
  int unit_ = 0;  // serial number of the unit being parsed
};

}  // namespace help

#endif  // SRC_CC_BROWSER_H_
