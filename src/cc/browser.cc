#include "src/cc/browser.h"

#include <algorithm>
#include <bit>
#include <tuple>

#include "src/obs/trace.h"

namespace help {

namespace {

// The declaration-specifier keywords, one bit per CKeyword id.
constexpr uint64_t kSpecifiers = [] {
  uint64_t mask = 0;
  for (std::string_view k : {"void", "char", "short", "int", "long", "float", "double", "signed",
                             "unsigned", "struct", "union", "enum", "const", "volatile", "static",
                             "extern", "register", "auto"}) {
    mask |= uint64_t{1} << CKeyword(k);
  }
  return mask;
}();

bool IsSpecifierKeyword(const CToken& t) {
  return t.kind == CTok::kKeyword && (kSpecifiers >> t.name & 1) != 0;
}

}  // namespace

// ---------------------------------------------------------------------------
// Parser.

class CParser {
 public:
  CParser(CBrowser* browser, const CUnit& unit)
      : b_(browser), unit_(unit), cur_(unit.runs.front().begin) {}

  Status Parse() {
    while (true) {
      AtBoundary();
      if (AtEof()) {
        break;
      }
      size_t before = pos_;
      ParseTopLevel();
      if (pos_ == before) {
        Next();  // never stall
      }
    }
    return Status::Ok();
  }

 private:
  // --- token helpers ---
  // The unit's tokens are read in place, run by run; pos_ counts the tokens
  // read so far, so it is the current token's index in the unit.
  const CToken& Cur() const { return *cur_; }
  const CToken& Ahead(size_t k) const {
    const CToken* t = cur_;
    for (size_t run = run_; k > 0 && t->kind != CTok::kEof; k--) {
      if (++t == unit_.runs[run].end) {
        t = unit_.runs[++run].begin;
      }
    }
    return *t;
  }
  bool AtEof() const { return Cur().kind == CTok::kEof; }
  void Next() {
    if (AtEof()) {
      return;
    }
    prev_ = cur_;
    pos_++;
    if (++cur_ == unit_.runs[run_].end) {
      cur_ = unit_.runs[++run_].begin;
    }
  }
  // Continues at the first token of runs[run].
  void JumpTo(size_t run) {
    prev_ = unit_.runs[run - 1].end - 1;
    run_ = run;
    cur_ = unit_.runs[run].begin;
    pos_ = unit_.runs[run].at;
  }

  // --- headers ---
  // Between two top-level declarations: finishes the recordings of the
  // headers that end here, then replays, or starts recording, each header
  // that starts here. A header entered or left in the middle of a
  // declaration is parsed, and its record is dropped.
  void AtBoundary() {
    while (true) {
      while (!recording_.empty() && unit_.At(recording_.back().header->last) <= pos_) {
        const Recording& r = recording_.back();
        // A parse that stopped at the unit's end may have read past the
        // header's last token without taking another; one that stopped
        // before any other token did not read it.
        if (r.valid && unit_.At(r.header->last) == pos_ && !AtEof()) {
          b_->Record(unit_, static_cast<size_t>(r.header - unit_.headers.data()), log_, r.begin);
        }
        recording_.pop_back();
      }
      if (recording_.empty()) {
        log_.clear();
      }
      if (header_ == unit_.headers.size() || unit_.At(unit_.headers[header_].first) > pos_) {
        return;
      }
      const CUnit::Header& h = unit_.headers[header_];
      if (unit_.At(h.first) < pos_ || h.first == h.last) {
        header_++;  // entered mid-declaration, or no tokens to replay
        continue;
      }
      if (b_->Replay(unit_, header_, recording_.empty() ? nullptr : &log_)) {
        JumpTo(h.last);
        header_ = h.inner;
        continue;
      }
      header_++;
      recording_.push_back({&h, log_.size(), true});
    }
  }

  void Log(CBrowser::HeaderOp op) {
    if (!recording_.empty()) {
      log_.push_back(op);
    }
  }
  // A parse whose effects depend on more than the header's tokens and the
  // typedef names it reads is not kept.
  void Unrecordable() {
    for (Recording& r : recording_) {
      r.valid = false;
    }
  }
  // Every punctuator the parser asks about is a single character.
  bool IsPunct(char p) const {
    return Cur().kind == CTok::kPunct && Cur().text.size() == 1 && Cur().text[0] == p;
  }
  bool IsKw(int keyword) const { return Cur().kind == CTok::kKeyword && Cur().name == keyword; }
  void SkipTo(char p) {  // error recovery
    int depth = 0;
    while (!AtEof()) {
      if (depth == 0 && IsPunct(p)) {
        Next();
        return;
      }
      if (IsPunct('{') || IsPunct('(') || IsPunct('[')) {
        depth++;
      } else if (IsPunct('}') || IsPunct(')') || IsPunct(']')) {
        depth--;
      }
      Next();
    }
  }

  bool AtTypeStart() {
    if (Cur().kind == CTok::kKeyword) {
      return IsSpecifierKeyword(Cur()) || IsKw(CKeyword("typedef"));
    }
    if (IsTypedef(Cur())) {
      // A typedef name starts a declaration only if what follows looks like
      // a declarator ("Page *q;", "Rune r;"), not an expression ("Page + 1").
      // "T *x" is taken as a declaration: "T * x" as an expression is
      // vanishingly rare in real code.
      const CToken& nx = Ahead(1);
      return nx.kind == CTok::kIdent ||
             (nx.kind == CTok::kPunct && (nx.text == "*" || nx.text == "("));
    }
    return false;
  }

  // --- names and scopes ---
  // A typedef name counts only in the unit that declared it.
  bool IsTypedef(const CToken& t) {
    if (t.kind != CTok::kIdent) {
      return false;
    }
    bool is = b_->NameOf(t.name).typedef_unit == b_->unit_;
    Log({.op = CBrowser::HeaderOp::kTypedefRead, .flag = is, .name = t.name});
    return is;
  }

  // Block scopes are one stack of bindings; a scope is the suffix that
  // starts at its mark. Lookup scans from the innermost binding out.
  void PushScope() { scope_marks_.push_back(bindings_.size()); }
  void PopScope() {
    if (!scope_marks_.empty()) {
      bindings_.resize(scope_marks_.back());
      scope_marks_.pop_back();
    }
  }
  void Bind(int name, int sym) {
    if (!scope_marks_.empty()) {
      bindings_.emplace_back(name, sym);
    }
  }
  int Lookup(int name) const {
    for (auto it = bindings_.rbegin(); it != bindings_.rend(); ++it) {
      if (it->first == name) {
        return it->second;
      }
    }
    return b_->NameOf(name).global;
  }

  int DeclareSymbol(const CToken& tok, CSymKind kind) {
    return Declare(tok.name, kind, tok, current_func_);
  }
  int Declare(int name, CSymKind kind, const CToken& at, int func, bool is_definition = false) {
    int id = b_->Intern(name, kind, at, func, is_definition);
    b_->RecordUse(id, at, /*is_decl=*/true);
    if (kind == CSymKind::kParam || kind == CSymKind::kLocal) {
      Bind(name, id);
    } else if (kind != CSymKind::kField) {
      b_->NameOf(name).global = id;
    }
    if (kind == CSymKind::kParam || kind == CSymKind::kLocal || func >= 0) {
      Unrecordable();  // a symbol of its own each parse, or owned by one
    } else {
      Log({.op = CBrowser::HeaderOp::kDeclare, .flag = is_definition, .kind = kind, .name = name,
           .sym = id, .at = &at});
    }
    return id;
  }

  void RecordIdentUse(const CToken& tok) {
    // Only parameters and locals are bound in scopes, and a header that
    // declares one is not recorded: a recorded use looks up a global.
    int id = Lookup(tok.name);
    if (id < 0) {
      // Implicit extern (strlen, print, ...): declare lazily at first use so
      // later references unify.
      id = b_->Intern(tok.name, CSymKind::kImplicit, tok);
      b_->NameOf(tok.name).global = id;
    }
    b_->RecordUse(id, tok, /*is_decl=*/false);
    Log({.op = CBrowser::HeaderOp::kUse, .name = tok.name, .sym = id, .at = &tok});
  }

  // A use of a tag or typedef name, recorded only if the name is bound.
  void RecordBoundUse(int name, const CToken& tok) {
    int id = Lookup(name);
    if (id >= 0) {
      b_->RecordUse(id, tok, false);
    }
    Log({.op = CBrowser::HeaderOp::kBoundUse, .name = name, .sym = id, .at = &tok});
  }

  // Is the current identifier a member name after . or ->, that is, a field
  // reference and not a name use?
  bool AfterMemberOp() const {
    return prev_ != nullptr && prev_->kind == CTok::kPunct &&
           (prev_->text == "." || prev_->text == "->");
  }

  // --- grammar ---

  void ParseTopLevel() {
    if (IsPunct(';')) {
      Next();
      return;
    }
    if (IsKw(CKeyword("typedef"))) {
      Next();
      ParseDeclSpecifiers();
      while (!AtEof() && !IsPunct(';')) {
        Declarator d = ParseDeclarator(/*in_params=*/false);
        if (d.name != nullptr) {
          b_->NameOf(d.name->name).typedef_unit = b_->unit_;
          Log({.op = CBrowser::HeaderOp::kTypedefWrite, .name = d.name->name});
          DeclareSymbol(*d.name, CSymKind::kTypedef);
        }
        if (IsPunct(',')) {
          Next();
          continue;
        }
        break;
      }
      SkipTo(';');
      return;
    }
    if (!AtTypeStart()) {
      // Not a declaration we understand (stray macro call, etc.): skip the
      // statement conservatively.
      SkipTo(';');
      return;
    }
    ParseDeclSpecifiers();
    if (IsPunct(';')) {  // pure struct/enum definition
      Next();
      return;
    }
    while (!AtEof()) {
      Declarator d = ParseDeclarator(/*in_params=*/false);
      if (d.is_func && IsPunct('{')) {
        // Junk such as "int ()() {" has no name; its body is read all the same.
        static const CToken kNoName;
        const CToken& name = d.name != nullptr ? *d.name : kNoName;
        int id = Declare(d.name != nullptr ? d.name->name : b_->NameId(""), CSymKind::kFunc, name,
                         -1, /*is_definition=*/true);
        ParseFunctionBody(id, d.params);
        return;
      }
      if (d.name != nullptr) {
        DeclareSymbol(*d.name, d.is_func ? CSymKind::kFunc : CSymKind::kGlobalVar);
      }
      if (IsPunct('=')) {
        Next();
        ScanInitializer();
      }
      if (IsPunct(',')) {
        Next();
        continue;
      }
      break;
    }
    SkipTo(';');
  }

  // Consumes declaration specifiers, handling struct/union/enum bodies.
  void ParseDeclSpecifiers() {
    while (!AtEof()) {
      if (IsSpecifierKeyword(Cur())) {
        bool aggregate = IsKw(CKeyword("struct")) || IsKw(CKeyword("union"));
        bool is_enum = IsKw(CKeyword("enum"));
        Next();
        if (aggregate || is_enum) {
          if (Cur().kind == CTok::kIdent) {
            // Tag: declaration if a body follows, use otherwise.
            const CToken& tag = Cur();
            int tag_name = b_->TagOf(tag.name);
            Next();
            if (IsPunct('{')) {
              Declare(tag_name, CSymKind::kStructTag, tag, -1);
            } else {
              RecordBoundUse(tag_name, tag);
            }
          }
          if (IsPunct('{')) {
            if (is_enum) {
              ParseEnumBody();
            } else {
              ParseStructBody();
            }
          }
        }
        continue;
      }
      if (IsTypedef(Cur()) && !type_seen_guard_) {
        // Typedef name as base type; record the use of the typedef.
        RecordBoundUse(Cur().name, Cur());
        Next();
        type_seen_guard_ = true;
        continue;
      }
      break;
    }
    type_seen_guard_ = false;
  }

  void ParseStructBody() {
    // At '{'. Fields are declarations; nested aggregates recurse.
    Next();
    while (!AtEof() && !IsPunct('}')) {
      if (IsPunct(';')) {
        Next();
        continue;
      }
      size_t before = pos_;
      ParseDeclSpecifiers();
      while (!AtEof() && !IsPunct(';') && !IsPunct('}')) {
        Declarator d = ParseDeclarator(/*in_params=*/false);
        if (d.name != nullptr) {
          DeclareSymbol(*d.name, CSymKind::kField);
        }
        if (IsPunct(':')) {  // bitfield width
          Next();
          if (!AtEof()) {
            Next();
          }
        }
        if (IsPunct(',')) {
          Next();
          continue;
        }
        break;
      }
      if (IsPunct(';')) {
        Next();
      } else if (pos_ == before) {
        Next();  // junk token: never stall
      }
    }
    if (IsPunct('}')) {
      Next();
    }
  }

  void ParseEnumBody() {
    Next();  // '{'
    while (!AtEof() && !IsPunct('}')) {
      if (Cur().kind == CTok::kIdent) {
        DeclareSymbol(Cur(), CSymKind::kEnumConst);
        Next();
        if (IsPunct('=')) {
          Next();
          while (!AtEof() && !IsPunct(',') && !IsPunct('}')) {
            if (Cur().kind == CTok::kIdent) {
              RecordIdentUse(Cur());
            }
            Next();
          }
        }
      }
      if (IsPunct(',')) {
        Next();
      } else if (!IsPunct('}')) {
        Next();
      }
    }
    if (IsPunct('}')) {
      Next();
    }
  }

  // Tokens are referred to in place: the unit's token lists do not change
  // while parsing.
  struct Declarator {
    const CToken* name = nullptr;  // the declared identifier, if any
    bool is_func = false;
    std::vector<const CToken*> params;  // parameter name tokens, in order
  };

  // Parses one declarator: pointers, parenthesized declarators, the declared
  // identifier, then ()/[] suffixes. With in_params, an abstract declarator
  // (no name) is allowed.
  Declarator ParseDeclarator(bool in_params) {
    Declarator d;
    while (IsPunct('*') || IsKw(CKeyword("const")) || IsKw(CKeyword("volatile"))) {
      Next();
    }
    if (IsPunct('(')) {
      Next();
      d = ParseDeclarator(in_params);
      if (IsPunct(')')) {
        Next();
      }
    } else if (Cur().kind == CTok::kIdent) {
      // In a parameter list, a typedef name here is a type, not the declared
      // identifier ("int f(Page)" is abstract).
      if (!(in_params && IsTypedef(Cur()) &&
            (Ahead(1).kind != CTok::kIdent))) {
        d.name = &Cur();
        Next();
      }
    }
    // Suffixes.
    while (!AtEof()) {
      if (IsPunct('(')) {
        d.is_func = true;
        Next();
        ParseParams(&d);
        continue;
      }
      if (IsPunct('[')) {
        Next();
        int depth = 1;
        while (!AtEof() && depth > 0) {
          if (IsPunct('[')) {
            depth++;
          } else if (IsPunct(']')) {
            depth--;
          } else if (Cur().kind == CTok::kIdent && depth > 0) {
            RecordIdentUse(Cur());
          }
          Next();
        }
        continue;
      }
      break;
    }
    return d;
  }

  // At the token after '('. Collects parameter names until ')': the last
  // identifier of each comma-separated chunk, unless it is a type name
  // ("int f(Page)" declares nothing).
  void ParseParams(Declarator* d) {
    const CToken* last = nullptr;
    for (int depth = 1; !AtEof(); Next()) {
      if (IsPunct('(')) {
        depth++;
      } else if (Cur().kind == CTok::kIdent) {
        last = &Cur();
      } else if ((IsPunct(',') && depth == 1) || (IsPunct(')') && --depth == 0)) {
        if (last != nullptr && !IsTypedef(*last)) {
          d->params.push_back(last);
        }
        last = nullptr;
        if (depth == 0) {
          Next();
          return;
        }
      }
    }
  }

  void ParseFunctionBody(int func_sym, const std::vector<const CToken*>& params) {
    int saved_func = current_func_;
    current_func_ = func_sym;
    PushScope();
    for (const CToken* p : params) {
      DeclareSymbol(*p, CSymKind::kParam);
    }
    // At '{'.
    Next();
    PushScope();
    int depth = 1;
    bool stmt_start = true;
    while (!AtEof() && depth > 0) {
      if (IsPunct('{')) {
        depth++;
        PushScope();
        stmt_start = true;
        Next();
        continue;
      }
      if (IsPunct('}')) {
        depth--;
        PopScope();
        stmt_start = true;
        Next();
        continue;
      }
      if (IsPunct(';')) {
        stmt_start = true;
        Next();
        continue;
      }
      if (IsKw(CKeyword("case"))) {
        Next();
        while (!AtEof() && !IsPunct(':')) {
          if (Cur().kind == CTok::kIdent) {
            RecordIdentUse(Cur());
          }
          Next();
        }
        if (IsPunct(':')) {
          Next();
        }
        stmt_start = true;
        continue;
      }
      if (IsKw(CKeyword("default"))) {
        Next();
        if (IsPunct(':')) {
          Next();
        }
        stmt_start = true;
        continue;
      }
      if (IsKw(CKeyword("goto"))) {
        Next();
        if (Cur().kind == CTok::kIdent) {
          Next();  // label, not a variable use
        }
        continue;
      }
      if (Cur().kind == CTok::kKeyword) {
        if (stmt_start && AtTypeStart()) {
          ParseLocalDeclaration();
          stmt_start = true;
          continue;
        }
        Next();
        continue;
      }
      if (Cur().kind == CTok::kIdent) {
        // Label definition: "name:" at statement start (but not "name ::").
        if (stmt_start && Ahead(1).kind == CTok::kPunct && Ahead(1).text == ":") {
          Next();
          Next();
          stmt_start = true;
          continue;
        }
        if (stmt_start && AtTypeStart()) {
          ParseLocalDeclaration();
          stmt_start = true;
          continue;
        }
        if (!AfterMemberOp()) {
          RecordIdentUse(Cur());
        }
        stmt_start = false;
        Next();
        continue;
      }
      stmt_start = false;
      Next();
    }
    PopScope();  // body
    PopScope();  // params
    current_func_ = saved_func;
  }

  void ParseLocalDeclaration() {
    size_t before = pos_;
    ParseDeclSpecifiers();
    while (!AtEof() && !IsPunct(';')) {
      Declarator d = ParseDeclarator(/*in_params=*/false);
      if (d.name != nullptr) {
        DeclareSymbol(*d.name, CSymKind::kLocal);
      }
      if (IsPunct('=')) {
        Next();
        ScanInitializer();
      }
      if (IsPunct(',')) {
        Next();
        continue;
      }
      break;
    }
    if (IsPunct(';') || pos_ == before) {
      Next();  // never stall: a local typedef, for one, declares nothing here
    }
  }

  // Records identifier uses in an initializer, up to an unnested ',' or ';'.
  void ScanInitializer() {
    int depth = 0;
    while (!AtEof()) {
      if (depth == 0 && (IsPunct(',') || IsPunct(';'))) {
        return;
      }
      if (IsPunct('(') || IsPunct('[') || IsPunct('{')) {
        depth++;
      } else if (IsPunct(')') || IsPunct(']') || IsPunct('}')) {
        depth--;
      } else if (Cur().kind == CTok::kIdent) {
        if (!AfterMemberOp()) {
          RecordIdentUse(Cur());
        }
      }
      Next();
    }
  }

  // A header whose parse is being recorded, from log_[begin].
  struct Recording {
    const CUnit::Header* header;
    size_t begin;
    bool valid;
  };

  CBrowser* b_;
  const CUnit& unit_;
  size_t run_ = 0;                  // cur_ is in unit_.runs[run_]
  const CToken* cur_;
  const CToken* prev_ = nullptr;    // the token before cur_ in the unit
  size_t pos_ = 0;
  size_t header_ = 0;               // the next of unit_.headers to enter
  std::vector<Recording> recording_;  // innermost last
  std::vector<CBrowser::HeaderOp> log_;
  std::vector<std::pair<int, int>> bindings_;  // (name, symbol)
  std::vector<size_t> scope_marks_;
  int current_func_ = -1;
  bool type_seen_guard_ = false;
};

// ---------------------------------------------------------------------------
// Browser.

std::string_view CBrowser::FileName(std::string_view file) {
  // A unit's tokens come mostly in long runs from one file.
  if (file != last_file_) {
    last_file_ = *file_names_.emplace(file).first;
  }
  return last_file_;
}

int CBrowser::NameId(std::string_view spelling) {
  int id = names_.Id(spelling);
  info_.resize(names_.size());
  return id;
}

int CBrowser::TagOf(int name) {
  if (NameOf(name).tag < 0) {
    int tag = NameId("struct " + std::string(names_.Spelling(name)));  // may grow info_
    NameOf(name).tag = tag;
  }
  return NameOf(name).tag;
}

int CBrowser::Intern(int name, CSymKind kind, const CToken& at, int func, bool is_definition) {
  Name* n = nullptr;
  if (kind != CSymKind::kParam && kind != CSymKind::kLocal) {
    n = &NameOf(name);
    for (int id : n->syms) {
      const CSymbol& e = symbols_[static_cast<size_t>(id)];
      if (e.kind == kind && e.line == at.line && e.file == at.file) {
        return id;
      }
    }
    // A global/function seen again (extern declaration vs definition, or an
    // implicit upgraded by a real declaration): unify by name. The real
    // declaration wins over an implicit, a definition over a prototype.
    if (n->global >= 0) {
      CSymbol& e = symbols_[static_cast<size_t>(n->global)];
      bool promote = e.kind == CSymKind::kImplicit && kind != CSymKind::kImplicit;
      if (promote || kind == e.kind) {
        if (promote || (is_definition && !e.is_definition)) {
          e.kind = kind;
          e.file = FileName(at.file);
          e.line = at.line;
          e.col = at.col;
          e.is_definition = is_definition;
        }
        return e.id;
      }
    }
  }
  int id = static_cast<int>(symbols_.size());
  symbols_.push_back({id, std::string(names_.Spelling(name)), kind, FileName(at.file), at.line,
                      at.col, func, is_definition});
  if (n != nullptr) {
    n->syms.push_back(id);
  }
  return id;
}

size_t CBrowser::UseSlot(int sym, std::string_view file, int line, int col) const {
  size_t h = (static_cast<size_t>(sym) * 0x9e3779b97f4a7c15ull ^ static_cast<size_t>(line) << 20 ^
              static_cast<size_t>(col)) * 0xff51afd7ed558ccdull;
  size_t mask = use_slots_.size() - 1;
  size_t i = h >> 32 & mask;
  for (; use_slots_[i] >= 0; i = (i + 1) & mask) {
    const CUse& u = uses_[static_cast<size_t>(use_slots_[i])];
    if (u.sym == sym && u.line == line && u.col == col && u.file == file) {
      break;
    }
  }
  return i;
}

void CBrowser::RecordUse(int sym, const CToken& at, bool is_decl) {
  // The table is kept at most half full, so a probe soon meets an empty slot.
  if (use_slots_.size() < 2 * (uses_.size() + 1)) {
    use_slots_.assign(std::bit_ceil(4 * (uses_.size() + 1)), -1);
    for (size_t k = 0; k < uses_.size(); k++) {
      const CUse& u = uses_[k];
      use_slots_[UseSlot(u.sym, u.file, u.line, u.col)] = static_cast<int>(k);
    }
  }
  size_t i = UseSlot(sym, at.file, at.line, at.col);
  if (use_slots_[i] < 0) {
    use_slots_[i] = static_cast<int>(uses_.size());
    uses_.push_back({sym, FileName(at.file), at.line, at.col, is_decl});
  }
}

Status CBrowser::ParseUnit(const CUnit& unit) {
  info_.resize(names_.size());
  unit_++;
  return CParser(this, unit).Parse();
}

// Replaying a record does what parsing the header again would: the parse
// takes the same path through the header's tokens, because it starts
// between two declarations and the typedef names it reads answer as before,
// and along that path it declares, binds and uses the same names. Only the
// symbols those resolve to may differ, and each op resolves them again.
void CBrowser::Apply(HeaderOp& op) {
  Name& n = NameOf(op.name);
  int id = op.sym;
  switch (op.op) {
    case HeaderOp::kTypedefRead:
      return;
    case HeaderOp::kTypedefWrite:
      n.typedef_unit = unit_;
      return;
    case HeaderOp::kDeclare: {
      // No two of a name's symbols share an identity, so one that still
      // has the op's is the one Intern would find.
      const CSymbol& s = symbols_[static_cast<size_t>(op.sym)];
      if (s.kind != op.kind || s.line != op.at->line || s.file != op.at->file) {
        id = Intern(op.name, op.kind, *op.at, -1, op.flag);
      }
      if (op.kind != CSymKind::kField) {
        n.global = id;
      }
      break;
    }
    case HeaderOp::kUse:
      if (n.global < 0) {
        n.global = Intern(op.name, CSymKind::kImplicit, *op.at);
      }
      id = n.global;
      break;
    case HeaderOp::kBoundUse:
      id = n.global;
      break;
  }
  // The parse that resolved the op to op.sym recorded that use.
  if (id >= 0 && id != op.sym) {
    RecordUse(id, *op.at, op.op == HeaderOp::kDeclare);
  }
  op.sym = id;
}

bool CBrowser::Replay(const CUnit& unit, size_t header, std::vector<HeaderOp>* log) {
  const CUnit::Header& h = unit.headers[header];
  if (static_cast<size_t>(h.file) >= headers_.size() || !headers_[h.file].valid) {
    return false;
  }
  HeaderRecord& r = headers_[h.file];
  if (r.inner.size() != h.inner - header - 1) {
    return false;
  }
  for (size_t i = 0; i < r.inner.size(); i++) {
    if (r.inner[i] != unit.headers[header + 1 + i].file) {
      return false;
    }
  }
  for (const auto& [name, is_typedef] : r.reads) {
    if ((NameOf(name).typedef_unit == unit_) != is_typedef) {
      return false;
    }
  }
  OBS_COUNT("cc.header_replays", 1);
  for (HeaderOp& op : r.ops) {
    Apply(op);
  }
  if (log != nullptr) {
    for (const auto& [name, is_typedef] : r.reads) {
      log->push_back({.op = HeaderOp::kTypedefRead, .flag = is_typedef, .name = name});
    }
    log->insert(log->end(), r.ops.begin(), r.ops.end());
  }
  return true;
}

void CBrowser::Record(const CUnit& unit, size_t header, const std::vector<HeaderOp>& log,
                      size_t begin) {
  const CUnit::Header& h = unit.headers[header];
  if (static_cast<size_t>(h.file) >= headers_.size()) {
    headers_.resize(static_cast<size_t>(h.file) + 1);
  }
  OBS_COUNT("cc.header_records", 1);
  HeaderRecord& r = headers_[h.file];
  r.valid = true;
  r.inner.clear();
  for (size_t i = header + 1; i < h.inner; i++) {
    r.inner.push_back(unit.headers[i].file);
  }
  r.reads.clear();
  r.ops.clear();
  // A read of a name the header has not yet bound, or read, is one a
  // replay must check; the rest follow from the ops.
  enum : uint8_t { kUnseen, kRead, kWritten };
  std::vector<uint8_t> marks(info_.size(), kUnseen);
  for (size_t i = begin; i < log.size(); i++) {
    const HeaderOp& op = log[i];
    uint8_t& mark = marks[static_cast<size_t>(op.name)];
    if (op.op == HeaderOp::kTypedefRead) {
      if (mark == kUnseen) {
        r.reads.emplace_back(op.name, op.flag);
        mark = kRead;
      }
      continue;
    }
    if (op.op == HeaderOp::kTypedefWrite) {
      mark = kWritten;
    }
    r.ops.push_back(op);
  }
}

Status CBrowser::AddTranslationUnit(std::string_view text, std::string_view filename) {
  auto toks = CLex(text, filename, &names_);
  if (!toks.ok()) {
    return toks.status();
  }
  CUnit unit;
  unit.Add(toks.value().data(), toks.value().data() + toks.value().size());
  return ParseUnit(unit);
}

Status CBrowser::AddFile(const Vfs& vfs, std::string_view path) {
  if (sources_ == nullptr || &sources_->vfs() != &vfs) {
    sources_ = std::make_unique<CSources>(vfs, &names_);
    headers_.clear();
  }
  if (Status s = sources_->Unit(path, &unit_runs_); !s.ok()) {
    return s;
  }
  return ParseUnit(unit_runs_);
}

const CSymbol* CBrowser::ResolveAt(std::string_view name, std::string_view file,
                                   int line) const {
  const CUse* best = nullptr;
  int best_dist = -1;
  for (const CUse& u : uses_) {
    const CSymbol& s = symbols_[static_cast<size_t>(u.sym)];
    if (s.name != name || u.file != file) {
      continue;
    }
    int dist = std::abs(u.line - line);
    if (best == nullptr || dist < best_dist) {
      best = &u;
      best_dist = dist;
    }
  }
  if (best == nullptr) {
    // Fall back to a file-scope symbol with that name.
    return FindGlobal(name);
  }
  return &symbols_[static_cast<size_t>(best->sym)];
}

std::vector<CUse> CBrowser::UsesOf(int id) const {
  std::vector<CUse> out;
  for (const CUse& u : uses_) {
    if (u.sym == id) {
      out.push_back(u);
    }
  }
  std::sort(out.begin(), out.end(), [](const CUse& a, const CUse& b) {
    return std::tie(a.file, a.line, a.col) < std::tie(b.file, b.line, b.col);
  });
  return out;
}

const CSymbol* CBrowser::FindFunc(std::string_view name) const {
  const CSymbol* decl = nullptr;
  for (const CSymbol& s : symbols_) {
    if (s.kind == CSymKind::kFunc && s.name == name) {
      if (s.is_definition) {
        return &s;
      }
      decl = &s;
    }
  }
  return decl;
}

const CSymbol* CBrowser::FindGlobal(std::string_view name) const {
  // A name first seen in a unit that failed before its parse has no entry.
  int id = names_.Find(name);
  if (id < 0 || static_cast<size_t>(id) >= info_.size() || NameOf(id).global < 0) {
    return nullptr;
  }
  return &symbols_[static_cast<size_t>(NameOf(id).global)];
}

}  // namespace help
