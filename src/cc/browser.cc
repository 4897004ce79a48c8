#include "src/cc/browser.h"

#include <algorithm>
#include <tuple>

#include "src/cc/cpp.h"

namespace help {

namespace {

bool IsSpecifierKeyword(std::string_view s) {
  static constexpr std::string_view kSpec[] = {
      "void",   "char",     "short",    "int",    "long",   "float",    "double",
      "signed", "unsigned", "struct",   "union",  "enum",   "const",    "volatile",
      "static", "extern",   "register", "auto"};
  return std::find(std::begin(kSpec), std::end(kSpec), s) != std::end(kSpec);
}

}  // namespace

// ---------------------------------------------------------------------------
// Parser.

class CParser {
 public:
  CParser(CBrowser* browser, std::vector<CToken> toks)
      : b_(browser), toks_(std::move(toks)) {}

  Status Parse() {
    while (!AtEof()) {
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
  const CToken& Cur() const { return toks_[pos_]; }
  const CToken& Ahead(size_t k) const {
    size_t i = std::min(pos_ + k, toks_.size() - 1);
    return toks_[i];
  }
  bool AtEof() const { return Cur().kind == CTok::kEof; }
  void Next() {
    if (!AtEof()) {
      pos_++;
    }
  }
  // Every punctuator the parser asks about is a single character.
  bool IsPunct(char p) const {
    return Cur().kind == CTok::kPunct && Cur().text.size() == 1 && Cur().text[0] == p;
  }
  bool IsKw(std::string_view k) const {
    return Cur().kind == CTok::kKeyword && Cur().text == k;
  }
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

  bool AtTypeStart() const {
    if (Cur().kind == CTok::kKeyword) {
      return IsSpecifierKeyword(Cur().text) || Cur().text == "typedef";
    }
    if (Cur().kind == CTok::kIdent && IsTypedef(Cur().text)) {
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
  bool IsTypedef(std::string_view name) const {
    auto it = b_->names_.find(name);
    return it != b_->names_.end() && it->second.typedef_unit == b_->unit_;
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
  void Bind(std::string_view name, int sym) {
    if (!scope_marks_.empty()) {
      bindings_.emplace_back(name, sym);
    }
  }
  int Lookup(std::string_view name) const {
    for (auto it = bindings_.rbegin(); it != bindings_.rend(); ++it) {
      if (it->first == name) {
        return it->second;
      }
    }
    auto it = b_->names_.find(name);
    return it == b_->names_.end() ? -1 : it->second.global;
  }

  int DeclareSymbol(const CToken& tok, CSymKind kind) {
    return Declare(tok.text, kind, tok, current_func_);
  }
  int Declare(std::string_view name, CSymKind kind, const CToken& at, int func,
              bool is_definition = false) {
    int id = b_->Intern(name, kind, at, func, is_definition);
    b_->RecordUse(id, at, /*is_decl=*/true);
    if (kind == CSymKind::kParam || kind == CSymKind::kLocal) {
      Bind(name, id);
    } else if (kind != CSymKind::kField) {
      b_->NameOf(name).global = id;
    }
    return id;
  }

  void RecordIdentUse(const CToken& tok) {
    int id = Lookup(tok.text);
    if (id < 0) {
      // Implicit extern (strlen, print, ...): declare lazily at first use so
      // later references unify.
      id = b_->Intern(tok.text, CSymKind::kImplicit, tok);
      b_->NameOf(tok.text).global = id;
    }
    b_->RecordUse(id, tok, /*is_decl=*/false);
  }

  // Is the current identifier a member name after . or ->, that is, a field
  // reference and not a name use?
  bool AfterMemberOp() const {
    return pos_ > 0 && toks_[pos_ - 1].kind == CTok::kPunct &&
           (toks_[pos_ - 1].text == "." || toks_[pos_ - 1].text == "->");
  }

  // --- grammar ---

  void ParseTopLevel() {
    if (IsPunct(';')) {
      Next();
      return;
    }
    if (IsKw("typedef")) {
      Next();
      ParseDeclSpecifiers();
      while (!AtEof() && !IsPunct(';')) {
        Declarator d = ParseDeclarator(/*in_params=*/false);
        if (d.name != nullptr) {
          b_->NameOf(d.name->text).typedef_unit = b_->unit_;
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
        int id = Declare(name.text, CSymKind::kFunc, name, -1, /*is_definition=*/true);
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
      if (Cur().kind == CTok::kKeyword && IsSpecifierKeyword(Cur().text)) {
        bool aggregate = Cur().text == "struct" || Cur().text == "union";
        bool is_enum = Cur().text == "enum";
        Next();
        if (aggregate || is_enum) {
          if (Cur().kind == CTok::kIdent) {
            // Tag: declaration if a body follows, use otherwise.
            const CToken& tag = Cur();
            tag_name_.assign("struct ").append(tag.text);
            Next();
            if (IsPunct('{')) {
              Declare(tag_name_, CSymKind::kStructTag, tag, -1);
            } else if (int id = Lookup(tag_name_); id >= 0) {
              b_->RecordUse(id, tag, false);
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
      if (Cur().kind == CTok::kIdent && IsTypedef(Cur().text) &&
          !type_seen_guard_) {
        // Typedef name as base type; record the use of the typedef.
        if (int id = Lookup(Cur().text); id >= 0) {
          b_->RecordUse(id, Cur(), false);
        }
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

  // Tokens are referred to in place: toks_ does not change while parsing.
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
    while (IsPunct('*') || IsKw("const") || IsKw("volatile")) {
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
      if (!(in_params && IsTypedef(Cur().text) &&
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
        if (last != nullptr && !IsTypedef(last->text)) {
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
      if (IsKw("case")) {
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
      if (IsKw("default")) {
        Next();
        if (IsPunct(':')) {
          Next();
        }
        stmt_start = true;
        continue;
      }
      if (IsKw("goto")) {
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

  CBrowser* b_;
  std::vector<CToken> toks_;
  size_t pos_ = 0;
  std::vector<std::pair<std::string_view, int>> bindings_;
  std::vector<size_t> scope_marks_;
  std::string tag_name_;  // "struct " + tag, the name tags are kept under
  int current_func_ = -1;
  bool type_seen_guard_ = false;
};

// ---------------------------------------------------------------------------
// Browser.

CBrowser::Name& CBrowser::NameOf(std::string_view name) {
  auto it = names_.find(name);
  return it != names_.end() ? it->second : names_.emplace(name, Name()).first->second;
}

int CBrowser::Intern(std::string_view name, CSymKind kind, const CToken& at, int func,
                     bool is_definition) {
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
          e.file = at.file;
          e.line = at.line;
          e.col = at.col;
          e.is_definition = is_definition;
        }
        return e.id;
      }
    }
  }
  int id = static_cast<int>(symbols_.size());
  symbols_.push_back(
      {id, std::string(name), kind, std::string(at.file), at.line, at.col, func, is_definition});
  if (n != nullptr) {
    n->syms.push_back(id);
  }
  return id;
}

void CBrowser::RecordUse(int sym, const CToken& at, bool is_decl) {
  size_t h = static_cast<size_t>(sym) * 0x9e3779b97f4a7c15ull ^
             static_cast<size_t>(at.line) << 20 ^ static_cast<size_t>(at.col);
  for (auto [it, end] = use_index_.equal_range(h); it != end; ++it) {
    const CUse& u = uses_[it->second];
    if (u.sym == sym && u.line == at.line && u.col == at.col && u.file == at.file) {
      return;
    }
  }
  use_index_.emplace(h, uses_.size());
  uses_.push_back({sym, std::string(at.file), at.line, at.col, is_decl});
}

Status CBrowser::AddTranslationUnit(std::string_view text, std::string_view filename) {
  auto toks = CLex(text, filename);
  if (!toks.ok()) {
    return toks.status();
  }
  unit_++;
  return CParser(this, toks.take()).Parse();
}

Status CBrowser::AddFile(const Vfs& vfs, std::string_view path) {
  auto pp = Preprocess(vfs, path);
  if (!pp.ok()) {
    return pp.status();
  }
  return AddTranslationUnit(pp.value(), path);
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
  auto it = names_.find(name);
  return it == names_.end() || it->second.global < 0
             ? nullptr
             : &symbols_[static_cast<size_t>(it->second.global)];
}

}  // namespace help
