#include "src/regexp/regexp.h"

#include <array>

#include "src/obs/trace.h"

namespace help {

bool Regexp::CharClass::Contains(Rune r) const {
  bool in = false;
  for (const ClassRange& cr : ranges) {
    if (r >= cr.lo && r <= cr.hi) {
      in = true;
      break;
    }
  }
  return negated ? !in : in;
}

// ---------------------------------------------------------------------------
// Parsing: recursive descent to a small AST, then code generation into the
// NFA program. The AST is transient; only the bytecode is retained.

namespace {

struct Node {
  enum class Kind { kLit, kAny, kClass, kBol, kEol, kCat, kAlt, kStar, kPlus, kQuest, kGroup };
  Kind kind;
  Rune r = 0;
  int class_id = 0;
  int group = 0;
  std::unique_ptr<Node> a;
  std::unique_ptr<Node> b;
};

using NodePtr = std::unique_ptr<Node>;

NodePtr MakeNode(Node::Kind kind) {
  auto n = std::make_unique<Node>();
  n->kind = kind;
  return n;
}

}  // namespace

class Regexp::Parser {
 public:
  Parser(RuneStringView pat, Regexp* re) : pat_(pat), re_(re) {}

  Result<NodePtr> Parse() {
    auto r = ParseAlt();
    if (!r.ok()) {
      return r;
    }
    if (pos_ != pat_.size()) {
      return Status::Error("regexp: unmatched ')'");
    }
    return r;
  }

 private:
  bool AtEnd() const { return pos_ >= pat_.size(); }
  Rune Peek() const { return pat_[pos_]; }

  Result<NodePtr> ParseAlt() {
    auto left = ParseCat();
    if (!left.ok()) {
      return left;
    }
    NodePtr node = left.take();
    while (!AtEnd() && Peek() == '|') {
      pos_++;
      auto right = ParseCat();
      if (!right.ok()) {
        return right;
      }
      auto alt = MakeNode(Node::Kind::kAlt);
      alt->a = std::move(node);
      alt->b = right.take();
      node = std::move(alt);
    }
    return node;
  }

  Result<NodePtr> ParseCat() {
    NodePtr node;
    while (!AtEnd() && Peek() != '|' && Peek() != ')') {
      auto atom = ParseRep();
      if (!atom.ok()) {
        return atom;
      }
      if (!node) {
        node = atom.take();
      } else {
        auto cat = MakeNode(Node::Kind::kCat);
        cat->a = std::move(node);
        cat->b = atom.take();
        node = std::move(cat);
      }
    }
    if (!node) {
      // Empty alternative: matches the empty string (a childless,
      // non-capturing group emits no instructions).
      node = MakeNode(Node::Kind::kGroup);
      node->group = -1;
    }
    return node;
  }

  Result<NodePtr> ParseRep() {
    auto atom = ParseAtom();
    if (!atom.ok()) {
      return atom;
    }
    NodePtr node = atom.take();
    while (!AtEnd()) {
      Rune c = Peek();
      Node::Kind k;
      if (c == '*') {
        k = Node::Kind::kStar;
      } else if (c == '+') {
        k = Node::Kind::kPlus;
      } else if (c == '?') {
        k = Node::Kind::kQuest;
      } else {
        break;
      }
      pos_++;
      auto rep = MakeNode(k);
      rep->a = std::move(node);
      node = std::move(rep);
    }
    return node;
  }

  Result<NodePtr> ParseAtom() {
    if (AtEnd()) {
      return Status::Error("regexp: missing operand");
    }
    Rune c = pat_[pos_++];
    switch (c) {
      case '(': {
        int group = -1;
        if (re_->ngroups_ < kMaxGroups) {
          group = re_->ngroups_++;
        }
        auto inner = ParseAlt();
        if (!inner.ok()) {
          return inner;
        }
        if (AtEnd() || pat_[pos_] != ')') {
          return Status::Error("regexp: missing ')'");
        }
        pos_++;
        auto g = MakeNode(Node::Kind::kGroup);
        g->group = group;
        g->a = inner.take();
        return NodePtr(std::move(g));
      }
      case '[':
        return ParseClass();
      case '.':
        return NodePtr(MakeNode(Node::Kind::kAny));
      case '^':
        return NodePtr(MakeNode(Node::Kind::kBol));
      case '$':
        return NodePtr(MakeNode(Node::Kind::kEol));
      case '*':
      case '+':
      case '?':
        return Status::Error("regexp: repetition with no operand");
      case '\\': {
        if (AtEnd()) {
          return Status::Error("regexp: trailing backslash");
        }
        Rune e = pat_[pos_++];
        auto lit = MakeNode(Node::Kind::kLit);
        switch (e) {
          case 'n':
            lit->r = '\n';
            break;
          case 't':
            lit->r = '\t';
            break;
          case 'r':
            lit->r = '\r';
            break;
          default:
            lit->r = e;
        }
        return NodePtr(std::move(lit));
      }
      default: {
        auto lit = MakeNode(Node::Kind::kLit);
        lit->r = c;
        return NodePtr(std::move(lit));
      }
    }
  }

  Result<NodePtr> ParseClass() {
    CharClass cc;
    if (!AtEnd() && Peek() == '^') {
      cc.negated = true;
      pos_++;
    }
    bool first = true;
    while (true) {
      if (AtEnd()) {
        return Status::Error("regexp: missing ']'");
      }
      Rune c = pat_[pos_++];
      if (c == ']' && !first) {
        break;
      }
      first = false;
      if (c == '\\' && !AtEnd()) {
        Rune e = pat_[pos_++];
        c = e == 'n' ? '\n' : e == 't' ? '\t' : e;
      }
      Rune lo = c;
      Rune hi = c;
      if (!AtEnd() && Peek() == '-' && pos_ + 1 < pat_.size() && pat_[pos_ + 1] != ']') {
        pos_++;  // '-'
        hi = pat_[pos_++];
        if (hi == '\\' && !AtEnd()) {
          Rune e = pat_[pos_++];
          hi = e == 'n' ? '\n' : e == 't' ? '\t' : e;
        }
        if (hi < lo) {
          return Status::Error("regexp: inverted range in class");
        }
      }
      cc.ranges.push_back({lo, hi});
    }
    re_->classes_.push_back(std::move(cc));
    auto node = MakeNode(Node::Kind::kClass);
    node->class_id = static_cast<int>(re_->classes_.size()) - 1;
    return NodePtr(std::move(node));
  }

  RuneStringView pat_;
  Regexp* re_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Code generation.

Result<Regexp> Regexp::Compile(std::string_view pattern) {
  Regexp re;
  re.pattern_ = std::string(pattern);
  RuneString pat = RunesFromUtf8(pattern);
  Parser parser(pat, &re);
  auto ast = parser.Parse();
  if (!ast.ok()) {
    return ast.status();
  }

  // Recursive emitter.
  struct Emitter {
    std::vector<Inst>* prog;
    void Emit(const Node* n) {
      switch (n->kind) {
        case Node::Kind::kLit:
          prog->push_back({Op::kChar, n->r, 0, 0, 0});
          break;
        case Node::Kind::kAny:
          prog->push_back({Op::kAny, 0, 0, 0, 0});
          break;
        case Node::Kind::kClass:
          prog->push_back({Op::kClass, 0, 0, 0, n->class_id});
          break;
        case Node::Kind::kBol:
          prog->push_back({Op::kBol, 0, 0, 0, 0});
          break;
        case Node::Kind::kEol:
          prog->push_back({Op::kEol, 0, 0, 0, 0});
          break;
        case Node::Kind::kCat:
          Emit(n->a.get());
          Emit(n->b.get());
          break;
        case Node::Kind::kAlt: {
          int split = Here();
          prog->push_back({Op::kSplit, 0, 0, 0, 0});
          (*prog)[split].x = Here();
          Emit(n->a.get());
          int jmp = Here();
          prog->push_back({Op::kJmp, 0, 0, 0, 0});
          (*prog)[split].y = Here();
          Emit(n->b.get());
          (*prog)[jmp].x = Here();
          break;
        }
        case Node::Kind::kStar: {
          int split = Here();
          prog->push_back({Op::kSplit, 0, 0, 0, 0});
          (*prog)[split].x = Here();  // greedy: prefer the loop body
          Emit(n->a.get());
          prog->push_back({Op::kJmp, 0, split, 0, 0});
          (*prog)[split].y = Here();
          break;
        }
        case Node::Kind::kPlus: {
          int body = Here();
          Emit(n->a.get());
          int split = Here();
          prog->push_back({Op::kSplit, 0, body, 0, 0});
          (*prog)[split].y = Here();
          break;
        }
        case Node::Kind::kQuest: {
          int split = Here();
          prog->push_back({Op::kSplit, 0, 0, 0, 0});
          (*prog)[split].x = Here();
          Emit(n->a.get());
          (*prog)[split].y = Here();
          break;
        }
        case Node::Kind::kGroup: {
          if (n->group < 0) {
            if (n->a) {
              Emit(n->a.get());
            }
            break;
          }
          prog->push_back({Op::kSave, 0, 2 * n->group, 0, 0});
          Emit(n->a.get());
          prog->push_back({Op::kSave, 0, 2 * n->group + 1, 0, 0});
          break;
        }
      }
    }
    int Here() const { return static_cast<int>(prog->size()); }
  };

  re.prog_.push_back({Op::kSave, 0, 0, 0, 0});  // whole-match begin
  Emitter emitter{&re.prog_};
  emitter.Emit(ast.value().get());
  re.prog_.push_back({Op::kSave, 0, 1, 0, 0});  // whole-match end
  re.prog_.push_back({Op::kMatch, 0, 0, 0, 0});
  re.ExtractLiteral();
  return re;
}

// Walks the program head to find the runes every match must begin with. Any
// accepting path executes the leading straight-line prefix — kSave markers
// and consecutive kChar ops, optionally after one kBol — before the first
// branch, so those chars are a required literal prefix. The searcher skips to
// candidate occurrences with Boyer-Moore-Horspool and only then pays for the
// VM; when the program is nothing but the literal (and has no capture
// groups), the candidate *is* the match and the VM never runs.
void Regexp::ExtractLiteral() {
  literal_.clear();
  literal_whole_ = false;
  bol_anchored_ = false;
  size_t pc = 0;
  while (pc < prog_.size() && prog_[pc].op == Op::kSave) {
    pc++;
  }
  if (pc < prog_.size() && prog_[pc].op == Op::kBol) {
    bol_anchored_ = true;
    pc++;
  }
  while (pc < prog_.size()) {
    if (prog_[pc].op == Op::kSave) {
      pc++;
    } else if (prog_[pc].op == Op::kChar) {
      literal_.push_back(prog_[pc].r);
      pc++;
    } else {
      break;
    }
  }
  literal_whole_ = pc < prog_.size() && prog_[pc].op == Op::kMatch &&
                   ngroups_ == 1 && !literal_.empty();
}

// ---------------------------------------------------------------------------
// Pike VM execution.

namespace {

constexpr size_t kNpos = static_cast<size_t>(-1);

}  // namespace

std::optional<Regexp::MatchResult> Regexp::Run(const RuneSpans& text, size_t start,
                                               bool anchored) const {
  const size_t nslots = 2 * static_cast<size_t>(ngroups_);
  struct Thread {
    int pc;
    std::vector<size_t> saves;
  };
  std::vector<Thread> clist;
  std::vector<Thread> nlist;
  std::vector<int> mark(prog_.size(), -1);
  int gen = 0;

  std::optional<std::vector<size_t>> matched;

  // Adds thread `pc` to `list`, following epsilon instructions.
  auto add = [&](std::vector<Thread>* list, int pc, size_t pos, std::vector<size_t> saves,
                 auto&& self) -> void {
    if (mark[pc] == gen) {
      return;
    }
    mark[pc] = gen;
    const Inst& inst = prog_[pc];
    switch (inst.op) {
      case Op::kJmp:
        self(list, inst.x, pos, std::move(saves), self);
        break;
      case Op::kSplit: {
        std::vector<size_t> copy = saves;
        self(list, inst.x, pos, std::move(copy), self);
        self(list, inst.y, pos, std::move(saves), self);
        break;
      }
      case Op::kSave: {
        size_t old = saves[inst.x];
        saves[inst.x] = pos;
        self(list, pc + 1, pos, std::move(saves), self);
        (void)old;
        break;
      }
      case Op::kBol:
        if (pos == 0 || text[pos - 1] == '\n') {
          self(list, pc + 1, pos, std::move(saves), self);
        }
        break;
      case Op::kEol:
        if (pos == text.size() || text[pos] == '\n') {
          self(list, pc + 1, pos, std::move(saves), self);
        }
        break;
      default:
        list->push_back({pc, std::move(saves)});
        break;
    }
  };

  size_t pos = start;
  for (;; pos++) {
    gen++;
    // Inject a new start thread (lowest priority) unless anchored past start
    // or a match has already been found (leftmost semantics).
    if (!matched && (!anchored || pos == start)) {
      std::vector<size_t> saves(nslots, kNpos);
      add(&clist, 0, pos, std::move(saves), add);
    }
    if (clist.empty() && (matched || anchored)) {
      break;  // no live thread can extend; new starts are no longer injected
    }
    gen++;
    nlist.clear();
    bool cut = false;
    for (size_t ti = 0; ti < clist.size() && !cut; ti++) {
      Thread& t = clist[ti];
      const Inst& inst = prog_[t.pc];
      switch (inst.op) {
        case Op::kChar:
          if (pos < text.size() && text[pos] == inst.r) {
            add(&nlist, t.pc + 1, pos + 1, std::move(t.saves), add);
          }
          break;
        case Op::kAny:
          if (pos < text.size() && text[pos] != '\n') {
            add(&nlist, t.pc + 1, pos + 1, std::move(t.saves), add);
          }
          break;
        case Op::kClass:
          if (pos < text.size() && classes_[inst.class_id].Contains(text[pos])) {
            add(&nlist, t.pc + 1, pos + 1, std::move(t.saves), add);
          }
          break;
        case Op::kMatch:
          matched = std::move(t.saves);
          cut = true;  // lower-priority threads cannot beat this match
          break;
        default:
          break;  // epsilon ops never reach the run list
      }
    }
    clist.swap(nlist);
    if (pos >= text.size()) {
      break;
    }
  }
  // The streaming scan's footprint: runes the VM actually advanced over.
  OBS_COUNT("search.bytes_scanned",
            (std::min(pos, text.size()) - std::min(start, text.size()) + 1) *
                sizeof(Rune));

  if (!matched) {
    return std::nullopt;
  }
  MatchResult result;
  result.begin = (*matched)[0];
  result.end = (*matched)[1];
  for (int g = 1; g < ngroups_; g++) {
    result.groups.emplace_back((*matched)[2 * g], (*matched)[2 * g + 1]);
  }
  return result;
}

std::optional<Regexp::MatchResult> Regexp::Search(const RuneSpans& text,
                                                  size_t start) const {
  if (!literal_.empty() && !bol_anchored_) {
    size_t pos = start;
    while (true) {
      size_t cand = FindRunes(text, literal_, pos);
      if (cand == RuneSpans::npos) {
        OBS_COUNT("search.literal_fastpath", 1);
        OBS_COUNT("search.bytes_scanned",
                  (text.size() - std::min(start, text.size())) * sizeof(Rune));
        return std::nullopt;
      }
      if (literal_whole_) {
        OBS_COUNT("search.literal_fastpath", 1);
        OBS_COUNT("search.bytes_scanned",
                  (cand + literal_.size() - start) * sizeof(Rune));
        MatchResult result;
        result.begin = cand;
        result.end = cand + literal_.size();
        return result;
      }
      auto m = Run(text, cand, /*anchored=*/true);
      if (m) {
        OBS_COUNT("search.literal_fastpath", 1);
        return m;
      }
      pos = cand + 1;
    }
  }
  return Run(text, start, /*anchored=*/false);
}

std::optional<Regexp::MatchResult> Regexp::MatchAt(const RuneSpans& text,
                                                   size_t pos) const {
  // Cheap negative filter: every match starts with the required literal (and
  // at a line start when '^'-anchored), so most candidates die without a VM
  // thread ever being built.
  if (!literal_.empty()) {
    if (pos + literal_.size() > text.size()) {
      return std::nullopt;
    }
    if (bol_anchored_ && pos != 0 && text[pos - 1] != '\n') {
      return std::nullopt;
    }
    for (size_t i = 0; i < literal_.size(); i++) {
      if (text[pos + i] != literal_[i]) {
        return std::nullopt;
      }
    }
    if (literal_whole_) {  // bol (if any) was verified above
      MatchResult result;
      result.begin = pos;
      result.end = pos + literal_.size();
      return result;
    }
  }
  return Run(text, pos, /*anchored=*/true);
}

std::optional<Regexp::MatchResult> Regexp::SearchBackward(const RuneSpans& text,
                                                          size_t limit) const {
  OBS_COUNT("search.backward", 1);
  // Stream forward keeping the last qualifying match: the candidates are the
  // (greedy) matches at each successful start position, and the winner is the
  // one with the largest begin whose end stays at or before `limit`. No copy
  // of the document is ever made; the literal fast path skips between
  // candidate starts.
  std::optional<MatchResult> best;
  size_t pos = 0;
  while (pos <= text.size()) {
    auto m = Search(text, pos);
    if (!m || m->begin > limit) {
      break;
    }
    if (m->end <= limit) {
      best = *m;
    }
    pos = m->begin + 1;
  }
  return best;
}

std::optional<Regexp::MatchResult> Regexp::SearchUtf8(std::string_view text) const {
  RuneString runes = RunesFromUtf8(text);
  return Search(runes, 0);
}

}  // namespace help
