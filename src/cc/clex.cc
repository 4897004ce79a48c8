#include "src/cc/clex.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>

#include "src/base/strings.h"

namespace help {

namespace {

// One bit per character class the scanner asks about (the charFlags idiom of
// SNIPPETS.md 1-2): each test is one indexed load and mask.
enum : uint8_t {
  kSpace = 1 << 0,    // space, tab, \r, \n
  kIdStart = 1 << 1,  // ASCII letters and _
  kIdChar = 1 << 2,   // ASCII letters, digits and _
  kDigit = 1 << 3,    // 0-9
  kNumChar = 1 << 4,  // ASCII letters, digits and . (the body of a number)
  kMarked = 1 << 5,   // \n / " ' : where a line, comment or literal may start
};

constexpr auto kClass = [] {
  std::array<uint8_t, 256> t{};
  for (int c = 0; c < 256; c++) {
    bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
    bool digit = c >= '0' && c <= '9';
    t[c] = (alpha || c == '_' ? kIdStart | kIdChar : 0) | (digit ? kIdChar | kDigit : 0) |
           (alpha || digit || c == '.' ? kNumChar : 0);
  }
  t[' '] = t['\t'] = t['\r'] = t['\n'] = kSpace;
  for (char c : {'\n', '/', '"', '\''}) {
    t[static_cast<unsigned char>(c)] |= kMarked;
  }
  return t;
}();

bool Is(char c, uint8_t mask) { return (kClass[static_cast<unsigned char>(c)] & mask) != 0; }

constexpr std::string_view kKeywords[] = {
    "auto",   "break",    "case",    "char",   "const",    "continue", "default",  "do",
    "double", "else",     "enum",    "extern", "float",    "for",      "goto",     "if",
    "int",    "long",     "register", "return", "short",   "signed",   "sizeof",   "static",
    "struct", "switch",   "typedef", "union",  "unsigned", "void",     "volatile", "while"};

// The keywords as a perfect hash table: CKeyword(k) differs for every
// keyword k (the assert checks it), so a lookup is one multiply, one load
// and one compare.
constexpr auto kKeywordSlots = [] {
  std::array<uint64_t, 64> slots{};
  for (std::string_view k : kKeywords) {
    slots[CKeyword(k)] = CPackWord(k);
  }
  return slots;
}();
static_assert(std::count(kKeywordSlots.begin(), kKeywordSlots.end(), 0) ==
              64 - std::size(kKeywords));

// The CKeyword id of `s`, or -1 if it is not a keyword.
int KeywordId(std::string_view s) {
  if (s.size() < 2 || s.size() > 8) {
    return -1;
  }
  int id = CKeyword(s);
  return kKeywordSlots[id] == CPackWord(s) ? id : -1;
}

// Length of the punctuator spelled c0 c1 c2 ('\0' past the end of input):
// the three- and two-character operators of C, else 1.
size_t PunctLen(char c0, char c1, char c2) {
  if ((c0 == '<' || c0 == '>') && c1 == c0) {
    return c2 == '=' ? 3 : 2;
  }
  if (c0 == '.') {
    return c1 == '.' && c2 == '.' ? 3 : 1;
  }
  bool twice = c1 == c0 && (c0 == '+' || c0 == '-' || c0 == '&' || c0 == '|');
  bool assign = c1 == '=' && std::string_view("<>-+&|=!*/%^").find(c0) != std::string_view::npos;
  return twice || assign || (c0 == '-' && c1 == '>') ? 2 : 1;
}

// The next field of `*s` separated by blanks, consumed from `*s`.
std::string_view NextField(std::string_view* s) {
  while (!s->empty() && Is(s->front(), kSpace)) {
    s->remove_prefix(1);
  }
  size_t n = 0;
  while (n < s->size() && !Is((*s)[n], kSpace)) {
    n++;
  }
  std::string_view f = s->substr(0, n);
  s->remove_prefix(n);
  return f;
}

}  // namespace

int CNames::Id(std::string_view spelling) {
  auto it = ids_.find(spelling);
  if (it != ids_.end()) {
    return it->second;
  }
  int id = static_cast<int>(spellings_.size());
  spellings_.push_back(ids_.emplace(spelling, id).first->first);
  return id;
}

int CNames::Find(std::string_view spelling) const {
  auto it = ids_.find(spelling);
  return it == ids_.end() ? -1 : it->second;
}

namespace {

// The scanner behind CLex and CLexIncludes. With kTokens it appends the
// tokens to `*out`; without, it only follows lines, comments, literals and
// directives, so `out` is unused and every include's `tok` is 0.
template <bool kTokens>
Status Scan(std::string_view src, std::string_view filename, std::vector<CToken>* out,
            std::vector<CInclude>* includes) {
  std::string_view file = filename;
  const char* const base = src.data();
  const char* const end = base + src.size();
  const char* p = base;
  const char* line_start = base;  // first byte of the current line
  int line = 1;
  bool bol = true;  // only blanks so far on this line
  auto error = [&](const std::string& what, int at_line) {
    return Status::Error(StrFormat("%s:%d: %s", std::string(file).c_str(), at_line, what.c_str()));
  };

  while (p < end) {
    char c = *p;
    if (Is(c, kSpace)) {  // a run of blanks and newlines
      do {
        if (*p++ == '\n') {
          line++;
          line_start = p;
          bol = true;
        }
      } while (p < end && Is(*p, kSpace));
      continue;
    }
    char c1 = p + 1 < end ? p[1] : '\0';
    if (c == '/' && c1 == '*') {
      size_t close = src.find("*/", p + 2 - base);
      if (close == std::string_view::npos) {
        return error("unterminated comment", line);
      }
      for (const char* q = p + 2; q < base + close; q++) {
        if (*q == '\n') {
          line++;
          line_start = q + 1;
        }
      }
      p = base + close + 2;
      bol = false;
      continue;
    }
    if (c == '/' && c1 == '/') {  // tolerate // too
      while (p < end && *p != '\n') {
        p++;
      }
      continue;
    }
    // Preprocessor lines: honor "#line N file" and "# N file", report
    // #include if asked, skip the rest.
    if (c == '#' && bol) {
      const char* eol = p;
      while (eol < end && *eol != '\n') {
        eol++;
      }
      std::string_view rest(p, static_cast<size_t>(eol - p));
      std::string_view f0 = NextField(&rest);
      long newline_no = ParseInt(NextField(&rest));
      if ((f0 == "#line" || f0 == "#") && newline_no >= 0) {
        std::string_view f2 = NextField(&rest);
        if (!f2.empty()) {
          if (f2.size() >= 2 && f2.front() == '"' && f2.back() == '"') {
            f2 = f2.substr(1, f2.size() - 2);
          }
          file = f2;
        }
        p = eol < end ? eol + 1 : end;
        line = static_cast<int>(newline_no);
        line_start = p;
        continue;
      }
      bool is_include = false;
      CInclude inc;
      if (includes != nullptr) {
        std::string_view d = TrimSpace(std::string_view(p + 1, static_cast<size_t>(eol - p - 1)));
        if (HasPrefix(d, "include") && (d.size() == 7 || !Is(d[7], kIdChar))) {
          d = TrimSpace(d.substr(7));
          char close = d.empty() ? 0 : d[0] == '"' ? '"' : d[0] == '<' ? '>' : 0;
          if (close != 0) {
            size_t n = d.find(close, 1);
            if (n == std::string_view::npos) {
              return error("bad #include", line);
            }
            is_include = true;
            inc = {d.substr(1, n - 1), close == '>', file, line, kTokens ? out->size() : 0,
                   static_cast<size_t>(line_start - base), 0};
          }
        }
      }
      // Skip the (possibly continued) line.
      while (p < end) {
        bool continued = *p == '\\' && p + 1 < end && p[1] == '\n';
        p += continued ? 1 : 0;
        if (*p++ == '\n') {
          line++;
          line_start = p;
          if (!continued) {
            break;
          }
        }
      }
      if (is_include) {
        inc.end = static_cast<size_t>(p - base);
        includes->push_back(inc);
      }
      continue;
    }
    bol = false;
    if constexpr (!kTokens) {
      // Without tokens, nothing up to the next marked character matters.
      if (c != '"' && c != '\'') {
        do {
          p++;
        } while (p < end && !Is(*p, kMarked));
        continue;
      }
    }
    const char* start = p;
    int tok_line = line;
    int col = static_cast<int>(p - line_start) + 1;
    CTok kind;
    int name = -1;
    if (Is(c, kIdStart)) {
      do {
        p++;
      } while (p < end && Is(*p, kIdChar));
      name = KeywordId(std::string_view(start, static_cast<size_t>(p - start)));
      kind = name >= 0 ? CTok::kKeyword : CTok::kIdent;
    } else if (Is(c, kDigit) || (c == '.' && Is(c1, kDigit))) {
      // Number (ints, floats, hex; exact grammar is irrelevant to browsing).
      do {
        p++;
      } while (p < end && (Is(*p, kNumChar) ||
                           ((*p == '+' || *p == '-') && (p[-1] == 'e' || p[-1] == 'E'))));
      kind = CTok::kNumber;
    } else if (c == '"' || c == '\'') {
      const char* what = c == '"' ? "string constant" : "char constant";
      for (p++; p < end && *p != c; p++) {
        if (*p == '\\' && p + 1 < end) {
          if (*++p == '\n') {
            line++;
            line_start = p + 1;
          }
        } else if (*p == '\n') {
          return error(std::string("newline in ") + what, tok_line);
        }
      }
      if (p >= end) {
        return error(std::string("unterminated ") + what, tok_line);
      }
      p++;
      kind = c == '"' ? CTok::kString : CTok::kCharConst;
    } else {
      p += PunctLen(c, c1, p + 2 < end ? p[2] : '\0');
      kind = CTok::kPunct;
    }
    if constexpr (kTokens) {
      out->push_back({kind, name, std::string_view(start, static_cast<size_t>(p - start)), file,
                      tok_line, col});
    }
  }
  if constexpr (kTokens) {
    out->push_back({CTok::kEof, -1, {}, file, line, static_cast<int>(end - line_start) + 1});
  }
  return Status::Ok();
}

}  // namespace

Result<std::vector<CToken>> CLex(std::string_view src, std::string_view filename, CNames* names,
                                 std::vector<CInclude>* includes) {
  std::vector<CToken> out;
  out.reserve(src.size() / 4 + 16);
  if (Status s = Scan<true>(src, filename, &out, includes); !s.ok()) {
    return s;
  }
  if (names != nullptr) {
    for (CToken& t : out) {
      if (t.kind == CTok::kIdent) {
        t.name = names->Id(t.text);
      }
    }
  }
  return out;
}

Status CLexIncludes(std::string_view src, std::string_view filename,
                    std::vector<CInclude>* includes) {
  return Scan<false>(src, filename, nullptr, includes);
}

}  // namespace help
