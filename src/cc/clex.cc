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
  return t;
}();

bool Is(char c, uint8_t mask) { return (kClass[static_cast<unsigned char>(c)] & mask) != 0; }

constexpr std::string_view kKeywords[] = {
    "auto",   "break",    "case",    "char",   "const",    "continue", "default",  "do",
    "double", "else",     "enum",    "extern", "float",    "for",      "goto",     "if",
    "int",    "long",     "register", "return", "short",   "signed",   "sizeof",   "static",
    "struct", "switch",   "typedef", "union",  "unsigned", "void",     "volatile", "while"};

// A word of at most 8 bytes as one integer.
constexpr uint64_t Pack(std::string_view s) {
  uint64_t v = 0;
  for (char c : s) {
    v = v << 8 | static_cast<unsigned char>(c);
  }
  return v;
}

// The keywords as a perfect hash table: Pack(k) * kMult >> 58 differs for
// every keyword k (the assert checks it), so a lookup is one multiply, one
// load and one compare.
constexpr uint64_t kMult = 0xb427c6237e409d1bull;
constexpr auto kKeywordSlots = [] {
  std::array<uint64_t, 64> slots{};
  for (std::string_view k : kKeywords) {
    slots[Pack(k) * kMult >> 58] = Pack(k);
  }
  return slots;
}();
static_assert(std::count(kKeywordSlots.begin(), kKeywordSlots.end(), 0) ==
              64 - std::size(kKeywords));

bool IsKeyword(std::string_view s) {
  return s.size() >= 2 && s.size() <= 8 && kKeywordSlots[Pack(s) * kMult >> 58] == Pack(s);
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

Result<std::vector<CToken>> CLex(std::string_view src, std::string_view filename) {
  std::vector<CToken> out;
  out.reserve(src.size() / 4 + 16);
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
    // Preprocessor lines: honor "#line N file" and "# N file", skip the rest.
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
      // Other directive: skip the (possibly continued) line.
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
      continue;
    }
    bol = false;
    const char* start = p;
    int tok_line = line;
    int col = static_cast<int>(p - line_start) + 1;
    CTok kind;
    if (Is(c, kIdStart)) {
      do {
        p++;
      } while (p < end && Is(*p, kIdChar));
      kind = IsKeyword(std::string_view(start, static_cast<size_t>(p - start))) ? CTok::kKeyword
                                                                                : CTok::kIdent;
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
    out.push_back({kind, std::string_view(start, static_cast<size_t>(p - start)), file, tok_line,
                   col});
  }
  out.push_back({CTok::kEof, {}, file, line, static_cast<int>(end - line_start) + 1});
  return out;
}

}  // namespace help
