// C lexer for the browser tool. This is the front third of "rcc", the paper's
// compiler with the code generator stripped out: it tokenizes 1991-vintage
// ANSI C, tracks source coordinates through `#line N "file"` markers (which
// cpp emits when it renders a unit as text), reports `#include` directives
// to the caller that asks for them, and skips comments and other
// preprocessor lines.
//
// Tokens do not own their spelling. `text` views the source passed to CLex,
// and `file` views either that source (the name in a #line marker) or the
// caller's `filename`. A token is therefore valid only while both of those
// strings live and are not modified; copy what must outlive them. The same
// holds for a CInclude's `name` and `file`.
#ifndef SRC_CC_CLEX_H_
#define SRC_CC_CLEX_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/base/status.h"

namespace help {

enum class CTok {
  kEof,
  kIdent,
  kKeyword,
  kNumber,
  kString,
  kCharConst,
  kPunct,  // operators and punctuation, text holds the spelling
};

// A keyword's id: its slot in the lexer's perfect hash of C89's keywords,
// so that CKeyword("typedef") is a constant to compare a token's `name`
// with. The word (at most 8 bytes) is packed into one integer first.
constexpr uint64_t CPackWord(std::string_view s) {
  uint64_t v = 0;
  for (char c : s) {
    v = v << 8 | static_cast<unsigned char>(c);
  }
  return v;
}
constexpr int CKeyword(std::string_view k) {
  return static_cast<int>(CPackWord(k) * 0xb427c6237e409d1bull >> 58);
}

struct CToken {
  CTok kind = CTok::kEof;
  // A keyword's CKeyword id; an identifier's id in the CNames it was
  // interned in, if any; else -1.
  int name = -1;
  std::string_view text;
  std::string_view file;  // coordinate after #line adjustment
  int line = 0;
  int col = 0;
};

// Interned spellings: each distinct string gets a small id, in order of
// first sight, so that code keyed by a name indexes a vector instead of
// hashing the string again.
class CNames {
 public:
  int Id(std::string_view spelling);
  int Find(std::string_view spelling) const;  // -1 if never interned
  std::string_view Spelling(int id) const { return spellings_[static_cast<size_t>(id)]; }
  size_t size() const { return spellings_.size(); }

 private:
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const { return std::hash<std::string_view>{}(s); }
  };
  std::unordered_map<std::string, int, Hash, std::equal_to<>> ids_;
  std::vector<std::string_view> spellings_;  // views ids_'s keys, which never move
};

// An `#include "name"` or `#include <name>` directive (blanks may separate
// `#` from `include`). `file` and `line` are the directive's coordinates;
// the directive's bytes, up to and including its last newline, are
// src[begin, end), and `tok` tokens of the file come before it.
struct CInclude {
  std::string_view name;
  bool system = false;  // <name>
  std::string_view file;
  int line = 0;
  size_t tok = 0;
  size_t begin = 0;
  size_t end = 0;
};

// Tokenizes `src`, whose first line is attributed to `filename`:1. Keywords
// are C89's (uchar, ulong... are typedefs the parser learns from headers).
// Honors `#line N "file"` directives; other preprocessor lines (a `#` that is
// the first non-blank on its line) are skipped, so the parser never sees
// them. Unterminated strings/comments are an error. With `names`, every
// identifier's spelling is interned there and its id set in the token. With
// `includes`, the #include directives are appended there, and an include
// whose name is not closed on its line is an error.
Result<std::vector<CToken>> CLex(std::string_view src, std::string_view filename,
                                 CNames* names = nullptr,
                                 std::vector<CInclude>* includes = nullptr);

// Appends the #include directives of `src` to `includes`, with the errors
// CLex(src, filename, nullptr, includes) would report, but keeps no tokens:
// each include's `tok` is 0. For callers that render text, such as cpp.
Status CLexIncludes(std::string_view src, std::string_view filename,
                    std::vector<CInclude>* includes);

}  // namespace help

#endif  // SRC_CC_CLEX_H_
