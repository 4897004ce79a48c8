// C lexer for the browser tool. This is the front third of "rcc", the paper's
// compiler with the code generator stripped out: it tokenizes 1991-vintage
// ANSI C, tracks source coordinates through `#line N "file"` markers (which
// our cpp emits when inlining includes), and skips comments and other
// preprocessor lines.
//
// Tokens do not own their spelling. `text` views the source passed to CLex,
// and `file` views either that source (the name in a #line marker) or the
// caller's `filename`. A token is therefore valid only while both of those
// strings live and are not modified; copy what must outlive them.
#ifndef SRC_CC_CLEX_H_
#define SRC_CC_CLEX_H_

#include <string_view>
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

struct CToken {
  CTok kind = CTok::kEof;
  std::string_view text;
  std::string_view file;  // coordinate after #line adjustment
  int line = 0;
  int col = 0;
};

// Tokenizes `src`, whose first line is attributed to `filename`:1. Keywords
// are C89's (uchar, ulong... are typedefs the parser learns from headers).
// Honors `#line N "file"` directives; other preprocessor lines (a `#` that is
// the first non-blank on its line) are skipped, so the parser never sees
// them. Unterminated strings/comments are an error.
Result<std::vector<CToken>> CLex(std::string_view src, std::string_view filename);

}  // namespace help

#endif  // SRC_CC_CLEX_H_
