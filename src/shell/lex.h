// Table-driven character classification for the shell's lexer. The parser
// used to decide "is this a word character?" with a per-character switch over
// sixteen punctuation cases; every byte of every script paid that branch tree
// on each of the several predicates the scanner asks. Following the
// charFlags_ idiom (SNIPPETS.md 1-2), all of the scanner's character classes
// are folded into one 256-entry table of bit flags built once at startup, so
// each predicate is a single indexed load and mask.
#ifndef SRC_SHELL_LEX_H_
#define SRC_SHELL_LEX_H_

#include <cstdint>
#include <string_view>

namespace help {

// One bit per character class the scanner distinguishes. A byte can be in
// several classes ('*' is a word char, a variable char, and a glob char).
enum ShellCharFlag : uint16_t {
  kShBlank = 1 << 0,      // space, tab, \r: skipped between tokens
  kShNewline = 1 << 1,    // \n: line separator (not a blank)
  kShWordChar = 1 << 2,   // may appear inside a bare word
  kShWordStart = 1 << 3,  // may begin a word: word chars plus ' $ ` ^
  kShVarChar = 1 << 4,    // may appear in a $name reference: alnum _ *
  kShNameChar = 1 << 5,   // assignment / loop-variable names: alnum _
  kShGlobChar = 1 << 6,   // * ? [ : triggers glob expansion
  kShSeparator = 1 << 7,  // ; and \n: command separators
  kShComment = 1 << 8,    // #
  kShQuote = 1 << 9,      // '
};

// The flag table. NUL and bytes >= 128 classify as word characters, exactly
// as the old switch's default case did (UTF-8 continuation bytes ride along
// inside words).
class ShellLang {
 public:
  static const ShellLang& Get();

  uint16_t Flags(char c) const { return flags_[static_cast<unsigned char>(c)]; }
  bool Is(char c, uint16_t mask) const { return (Flags(c) & mask) != 0; }

 private:
  ShellLang();
  uint16_t flags_[256];
};

inline bool ShellIs(char c, uint16_t mask) { return ShellLang::Get().Is(c, mask); }

// Does `s` contain any glob metacharacter (*, ?, [)? The evaluator globs
// only words that do.
bool ShellHasGlobChars(std::string_view s);

}  // namespace help

#endif  // SRC_SHELL_LEX_H_
