// A small regular-expression engine over runes, in the spirit of Plan 9's
// libregexp (which help linked against: see the paper's Figure 12 link line,
// `-lregexp`). Supports literals, '.', character classes, anchors, grouping,
// alternation, and the *, +, ? repetitions, with submatch capture.
//
// The implementation compiles to NFA bytecode executed by a Pike VM (thread
// lists with capture slots), so matching is O(len(text) * len(program)) with
// no pathological backtracking — important because Pattern searches run on
// every window body.
#ifndef SRC_REGEXP_REGEXP_H_
#define SRC_REGEXP_REGEXP_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/base/rune.h"
#include "src/base/status.h"

namespace help {

class Regexp {
 public:
  static constexpr int kMaxGroups = 10;  // \0 (whole match) through \9

  struct MatchResult {
    size_t begin = 0;  // rune offset of match start
    size_t end = 0;    // rune offset one past match end
    // Capture groups 1..9; groups[i] is {begin,end} or {npos,npos} if unset.
    std::vector<std::pair<size_t, size_t>> groups;
  };

  // Compiles `pattern` (UTF-8). Returns an error status on syntax errors.
  static Result<Regexp> Compile(std::string_view pattern);

  // Finds the leftmost match at or after rune offset `start`. `text` is the
  // whole document so that ^ and $ see true line boundaries. The two-span
  // form streams directly over gap-buffer storage — no copy is ever made.
  // When the pattern begins with a required literal, the scan skips with a
  // Boyer-Moore-Horspool loop and enters the VM only at candidate positions.
  std::optional<MatchResult> Search(const RuneSpans& text, size_t start = 0) const;
  std::optional<MatchResult> Search(RuneStringView text, size_t start = 0) const {
    return Search(RuneSpans(text), start);
  }

  // True iff the pattern matches starting exactly at `pos`.
  std::optional<MatchResult> MatchAt(const RuneSpans& text, size_t pos) const;
  std::optional<MatchResult> MatchAt(RuneStringView text, size_t pos) const {
    return MatchAt(RuneSpans(text), pos);
  }

  // The last match whose end is at or before rune offset `limit` (the -/re/
  // address). Streams forward over the spans without materializing; the
  // literal fast path applies between candidate matches.
  std::optional<MatchResult> SearchBackward(const RuneSpans& text, size_t limit) const;

  // Convenience for UTF-8 haystacks (offsets in the result are rune offsets).
  std::optional<MatchResult> SearchUtf8(std::string_view text) const;

  const std::string& pattern() const { return pattern_; }

  // The literal rune prefix every match must begin with (empty when the
  // pattern has no required leading literal), and whether the whole pattern
  // is exactly that literal (no VM run needed at a candidate).
  RuneStringView required_prefix() const { return literal_; }
  bool literal_only() const { return literal_whole_; }
  // True when every match must begin at a line start (leading '^'): the
  // streaming layer then enumerates line starts instead of scanning runes.
  bool line_anchored() const { return bol_anchored_; }

  // The Pike VM alone, without the literal prefilter: Search (`anchored`
  // false) or MatchAt (true) as the VM answers them. The oracle the
  // differential tests and perf_regexp compare the prefiltered paths with.
  std::optional<MatchResult> VmSearch(const RuneSpans& text, size_t start,
                                      bool anchored = false) const {
    return Run(text, start, anchored);
  }

  Regexp(Regexp&&) = default;
  Regexp& operator=(Regexp&&) = default;
  Regexp(const Regexp&) = default;
  Regexp& operator=(const Regexp&) = default;

 private:
  // NFA instructions.
  enum class Op { kChar, kAny, kClass, kBol, kEol, kSave, kSplit, kJmp, kMatch };
  struct ClassRange {
    Rune lo;
    Rune hi;
  };
  struct Inst {
    Op op;
    Rune r = 0;        // kChar
    int x = 0;         // kSplit/kJmp target; kSave slot
    int y = 0;         // kSplit second target
    int class_id = 0;  // kClass
  };
  struct CharClass {
    bool negated = false;
    std::vector<ClassRange> ranges;
    bool Contains(Rune r) const;
  };

  class Parser;

  Regexp() = default;

  std::optional<MatchResult> Run(const RuneSpans& text, size_t start, bool anchored) const;
  // Derives literal_/literal_whole_/bol_anchored_ from the compiled program.
  void ExtractLiteral();

  std::string pattern_;
  std::vector<Inst> prog_;
  std::vector<CharClass> classes_;
  int ngroups_ = 1;
  RuneString literal_;         // required leading literal (possibly empty)
  bool literal_whole_ = false; // the program is exactly the literal
  bool bol_anchored_ = false;  // leading '^'
};

}  // namespace help

#endif  // SRC_REGEXP_REGEXP_H_
