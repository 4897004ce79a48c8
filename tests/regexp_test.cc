#include "src/regexp/regexp.h"

#include <gtest/gtest.h>

#include "src/regexp/cache.h"

namespace help {
namespace {

// Compiles or dies; search helper returning the matched text (or "<none>").
std::string FirstMatch(std::string_view pattern, std::string_view text) {
  auto re = Regexp::Compile(pattern);
  EXPECT_TRUE(re.ok()) << re.message();
  if (!re.ok()) {
    return "<bad>";
  }
  RuneString runes = RunesFromUtf8(text);
  auto m = re.value().Search(runes);
  if (!m) {
    return "<none>";
  }
  return Utf8FromRunes(RuneStringView(runes).substr(m->begin, m->end - m->begin));
}

struct MatchCase {
  const char* pattern;
  const char* text;
  const char* expect;  // matched substring or "<none>"
};

// Writes `s` single-quoted with control bytes escaped. The case printers
// below use it so that test names spell out the case: gtest's default
// printer would dump the struct's pointer bytes, which change every build.
void PrintQuoted(const char* s, std::ostream* os) {
  *os << '\'';
  for (const char* p = s; *p != '\0'; p++) {
    if (*p == '\n') {
      *os << "\\n";
    } else if (*p == '\t') {
      *os << "\\t";
    } else {
      *os << *p;
    }
  }
  *os << '\'';
}

void PrintTo(const MatchCase& c, std::ostream* os) {
  PrintQuoted(c.pattern, os);
  *os << " in ";
  PrintQuoted(c.text, os);
  *os << " is ";
  PrintQuoted(c.expect, os);
}

class RegexpMatch : public ::testing::TestWithParam<MatchCase> {};

TEST_P(RegexpMatch, Matches) {
  EXPECT_EQ(FirstMatch(GetParam().pattern, GetParam().text), GetParam().expect)
      << GetParam().pattern << " on " << GetParam().text;
}

INSTANTIATE_TEST_SUITE_P(
    Basics, RegexpMatch,
    ::testing::Values(
        MatchCase{"abc", "xxabcxx", "abc"}, MatchCase{"abc", "ab", "<none>"},
        MatchCase{"a.c", "abc", "abc"}, MatchCase{"a.c", "a\nc", "<none>"},  // . is not \n
        MatchCase{"ab*c", "ac", "ac"}, MatchCase{"ab*c", "abbbc", "abbbc"},
        MatchCase{"ab+c", "ac", "<none>"}, MatchCase{"ab+c", "abbc", "abbc"},
        MatchCase{"ab?c", "abc", "abc"}, MatchCase{"ab?c", "ac", "ac"},
        MatchCase{"a|b", "zb", "b"}, MatchCase{"hello|world", "say world", "world"},
        MatchCase{"(ab)+", "ababab", "ababab"},
        MatchCase{"x(a|b)*y", "xabbay", "xabbay"}));

INSTANTIATE_TEST_SUITE_P(
    Classes, RegexpMatch,
    ::testing::Values(MatchCase{"[abc]+", "zzcabz", "cab"},
                      MatchCase{"[a-z]+", "ABCdefGH", "def"},
                      MatchCase{"[^a-z]+", "abcDEF", "DEF"},
                      MatchCase{"[0-9][0-9]*", "line 176153 end", "176153"},
                      MatchCase{"[]]", "x]y", "]"},      // ] first is literal
                      MatchCase{"[a-]", "-", "-"},       // trailing - is literal
                      MatchCase{"[\\t]", "a\tb", "\t"}));

INSTANTIATE_TEST_SUITE_P(
    Anchors, RegexpMatch,
    ::testing::Values(MatchCase{"^abc", "abcdef", "abc"},
                      MatchCase{"^def", "abcdef", "<none>"},
                      MatchCase{"def$", "abcdef", "def"},
                      MatchCase{"^abc$", "abc", "abc"},
                      // ^/$ match at embedded line boundaries (multi-line text).
                      MatchCase{"^world", "hello\nworld", "world"},
                      MatchCase{"hello$", "hello\nworld", "hello"}));

INSTANTIATE_TEST_SUITE_P(
    Escapes, RegexpMatch,
    ::testing::Values(MatchCase{"a\\.c", "abc a.c", "a.c"},
                      MatchCase{"\\*", "2*3", "*"},
                      MatchCase{"a\\nb", "a\nb", "a\nb"},
                      MatchCase{"\\(x\\)", "f(x)", "(x)"}));

TEST(Regexp, LeftmostMatchWins) {
  auto re = Regexp::Compile("a+");
  ASSERT_TRUE(re.ok());
  RuneString text = RunesFromUtf8("xxaayaaa");
  auto m = re.value().Search(text);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->begin, 2u);
  EXPECT_EQ(m->end, 4u);  // greedy within the leftmost start
}

TEST(Regexp, SearchFromOffset) {
  auto re = Regexp::Compile("ab");
  ASSERT_TRUE(re.ok());
  RuneString text = RunesFromUtf8("ab ab ab");
  auto m = re.value().Search(text, 1);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->begin, 3u);
}

TEST(Regexp, MatchAtIsAnchored) {
  auto re = Regexp::Compile("bc");
  ASSERT_TRUE(re.ok());
  RuneString text = RunesFromUtf8("abc");
  EXPECT_FALSE(re.value().MatchAt(text, 0).has_value());
  EXPECT_TRUE(re.value().MatchAt(text, 1).has_value());
}

TEST(Regexp, CaptureGroups) {
  auto re = Regexp::Compile("(a+)(b+)");
  ASSERT_TRUE(re.ok());
  RuneString text = RunesFromUtf8("zaabbbz");
  auto m = re.value().Search(text);
  ASSERT_TRUE(m.has_value());
  ASSERT_GE(m->groups.size(), 2u);
  EXPECT_EQ(m->groups[0], (std::pair<size_t, size_t>(1, 3)));
  EXPECT_EQ(m->groups[1], (std::pair<size_t, size_t>(3, 6)));
}

TEST(Regexp, UnsetGroup) {
  auto re = Regexp::Compile("(a)|(b)");
  ASSERT_TRUE(re.ok());
  RuneString text = RunesFromUtf8("b");
  auto m = re.value().Search(text);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->groups[0].first, static_cast<size_t>(-1));
  EXPECT_EQ(m->groups[1].first, 0u);
}

TEST(Regexp, EmptyAlternative) {
  auto re = Regexp::Compile("x(a|)y");
  ASSERT_TRUE(re.ok());
  EXPECT_EQ(FirstMatch("x(a|)y", "xy"), "xy");
  EXPECT_EQ(FirstMatch("x(a|)y", "xay"), "xay");
}

TEST(Regexp, UnicodeRunes) {
  EXPECT_EQ(FirstMatch("caf.", "un caf\xC3\xA9 noir"), "caf\xC3\xA9");
}

struct ErrorCase {
  const char* pattern;
};

void PrintTo(const ErrorCase& c, std::ostream* os) { PrintQuoted(c.pattern, os); }

class RegexpErrors : public ::testing::TestWithParam<ErrorCase> {};

TEST_P(RegexpErrors, Rejected) {
  auto re = Regexp::Compile(GetParam().pattern);
  EXPECT_FALSE(re.ok()) << GetParam().pattern;
}

INSTANTIATE_TEST_SUITE_P(Syntax, RegexpErrors,
                         ::testing::Values(ErrorCase{"("}, ErrorCase{")"}, ErrorCase{"a)"},
                                           ErrorCase{"(a"}, ErrorCase{"*a"}, ErrorCase{"+"},
                                           ErrorCase{"[abc"}, ErrorCase{"a\\"},
                                           ErrorCase{"[z-a]"}));

// Pathological pattern that kills backtrackers; the Pike VM must stay linear.
TEST(Regexp, NoExponentialBlowup) {
  std::string pattern;
  for (int i = 0; i < 20; i++) {
    pattern += "a?";
  }
  for (int i = 0; i < 20; i++) {
    pattern += "a";
  }
  auto re = Regexp::Compile(pattern);
  ASSERT_TRUE(re.ok());
  RuneString text(20, 'a');
  auto m = re.value().Search(text);  // must return promptly
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->end - m->begin, 20u);
}

// Property: a literal pattern must match exactly where std::string finds it.
class RegexpLiteralProperty : public ::testing::TestWithParam<int> {};

TEST_P(RegexpLiteralProperty, AgreesWithFind) {
  uint32_t seed = static_cast<uint32_t>(GetParam());
  auto next = [&seed] {
    seed = seed * 1664525 + 1013904223;
    return seed >> 16;
  };
  std::string alphabet = "abcx";
  std::string text;
  for (int i = 0; i < 200; i++) {
    text += alphabet[next() % alphabet.size()];
  }
  std::string needle;
  for (int i = 0; i < 3; i++) {
    needle += alphabet[next() % alphabet.size()];
  }
  auto re = Regexp::Compile(needle);
  ASSERT_TRUE(re.ok());
  RuneString runes = RunesFromUtf8(text);
  auto m = re.value().Search(runes);
  size_t expect = text.find(needle);
  if (expect == std::string::npos) {
    EXPECT_FALSE(m.has_value());
  } else {
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->begin, expect);
    EXPECT_EQ(m->end, expect + needle.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegexpLiteralProperty, ::testing::Range(1, 33));

// --- Streaming (two-span) search ------------------------------------------

// Splits `text` at every possible point and checks that searching the spans
// gives the same answer as searching the contiguous string.
TEST(RegexpSpans, EverySplitEquivalent) {
  const char* kPatterns[] = {"abc", "a.c", "^b", "c$", "(a+)(b+)", "x|abc"};
  RuneString runes = RunesFromUtf8("xxabc\nabbc\nbzz abc");
  for (const char* pattern : kPatterns) {
    auto re = Regexp::Compile(pattern);
    ASSERT_TRUE(re.ok()) << pattern;
    auto want = re.value().Search(RuneStringView(runes));
    for (size_t cut = 0; cut <= runes.size(); cut++) {
      RuneSpans spans(RuneStringView(runes).substr(0, cut),
                      RuneStringView(runes).substr(cut));
      auto got = re.value().Search(spans);
      ASSERT_EQ(got.has_value(), want.has_value()) << pattern << " cut " << cut;
      if (want) {
        EXPECT_EQ(got->begin, want->begin) << pattern << " cut " << cut;
        EXPECT_EQ(got->end, want->end) << pattern << " cut " << cut;
        EXPECT_EQ(got->groups, want->groups) << pattern << " cut " << cut;
      }
    }
  }
}

TEST(RegexpSpans, LiteralExtraction) {
  auto whole = Regexp::Compile("hello");
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(whole.value().required_prefix(), RunesFromUtf8("hello"));
  EXPECT_TRUE(whole.value().literal_only());
  EXPECT_FALSE(whole.value().line_anchored());

  auto prefix = Regexp::Compile("err(or|no)");
  ASSERT_TRUE(prefix.ok());
  EXPECT_EQ(prefix.value().required_prefix(), RunesFromUtf8("err"));
  EXPECT_FALSE(prefix.value().literal_only());

  auto anchored = Regexp::Compile("^main");
  ASSERT_TRUE(anchored.ok());
  EXPECT_TRUE(anchored.value().line_anchored());
  EXPECT_EQ(anchored.value().required_prefix(), RunesFromUtf8("main"));

  auto starred = Regexp::Compile("a*b");
  ASSERT_TRUE(starred.ok());
  EXPECT_TRUE(starred.value().required_prefix().empty());

  auto grouped = Regexp::Compile("(abc)");
  ASSERT_TRUE(grouped.ok());
  EXPECT_EQ(grouped.value().required_prefix(), RunesFromUtf8("abc"));
  EXPECT_FALSE(grouped.value().literal_only());  // must record the capture
}

// The literal prefilter and the plain VM must agree, including on matches
// that the skip loop lands on mid-candidate; MatchAt's prefix check too.
TEST(RegexpSpans, FastPathEquivalence) {
  RuneString runes = RunesFromUtf8("ababx abaabab ababab!");
  auto re = Regexp::Compile("abab");
  ASSERT_TRUE(re.ok());
  for (size_t start = 0; start <= runes.size(); start++) {
    auto want = re.value().VmSearch(RuneStringView(runes), start);
    auto got = re.value().Search(RuneStringView(runes), start);
    ASSERT_EQ(got.has_value(), want.has_value()) << start;
    if (want) {
      EXPECT_EQ(got->begin, want->begin) << start;
      EXPECT_EQ(got->end, want->end) << start;
    }
    auto want_at = re.value().VmSearch(RuneStringView(runes), start, /*anchored=*/true);
    auto got_at = re.value().MatchAt(RuneStringView(runes), start);
    ASSERT_EQ(got_at.has_value(), want_at.has_value()) << start;
  }
}

TEST(RegexpSpans, SearchBackward) {
  RuneString runes = RunesFromUtf8("ab ab ab");
  auto re = Regexp::Compile("ab");
  ASSERT_TRUE(re.ok());
  RuneSpans spans{RuneStringView(runes)};

  auto m = re.value().SearchBackward(spans, runes.size());
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->begin, 6u);  // the last "ab"

  m = re.value().SearchBackward(spans, 5);  // the second "ab" ends exactly here
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->begin, 3u);

  m = re.value().SearchBackward(spans, 4);  // only the first "ab" fits
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->begin, 0u);

  m = re.value().SearchBackward(spans, 1);  // no match fits
  EXPECT_FALSE(m.has_value());

  // Greedy-at-each-start: -/a+/ on "aaa" is the match at the last start.
  RuneString aaa = RunesFromUtf8("aaa");
  auto plus = Regexp::Compile("a+");
  ASSERT_TRUE(plus.ok());
  m = plus.value().SearchBackward(RuneSpans{RuneStringView(aaa)}, aaa.size());
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->begin, 2u);
  EXPECT_EQ(m->end, 3u);
}

// --- Compiled-pattern cache -----------------------------------------------

TEST(RegexpCache, HitReturnsSameObject) {
  RegexpCache cache;
  auto a = cache.Get("a(b|c)+");
  ASSERT_TRUE(a.ok());
  auto b = cache.Get("a(b|c)+");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().get(), b.value().get());
  EXPECT_EQ(cache.size(), 1u);
}

TEST(RegexpCache, ErrorsAreNotCached) {
  RegexpCache cache;
  EXPECT_FALSE(cache.Get("a(b").ok());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(RegexpCache, EvictsLeastRecentlyUsed) {
  RegexpCache cache;
  auto first = cache.Get("pat0");
  ASSERT_TRUE(first.ok());
  const Regexp* first_ptr = first.value().get();
  // Fill past capacity without touching pat0 again: it must be evicted.
  for (int i = 1; i < 100; i++) {
    ASSERT_TRUE(cache.Get("pat" + std::to_string(i)).ok());
  }
  EXPECT_LE(cache.size(), 64u);
  auto again = cache.Get("pat0");
  ASSERT_TRUE(again.ok());
  EXPECT_NE(again.value().get(), first_ptr);  // recompiled, not the old entry
}

}  // namespace
}  // namespace help
