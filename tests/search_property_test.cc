// Differential property tests for the zero-copy streaming search layer.
//
// The oracle is the plain Pike VM (Regexp::VmSearch) running over a single
// materialized copy of the document — no spans, no Boyer-Moore skip loop, no
// line-index candidate enumeration. The subject is the streaming path
// (StreamSearch / SearchBackward / StreamFindLiteral) over a Text whose gap
// has been parked at a random position, with the literal prefilter in play.
// Matches must be byte-identical, captures included.
#include "src/text/search.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "src/base/rune.h"
#include "src/regexp/regexp.h"
#include "src/text/text.h"

namespace help {
namespace {

// Deterministic PRNG so failures reproduce (same idiom as text_property_test).
struct Lcg {
  uint32_t state;
  explicit Lcg(uint32_t seed) : state(seed * 2654435761u + 1) {}
  uint32_t Next() {
    state = state * 1664525 + 1013904223;
    return state >> 8;
  }
  uint32_t Below(uint32_t n) { return n ? Next() % n : 0; }
};

// Small alphabet with repeats so random patterns actually hit, plus newlines
// (anchors), spaces, and multi-byte runes (span/UTF-8 boundaries).
constexpr Rune kAlphabet[] = {'a', 'b', 'c', 'a', 'b', '\n', ' ', 0x3B4, 0x20AC};

RuneString RandomDoc(Lcg& rng, size_t max_len) {
  RuneString doc;
  size_t n = rng.Below(static_cast<uint32_t>(max_len) + 1);
  for (size_t i = 0; i < n; i++) {
    doc.push_back(kAlphabet[rng.Below(sizeof(kAlphabet) / sizeof(kAlphabet[0]))]);
  }
  return doc;
}

// A grammar of patterns that always compile: literal runs, '.', classes,
// repetitions, groups, alternation, and anchors.
std::string RandomPattern(Lcg& rng) {
  static const char* kAtoms[] = {"a",    "b",     "c",    "ab",   "bc",  ".",
                                 "[abc]", "[^ab]", "a*",   "b+",   "c?",  "(ab)",
                                 "(a|b)", "a|bc",  "(a)(b)", "\\n", " ",  ".*"};
  std::string p;
  if (rng.Below(5) == 0) {
    p += '^';
  }
  size_t n = 1 + rng.Below(4);
  for (size_t i = 0; i < n; i++) {
    p += kAtoms[rng.Below(sizeof(kAtoms) / sizeof(kAtoms[0]))];
  }
  if (rng.Below(6) == 0) {
    p += '$';
  }
  return p;
}

// Builds a Text with the given content and the gap parked at `gap_pos`:
// inserting then deleting at a position moves the gap there without changing
// the content.
Text MakeGappedText(const RuneString& content, size_t gap_pos) {
  Text t;
  t.SetAll(Utf8FromRunes(content));
  gap_pos = std::min(gap_pos, content.size());
  RuneString probe;
  probe.push_back('x');
  t.InsertNoUndo(gap_pos, probe);
  t.DeleteNoUndo(gap_pos, 1);
  EXPECT_EQ(t.size(), content.size());
  return t;
}

void ExpectSameMatch(const std::optional<Regexp::MatchResult>& got,
                     const std::optional<Regexp::MatchResult>& want,
                     const std::string& what) {
  ASSERT_EQ(got.has_value(), want.has_value()) << what;
  if (!want.has_value()) {
    return;
  }
  EXPECT_EQ(got->begin, want->begin) << what;
  EXPECT_EQ(got->end, want->end) << what;
  ASSERT_EQ(got->groups.size(), want->groups.size()) << what;
  for (size_t g = 0; g < want->groups.size(); g++) {
    EXPECT_EQ(got->groups[g], want->groups[g]) << what << " group " << g;
  }
}

// Oracle: last match (greedy at each successful start) with end <= limit,
// found by running the anchored VM at every position of the materialized copy.
std::optional<Regexp::MatchResult> RefBackward(const Regexp& re, RuneStringView doc,
                                               size_t limit) {
  std::optional<Regexp::MatchResult> best;
  for (size_t p = 0; p <= doc.size(); p++) {
    auto m = re.VmSearch(doc, p, /*anchored=*/true);
    if (m && m->end <= limit && (!best || m->begin >= best->begin)) {
      best = m;
    }
  }
  return best;
}

TEST(SearchProperty, StreamingMatchesMaterialized) {
  constexpr int kCases = 10000;
  for (int c = 0; c < kCases; c++) {
    Lcg rng(static_cast<uint32_t>(c));
    RuneString content = RandomDoc(rng, 160);
    std::string pattern = RandomPattern(rng);
    auto re = Regexp::Compile(pattern);
    ASSERT_TRUE(re.ok()) << pattern;
    size_t gap_pos = rng.Below(static_cast<uint32_t>(content.size()) + 1);
    Text t = MakeGappedText(content, gap_pos);
    size_t start = rng.Below(static_cast<uint32_t>(content.size()) + 2);

    std::optional<Regexp::MatchResult> want;
    if (start <= content.size()) {
      want = re.value().VmSearch(RuneStringView(content), start);
    }
    auto got = StreamSearch(t, re.value(), start);

    std::string what = "case " + std::to_string(c) + ": /" + pattern + "/ start " +
                       std::to_string(start) + " gap " + std::to_string(gap_pos) +
                       " doc \"" + Utf8FromRunes(content) + "\"";
    ExpectSameMatch(got, want, what);
  }
}

TEST(SearchProperty, BackwardMatchesMatchAtSweep) {
  constexpr int kCases = 2500;
  for (int c = 0; c < kCases; c++) {
    Lcg rng(0x9000u + static_cast<uint32_t>(c));
    RuneString content = RandomDoc(rng, 120);
    std::string pattern = RandomPattern(rng);
    auto re = Regexp::Compile(pattern);
    ASSERT_TRUE(re.ok()) << pattern;
    size_t gap_pos = rng.Below(static_cast<uint32_t>(content.size()) + 1);
    Text t = MakeGappedText(content, gap_pos);
    size_t limit = rng.Below(static_cast<uint32_t>(content.size()) + 2);

    std::optional<Regexp::MatchResult> want = RefBackward(
        re.value(), RuneStringView(content), std::min(limit, content.size()));
    auto got = StreamSearchBackward(t, re.value(), limit);

    std::string what = "case " + std::to_string(c) + ": -/" + pattern + "/ limit " +
                       std::to_string(limit) + " gap " + std::to_string(gap_pos) +
                       " doc \"" + Utf8FromRunes(content) + "\"";
    ExpectSameMatch(got, want, what);
  }
}

TEST(SearchProperty, LiteralFinderMatchesRuneStringFind) {
  constexpr int kCases = 4000;
  for (int c = 0; c < kCases; c++) {
    Lcg rng(0x5eedu + static_cast<uint32_t>(c));
    RuneString content = RandomDoc(rng, 200);
    // Half the needles are slices of the document (guaranteed hits at some
    // offset), half are random (mostly misses).
    RuneString needle;
    if (!content.empty() && rng.Below(2) == 0) {
      size_t off = rng.Below(static_cast<uint32_t>(content.size()));
      size_t len = 1 + rng.Below(std::min<uint32_t>(8, static_cast<uint32_t>(content.size() - off)));
      needle = content.substr(off, len);
    } else {
      needle = RandomDoc(rng, 4);
      if (needle.empty()) {
        needle.push_back('a');
      }
    }
    size_t gap_pos = rng.Below(static_cast<uint32_t>(content.size()) + 1);
    Text t = MakeGappedText(content, gap_pos);
    size_t start = rng.Below(static_cast<uint32_t>(content.size()) + 2);

    size_t want = content.find(needle, start);
    size_t got = StreamFindLiteral(t, needle, start);
    EXPECT_EQ(got, want) << "case " << c << ": needle \"" << Utf8FromRunes(needle)
                         << "\" start " << start << " gap " << gap_pos << " doc \""
                         << Utf8FromRunes(content) << "\"";
  }
}

// The gap parked in the middle of the needle is the adversarial case for the
// span-aware Boyer-Moore loop: exercise every gap position explicitly.
TEST(SearchProperty, GapStraddlingLiteral) {
  const RuneString needle = RunesFromUtf8("needle\xCE\xB4x");
  const RuneString doc = RunesFromUtf8("haystack hay needle\xCE\xB4x stack");
  size_t expect = doc.find(needle);
  ASSERT_NE(expect, RuneString::npos);
  for (size_t gap = 0; gap <= doc.size(); gap++) {
    Text t = MakeGappedText(doc, gap);
    EXPECT_EQ(StreamFindLiteral(t, needle, 0), expect) << "gap " << gap;
    auto re = Regexp::Compile("needle\xCE\xB4x");
    ASSERT_TRUE(re.ok());
    auto m = StreamSearch(t, re.value(), 0);
    ASSERT_TRUE(m.has_value()) << "gap " << gap;
    EXPECT_EQ(m->begin, expect) << "gap " << gap;
    EXPECT_EQ(m->end, expect + needle.size()) << "gap " << gap;
  }
}

TEST(SearchProperty, AnchoredAcrossGapPositions) {
  const RuneString doc = RunesFromUtf8("one\ntwo\nthree\nfour two\ntwo five\n");
  auto re = Regexp::Compile("^two");
  ASSERT_TRUE(re.ok());
  RuneString needle = RunesFromUtf8("two");
  for (size_t gap = 0; gap <= doc.size(); gap++) {
    Text t = MakeGappedText(doc, gap);
    for (size_t start = 0; start <= doc.size(); start++) {
      auto want = re.value().VmSearch(RuneStringView(doc), start);
      auto got = StreamSearch(t, re.value(), start);
      ExpectSameMatch(got, want,
                      "gap " + std::to_string(gap) + " start " + std::to_string(start));
    }
  }
}

}  // namespace
}  // namespace help
