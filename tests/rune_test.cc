#include "src/base/rune.h"

#include <gtest/gtest.h>

namespace help {
namespace {

TEST(Rune, AsciiRoundTrip) {
  for (Rune r = 1; r < 0x80; r++) {
    std::string enc;
    EncodeRune(r, &enc);
    ASSERT_EQ(enc.size(), 1u);
    int size;
    EXPECT_EQ(DecodeRune(enc, &size), r);
    EXPECT_EQ(size, 1);
  }
}

struct RoundTripCase {
  RoundTripCase(Rune rune, size_t n) : r(rune), bytes(n) {}
  Rune r;
  // The padding between r and bytes, named so that it is always zero: test
  // names print the case's bytes, and unnamed padding holds whatever the
  // stack held, so the names changed from run to run.
  uint32_t pad = 0;
  size_t bytes;
};

class RuneRoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(RuneRoundTrip, EncodeDecode) {
  std::string enc;
  EncodeRune(GetParam().r, &enc);
  EXPECT_EQ(enc.size(), GetParam().bytes);
  int size;
  EXPECT_EQ(DecodeRune(enc, &size), GetParam().r);
  EXPECT_EQ(static_cast<size_t>(size), enc.size());
}

INSTANTIATE_TEST_SUITE_P(Boundaries, RuneRoundTrip,
                         ::testing::Values(RoundTripCase{0x7F, 1}, RoundTripCase{0x80, 2},
                                           RoundTripCase{0x7FF, 2}, RoundTripCase{0x800, 3},
                                           RoundTripCase{0xFFFF, 3},
                                           RoundTripCase{0x10000, 4},
                                           RoundTripCase{0x10FFFF, 4},
                                           RoundTripCase{0x25A0, 3},   // ■ the tab square
                                           RoundTripCase{0x00AB, 2})); // «

TEST(Rune, InvalidLeadByte) {
  int size;
  EXPECT_EQ(DecodeRune("\xFF", &size), kRuneError);
  EXPECT_EQ(size, 1);  // always makes progress
  EXPECT_EQ(DecodeRune("\x80", &size), kRuneError);  // stray continuation
}

TEST(Rune, TruncatedSequence) {
  std::string enc;
  EncodeRune(0x4E2D, &enc);  // 3 bytes
  int size;
  EXPECT_EQ(DecodeRune(enc.substr(0, 2), &size), kRuneError);
  EXPECT_EQ(size, 1);
}

TEST(Rune, OverlongRejected) {
  // 0xC0 0x80 is an overlong encoding of NUL.
  int size;
  EXPECT_EQ(DecodeRune("\xC0\x80", &size), kRuneError);
}

TEST(Rune, SurrogatesRejected) {
  // 0xD800 encoded as UTF-8 (ED A0 80) must not decode.
  int size;
  EXPECT_EQ(DecodeRune("\xED\xA0\x80", &size), kRuneError);
  // And must not encode.
  std::string enc;
  EncodeRune(0xD800, &enc);
  EXPECT_EQ(DecodeRune(enc, &size), kRuneError);
}

TEST(Rune, StringConversionsRoundTrip) {
  std::string utf8 = "help.c:27 \xE2\x96\xA0 caf\xC3\xA9";
  RuneString runes = RunesFromUtf8(utf8);
  EXPECT_EQ(Utf8FromRunes(runes), utf8);
  EXPECT_EQ(RuneLen(utf8), runes.size());
}

TEST(Rune, MalformedStreamProgresses) {
  std::string bad = "a\xFF\xFE b";
  RuneString runes = RunesFromUtf8(bad);
  EXPECT_EQ(runes.size(), 5u);  // a, FFFD, FFFD, ' ', b
  EXPECT_EQ(runes[1], kRuneError);
}

TEST(Rune, WordClasses) {
  // Word runes include the identifier and command characters…
  for (Rune r : RuneString(U"azAZ09_.-+/*!")) {
    EXPECT_TRUE(IsWordRune(r)) << static_cast<uint32_t>(r);
  }
  // …but not separators or quotes.
  for (Rune r : RuneString(U" \t\n()[]{}<>'\",;")) {
    EXPECT_FALSE(IsWordRune(r)) << static_cast<uint32_t>(r);
  }
}

TEST(Rune, FilenameClassesIncludeAddressChars) {
  EXPECT_TRUE(IsFilenameRune(':'));  // help.c:27
  EXPECT_TRUE(IsFilenameRune('/'));
  EXPECT_TRUE(IsFilenameRune('#'));
  EXPECT_TRUE(IsFilenameRune('$'));
  EXPECT_FALSE(IsFilenameRune(' '));
  EXPECT_FALSE(IsFilenameRune('"'));
}

}  // namespace
}  // namespace help
