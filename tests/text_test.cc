// Gap buffer, Text (undo/redo, lines, expansion) and address tests.
#include <gtest/gtest.h>

#include "src/text/address.h"
#include "src/text/gapbuffer.h"
#include "src/text/text.h"

namespace help {
namespace {

// --- GapBuffer ---------------------------------------------------------------

TEST(GapBuffer, InsertReadDelete) {
  GapBuffer g;
  g.Insert(0, U"hello");
  EXPECT_EQ(g.size(), 5u);
  g.Insert(5, U" world");
  EXPECT_EQ(Utf8FromRunes(g.ReadAll()), "hello world");
  RuneString removed = g.Delete(5, 6);
  EXPECT_EQ(Utf8FromRunes(removed), " world");
  EXPECT_EQ(Utf8FromRunes(g.ReadAll()), "hello");
}

TEST(GapBuffer, InsertInMiddleMovesGap) {
  GapBuffer g(U"ad");
  g.Insert(1, U"bc");
  EXPECT_EQ(Utf8FromRunes(g.ReadAll()), "abcd");
  g.Insert(0, U"_");
  EXPECT_EQ(Utf8FromRunes(g.ReadAll()), "_abcd");
  g.Insert(5, U"!");
  EXPECT_EQ(Utf8FromRunes(g.ReadAll()), "_abcd!");
}

TEST(GapBuffer, DeleteClampsAtEnd) {
  GapBuffer g(U"abc");
  EXPECT_EQ(g.Delete(1, 100), RuneString(U"bc"));
  EXPECT_EQ(g.Delete(5, 1), RuneString());
  EXPECT_EQ(g.size(), 1u);
}

TEST(GapBuffer, ReadWindow) {
  GapBuffer g(U"0123456789");
  EXPECT_EQ(g.Read(3, 4), RuneString(U"3456"));
  EXPECT_EQ(g.Read(8, 10), RuneString(U"89"));
  EXPECT_EQ(g.Read(100, 1), RuneString());
}

// Property: a random edit script agrees with the std::u32string model.
class GapBufferProperty : public ::testing::TestWithParam<int> {};

TEST_P(GapBufferProperty, AgreesWithReferenceModel) {
  uint32_t seed = static_cast<uint32_t>(GetParam()) * 2654435761u;
  auto next = [&seed] {
    seed = seed * 1664525 + 1013904223;
    return seed >> 8;
  };
  GapBuffer g;
  std::u32string model;
  for (int step = 0; step < 400; step++) {
    if (model.empty() || next() % 2 == 0) {
      size_t pos = model.empty() ? 0 : next() % (model.size() + 1);
      size_t len = next() % 8;
      RuneString s;
      for (size_t i = 0; i < len; i++) {
        s.push_back('a' + next() % 26);
      }
      g.Insert(pos, s);
      model.insert(pos, s);
    } else {
      size_t pos = next() % (model.size() + 1);
      size_t len = next() % 8;
      g.Delete(pos, len);
      if (pos < model.size()) {
        model.erase(pos, len);
      }
    }
    ASSERT_EQ(g.size(), model.size());
  }
  EXPECT_EQ(g.ReadAll(), RuneString(model));
  // Spot-check At() across the final buffer.
  for (size_t i = 0; i < model.size(); i += 7) {
    EXPECT_EQ(g.At(i), model[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GapBufferProperty, ::testing::Range(1, 17));

// --- Text: undo/redo ----------------------------------------------------------

TEST(Text, UndoRedoSingleGroup) {
  Text t("hello");
  t.BeginChange();
  t.Insert(5, U" world");
  EXPECT_EQ(t.Utf8(), "hello world");
  EXPECT_TRUE(t.Undo(nullptr));
  EXPECT_EQ(t.Utf8(), "hello");
  EXPECT_TRUE(t.Redo(nullptr));
  EXPECT_EQ(t.Utf8(), "hello world");
}

TEST(Text, UndoGroupsMultipleEdits) {
  Text t("abcdef");
  t.BeginChange();
  t.Delete(0, 3);   // "def"
  t.Insert(0, U"XY");  // "XYdef"
  EXPECT_EQ(t.Utf8(), "XYdef");
  EXPECT_TRUE(t.Undo(nullptr));
  EXPECT_EQ(t.Utf8(), "abcdef");  // both edits undone as one group
}

TEST(Text, RedoClearedByNewEdit) {
  Text t("a");
  t.BeginChange();
  t.Insert(1, U"b");
  t.Undo(nullptr);
  EXPECT_TRUE(t.CanRedo());
  t.BeginChange();
  t.Insert(1, U"c");
  EXPECT_FALSE(t.CanRedo());
  EXPECT_EQ(t.Utf8(), "ac");
}

TEST(Text, ReplaceIsUndoableAsOneGroup) {
  Text t("typed text replaces the selection");
  t.BeginChange();
  t.Replace(0, 5, U"TYPED");
  EXPECT_EQ(t.Utf8().substr(0, 5), "TYPED");
  t.Undo(nullptr);
  EXPECT_EQ(t.Utf8(), "typed text replaces the selection");
}

TEST(Text, UndoReportsTouchedOffset) {
  Text t("0123456789");
  t.BeginChange();
  t.Delete(4, 2);
  size_t touched = 999;
  t.Undo(&touched);
  EXPECT_EQ(touched, 4u);
}

TEST(Text, UndoStackDepth) {
  Text t;
  for (int i = 0; i < 50; i++) {
    t.BeginChange();
    t.Insert(t.size(), U"x");
  }
  int undone = 0;
  while (t.Undo(nullptr)) {
    undone++;
  }
  EXPECT_EQ(undone, 50);
  EXPECT_EQ(t.size(), 0u);
  int redone = 0;
  while (t.Redo(nullptr)) {
    redone++;
  }
  EXPECT_EQ(redone, 50);
  EXPECT_EQ(t.Utf8(), std::string(50, 'x'));
}

TEST(Text, NoUndoEditsBypassHistory) {
  Text t;
  t.InsertNoUndo(0, U"program output");
  EXPECT_FALSE(t.CanUndo());
  EXPECT_FALSE(t.dirty());
}

// --- Text: lines ---------------------------------------------------------------

TEST(Text, LineBookkeeping) {
  Text t("one\ntwo\nthree");
  EXPECT_EQ(t.LineCount(), 3u);
  EXPECT_EQ(t.LineStart(1), 0u);
  EXPECT_EQ(t.LineStart(2), 4u);
  EXPECT_EQ(t.LineStart(3), 8u);
  EXPECT_EQ(t.LineAt(0), 1u);
  EXPECT_EQ(t.LineAt(4), 2u);
  EXPECT_EQ(t.LineAt(t.size()), 3u);
  EXPECT_EQ(t.LineEndAt(5), 7u);
}

// The trailing-newline invariant the line index must reproduce exactly: a
// trailing newline ends the last line, it does not start a countable one
// (text.h's header comment). Locked in before and across edits.
TEST(Text, TrailingNewlineDoesNotAddLine) {
  Text t("a\nb\n");
  EXPECT_EQ(t.LineCount(), 2u);
}

TEST(Text, TrailingNewlineInvariant) {
  EXPECT_EQ(Text("a\n").LineCount(), 1u);
  EXPECT_EQ(Text("").LineCount(), 1u);
  EXPECT_EQ(Text("\n").LineCount(), 1u);
  EXPECT_EQ(Text("a\n\n").LineCount(), 2u);  // empty middle line counts
  EXPECT_EQ(Text("a").LineCount(), 1u);
  // The invariant holds across incremental edits, not just construction.
  Text t("a");
  t.InsertNoUndo(1, U"\n");
  EXPECT_EQ(t.LineCount(), 1u);
  t.InsertNoUndo(2, U"b");
  EXPECT_EQ(t.LineCount(), 2u);
  t.DeleteNoUndo(2, 1);
  EXPECT_EQ(t.LineCount(), 1u);
}

TEST(Text, LineRangeIncludesNewline) {
  Text t("aa\nbb\ncc");
  Selection s = t.LineRange(2);
  EXPECT_EQ(t.Utf8Range(s.q0, s.q1), "bb\n");
  // Last line has no newline to include.
  s = t.LineRange(3);
  EXPECT_EQ(t.Utf8Range(s.q0, s.q1), "cc");
}

TEST(Text, LineStartClampsPastEnd) {
  Text t("one\ntwo");
  EXPECT_EQ(t.LineStart(99), 4u);  // start of final line
}

// --- Text: expansion -----------------------------------------------------------

TEST(Text, ExpandWordMidWord) {
  Text t("run textinsert now");
  Selection s = t.ExpandWord(8);  // inside "textinsert"
  EXPECT_EQ(t.Utf8Range(s.q0, s.q1), "textinsert");
}

TEST(Text, ExpandWordIncludesBangAndDots) {
  Text t("x Close! y help.c z");
  Selection s = t.ExpandWord(4);
  EXPECT_EQ(t.Utf8Range(s.q0, s.q1), "Close!");
  s = t.ExpandWord(12);
  EXPECT_EQ(t.Utf8Range(s.q0, s.q1), "help.c");
}

TEST(Text, ExpandWordAtBoundary) {
  Text t("ab cd");
  Selection s = t.ExpandWord(2);  // on the space, touching "ab"
  EXPECT_EQ(t.Utf8Range(s.q0, s.q1), "ab");
  s = t.ExpandWord(0);
  EXPECT_EQ(t.Utf8Range(s.q0, s.q1), "ab");
}

TEST(Text, ExpandWordOnWhitespaceIsEmpty) {
  Text t("a  b");
  Selection s = t.ExpandWord(2);
  EXPECT_TRUE(s.null());
}

TEST(Text, ExpandFilenameGrabsAddress) {
  Text t("see help.c:27 for details");
  Selection s = t.ExpandFilename(6);
  EXPECT_EQ(t.Utf8Range(s.q0, s.q1), "help.c:27");
}

TEST(Text, ExpandFilenameGrabsFullPath) {
  Text t("at /usr/rob/src/help/dat.h line");
  Selection s = t.ExpandFilename(10);
  EXPECT_EQ(t.Utf8Range(s.q0, s.q1), "/usr/rob/src/help/dat.h");
}

// --- Addresses -----------------------------------------------------------------

TEST(Address, SplitFileAddress) {
  FileAddress fa = SplitFileAddress("help.c:27");
  EXPECT_EQ(fa.file, "help.c");
  EXPECT_EQ(fa.addr, "27");
  fa = SplitFileAddress("plain.c");
  EXPECT_EQ(fa.file, "plain.c");
  EXPECT_EQ(fa.addr, "");
  fa = SplitFileAddress("f:/re/");
  EXPECT_EQ(fa.addr, "/re/");
  fa = SplitFileAddress("f:$");
  EXPECT_EQ(fa.addr, "$");
  fa = SplitFileAddress("f:#12");
  EXPECT_EQ(fa.addr, "#12");
  // A colon not followed by an address lead-in stays in the name.
  fa = SplitFileAddress("weird:name");
  EXPECT_EQ(fa.file, "weird:name");
}

TEST(Address, LineNumber) {
  Text t("aa\nbb\ncc\n");
  auto s = EvalAddress(t, "2");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(t.Utf8Range(s.value().q0, s.value().q1), "bb\n");
}

TEST(Address, CharOffsetAndEnd) {
  Text t("hello");
  auto s = EvalAddress(t, "#3");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.value(), (Selection{3, 3}));
  s = EvalAddress(t, "$");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.value(), (Selection{5, 5}));
  s = EvalAddress(t, "#99");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.value(), (Selection{5, 5}));  // clamped
}

TEST(Address, RegexpAddress) {
  Text t("int n;\nn = 0;\n");
  auto s = EvalAddress(t, "/n = 0/");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(t.Utf8Range(s.value().q0, s.value().q1), "n = 0");
}

TEST(Address, BackwardRegexpAddress) {
  Text t("get(a);\nset(b);\nget(c);\n");
  auto s = EvalAddress(t, "-/get/");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.value(), (Selection{16, 19}));  // the last "get", not the first
  s = EvalAddress(t, "/get/");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.value(), (Selection{0, 3}));
  EXPECT_FALSE(EvalAddress(t, "-/nomatch/").ok());
  EXPECT_FALSE(EvalAddress(t, "-//").ok());
}

TEST(Address, SplitBackwardLeadIn) {
  auto fa = SplitFileAddress("f.c:-/main/");
  EXPECT_EQ(fa.file, "f.c");
  EXPECT_EQ(fa.addr, "-/main/");
  // "-" not followed by "/" is not an address lead-in.
  fa = SplitFileAddress("odd:-name");
  EXPECT_EQ(fa.file, "odd:-name");
}

TEST(Address, Range) {
  Text t("aa\nbb\ncc\ndd\n");
  auto s = EvalAddress(t, "2,3");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(t.Utf8Range(s.value().q0, s.value().q1), "bb\ncc\n");
}

TEST(Address, Errors) {
  Text t("abc");
  EXPECT_FALSE(EvalAddress(t, "").ok());
  EXPECT_FALSE(EvalAddress(t, "x").ok());
  EXPECT_FALSE(EvalAddress(t, "1junk").ok());
  EXPECT_FALSE(EvalAddress(t, "/nomatch/").ok());
  EXPECT_FALSE(EvalAddress(t, "0").ok());
}

// Edge-case clamping semantics, locked in so the index rewrite cannot drift.

TEST(Address, ZeroLineIsAnError) {
  Text t("aa\nbb\n");
  auto s = EvalAddress(t, "0");
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("bad line number"), std::string::npos);
}

TEST(Address, LinePastEofClampsToLastLine) {
  // Without a trailing newline the last line has content: select it whole.
  Text t("aa\nbb\ncc");
  auto s = EvalAddress(t, "99");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(t.Utf8Range(s.value().q0, s.value().q1), "cc");
  // With a trailing newline the clamp lands after it: a caret at EOF.
  Text nl("aa\nbb\n");
  s = EvalAddress(nl, "99");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.value(), (Selection{6, 6}));
}

TEST(Address, DollarIsEndOfBody) {
  Text t("aa\nbb\n");
  auto s = EvalAddress(t, "$");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.value(), (Selection{6, 6}));
}

TEST(Address, EmptyBody) {
  Text t;
  auto s = EvalAddress(t, "1");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.value(), (Selection{0, 0}));
  s = EvalAddress(t, "5");  // any line clamps to the single empty line
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.value(), (Selection{0, 0}));
  s = EvalAddress(t, "$");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.value(), (Selection{0, 0}));
  EXPECT_FALSE(EvalAddress(t, "/x/").ok());
}

// --- Byte-offset views ---------------------------------------------------------

TEST(Text, Utf8BytesTracksEncodedSize) {
  Text t;
  EXPECT_EQ(t.Utf8Bytes(), 0u);
  t.InsertNoUndo(0, U"abc");
  EXPECT_EQ(t.Utf8Bytes(), 3u);
  t.InsertNoUndo(3, RunesFromUtf8("é你😀"));  // 2 + 3 + 4 bytes
  EXPECT_EQ(t.Utf8Bytes(), t.Utf8().size());
  EXPECT_EQ(t.Utf8Bytes(), 12u);
  t.DeleteNoUndo(3, 1);  // é
  EXPECT_EQ(t.Utf8Bytes(), 10u);
}

TEST(Text, Utf8SubstrMatchesFullEncode) {
  Text t("héllo wörld\nsecond line\n");
  std::string full = t.Utf8();
  for (size_t off = 0; off <= full.size() + 1; off++) {
    EXPECT_EQ(t.Utf8Substr(off, 5), off < full.size() ? full.substr(off, 5) : "")
        << "off " << off;
  }
  // A window that splits a multi-byte rune is still byte-exact.
  size_t e_acute = full.find("h") + 1;
  EXPECT_EQ(t.Utf8Substr(e_acute + 1, 3), full.substr(e_acute + 1, 3));
}

// Every window of a mixed-width text, including ones that split a
// multi-byte rune at either or both edges or lie inside one rune, and a
// whole-ASCII window in the middle of an all-ASCII text.
TEST(Text, Utf8SubstrMatchesEveryWindow) {
  Text t("naïve 你好 😀 plain ascii tail\nsecond ünicode line\n");
  std::string full = t.Utf8();
  for (size_t off = 0; off <= full.size() + 2; off++) {
    for (size_t count : {0u, 1u, 2u, 3u, 5u, 17u, 4096u}) {
      std::string want = off < full.size() ? full.substr(off, count) : "";
      ASSERT_EQ(t.Utf8Substr(off, count), want) << "off " << off << " count " << count;
    }
  }
  EXPECT_EQ(Text("0123456789").Utf8Substr(2, 5), "23456");
}

// Chunk-boundary cases for the byte seek. A fresh Text splits into chunks of
// exactly kTargetChunkRunes runes, so this body has an all-ASCII first chunk
// and a mixed second chunk that starts with a two-byte rune.
std::string AsciiThenMixed() {
  std::string s(LineIndex::kTargetChunkRunes, 'a');
  for (int i = 0; i < 500; i++) {
    s += "é你x😀\n";
  }
  return s;
}

TEST(Text, ByteRangeFromAsciiChunkIntoMixedChunk) {
  Text t(AsciiThenMixed());
  std::string full = t.Utf8();
  const uint64_t boundary = LineIndex::kTargetChunkRunes;  // byte == rune there
  for (uint64_t off : {boundary - 300, boundary - 1}) {
    for (size_t count : {1u, 2u, 300u, 1024u}) {
      EXPECT_EQ(t.Utf8Substr(off, count), full.substr(off, count)) << off << " " << count;
    }
  }
}

TEST(Text, ByteOffsetMidRuneAfterChunkBoundary) {
  Text t(AsciiThenMixed());
  std::string full = t.Utf8();
  // Byte kTargetChunkRunes is the lead byte of the é opening the mixed chunk.
  const uint64_t mid = LineIndex::kTargetChunkRunes + 1;
  ASSERT_EQ(full.substr(mid - 1, 2), "é");
  EXPECT_EQ(t.Utf8Substr(mid, 8), full.substr(mid, 8));
  EXPECT_EQ(t.Utf8Substr(mid, 1), full.substr(mid, 1));
}

TEST(Text, ByteCountPastEofClampsToDocument) {
  Text t(AsciiThenMixed());
  std::string full = t.Utf8();
  for (uint64_t off : {uint64_t{0}, uint64_t{10}, full.size() - 3, full.size() - 1}) {
    EXPECT_EQ(t.Utf8Substr(off, full.size() + 1000), full.substr(off)) << off;
  }
  EXPECT_EQ(t.Utf8Substr(full.size(), 10), "");
}

}  // namespace
}  // namespace help
