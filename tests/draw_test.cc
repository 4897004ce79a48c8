// Screen and Frame tests: layout, wrapping, tabs, the point<->offset maps,
// and selection drawing.
#include <gtest/gtest.h>

#include <memory>

#include "src/draw/frame.h"
#include "src/draw/screen.h"
#include "src/obs/trace.h"

namespace help {
namespace {

TEST(Rect, Geometry) {
  Rect r{2, 3, 10, 8};
  EXPECT_EQ(r.width(), 8);
  EXPECT_EQ(r.height(), 5);
  EXPECT_TRUE(r.Contains({2, 3}));
  EXPECT_FALSE(r.Contains({10, 3}));
  EXPECT_TRUE((Rect{0, 0, 0, 0}).empty());
  Rect i = r.Intersect({5, 0, 20, 5});
  EXPECT_EQ(i, (Rect{5, 3, 10, 5}));
  EXPECT_TRUE(r.Intersect({100, 100, 101, 101}).empty());
}

TEST(Screen, FillAndRender) {
  Screen s(10, 3);
  s.Fill({0, 0, 10, 3}, '.', Style::kNormal);
  s.DrawRunes(2, 1, U"abc", Style::kNormal, s.bounds());
  EXPECT_EQ(s.Row(1), "..abc.....");
  std::string r = s.Render();
  EXPECT_EQ(r, "..........\n..abc.....\n..........\n");
}

TEST(Screen, DrawClips) {
  Screen s(5, 2);
  int drawn = s.DrawRunes(3, 0, U"abcdef", Style::kNormal, s.bounds());
  EXPECT_EQ(drawn, 2);
  EXPECT_EQ(s.Row(0), "   ab");
  EXPECT_EQ(s.DrawRunes(0, 5, U"x", Style::kNormal, s.bounds()), 0);
}

// Brackets appear only where the style changes; structural styles and
// trailing blanks outside a selection print nothing extra.
TEST(Screen, AnnotatedRenderMarksStyles) {
  Screen s(8, 2);
  s.DrawRunes(0, 0, U"ab", Style::kReverse, s.bounds());
  s.DrawRunes(2, 0, U"cd", Style::kOutline, s.bounds());
  s.DrawRunes(4, 0, U"e", Style::kExec, s.bounds());
  s.DrawRunes(0, 1, U"\u00e9", Style::kNormal, s.bounds());
  s.At(7, 1).style = Style::kReverse;  // a selected trailing blank
  EXPECT_EQ(s.RenderAnnotated(),
            "\u00abab\u00bb\u2039cd\u203a_e_\n"  // «ab»‹cd›_e_
            "\u00e9      \u00ab \u00bb\n");
  EXPECT_EQ(s.Render(), "abcde\n\u00e9\n");
}

// A U+0000 cell prints as a blank in every renderer (plain Render and Row
// used to emit a raw NUL byte where RenderAnnotated printed a blank).
TEST(Screen, NulCellRendersAsBlankEverywhere) {
  Screen s(3, 1);
  s.DrawRunes(0, 0, RuneString{'a', 0, 'b'}, Style::kNormal, s.bounds());
  EXPECT_EQ(s.Row(0), "a b");
  EXPECT_EQ(s.Render(), "a b\n");
  EXPECT_EQ(s.RenderAnnotated(), "a b\n");
}

TEST(Screen, FindReadsCells) {
  Screen s(12, 3);
  s.DrawRunes(0, 0, U"abab", Style::kNormal, s.bounds());
  s.DrawRunes(2, 1, U"x\u00e9ab", Style::kReverse, s.bounds());
  EXPECT_EQ(s.Find(s.bounds(), U"ab", 0), (Point{0, 0}));
  EXPECT_EQ(s.Find(s.bounds(), U"ab", 1), (Point{2, 0}));
  EXPECT_EQ(s.Find(s.bounds(), U"ab", 2), (Point{4, 1}));  // columns, not bytes
  EXPECT_EQ(s.Find(s.bounds(), U"ab", 3), (Point{-1, -1}));
  EXPECT_EQ(s.Find(s.bounds(), U"aa", 0), (Point{-1, -1}));
  // Restricted to a rect: a match must lie wholly inside it.
  EXPECT_EQ(s.Find({3, 0, 12, 3}, U"ab", 0), (Point{4, 1}));
  EXPECT_EQ(s.Find({0, 0, 5, 3}, U"ab", 2), (Point{-1, -1}));
}

class FrameTest : public ::testing::Test {
 protected:
  Frame f_;
};

TEST_F(FrameTest, SimpleLayout) {
  Text t("one\ntwo\nthree");
  f_.SetRect({0, 0, 10, 5});
  f_.Fill(t, 0);
  EXPECT_EQ(f_.origin(), 0u);
  EXPECT_EQ(f_.end(), t.size());
  EXPECT_EQ(f_.lines_used(), 3);
}

TEST_F(FrameTest, WrapsLongLines) {
  Text t("abcdefghij");  // width 4 -> 3 rows
  f_.SetRect({0, 0, 4, 5});
  f_.Fill(t, 0);
  EXPECT_EQ(f_.lines_used(), 3);
  EXPECT_EQ(f_.PointToOffset({0, 1}), 4u);
  EXPECT_EQ(f_.PointToOffset({1, 2}), 9u);
}

TEST_F(FrameTest, StopsAtHeight) {
  Text t("a\nb\nc\nd\ne\nf\n");
  f_.SetRect({0, 0, 10, 3});
  f_.Fill(t, 0);
  EXPECT_EQ(f_.lines_used(), 3);
  EXPECT_EQ(f_.end(), 6u);  // "a\nb\nc\n"
  EXPECT_FALSE(f_.Visible(7));
  EXPECT_TRUE(f_.Visible(2));
}

TEST_F(FrameTest, TabsExpandToStops) {
  Text t("\tx");
  f_.SetRect({0, 0, 20, 2});
  f_.Fill(t, 0);
  auto p = f_.OffsetToPoint(1);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->x, kTabStop);
}

TEST_F(FrameTest, OriginOffsetsLayout) {
  Text t("0123\n5678\nabcd");
  f_.SetRect({0, 0, 10, 2});
  f_.Fill(t, 5);
  EXPECT_EQ(f_.origin(), 5u);
  EXPECT_EQ(f_.PointToOffset({0, 0}), 5u);
  EXPECT_EQ(f_.PointToOffset({2, 1}), 12u);
}

TEST_F(FrameTest, PointPastLineEndMapsToNewline) {
  Text t("ab\nlonger line");
  f_.SetRect({0, 0, 20, 3});
  f_.Fill(t, 0);
  EXPECT_EQ(f_.PointToOffset({10, 0}), 2u);  // the newline after "ab"
}

TEST_F(FrameTest, PointBelowTextMapsToEnd) {
  Text t("ab");
  f_.SetRect({0, 0, 10, 4});
  f_.Fill(t, 0);
  EXPECT_EQ(f_.PointToOffset({5, 3}), 2u);
}

TEST_F(FrameTest, AbsoluteCoordinates) {
  Text t("hello");
  f_.SetRect({7, 3, 20, 6});
  f_.Fill(t, 0);
  EXPECT_EQ(f_.PointToOffset({9, 3}), 2u);
  auto p = f_.OffsetToPoint(2);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(*p, (Point{9, 3}));
}

// Everything a reader can see of a frame's layout: the scalars, both maps
// over every offset and row, and its drawing.
void ExpectSameLayout(const Frame& got, const Frame& want, const Text& t) {
  ASSERT_EQ(got.rect(), want.rect());
  EXPECT_EQ(got.origin(), want.origin());
  EXPECT_EQ(got.end(), want.end());
  ASSERT_EQ(got.lines_used(), want.lines_used());
  for (size_t off = 0; off <= t.size() + 1; off++) {
    EXPECT_EQ(got.OffsetToPoint(off), want.OffsetToPoint(off)) << "offset " << off;
    EXPECT_EQ(got.Visible(off), want.Visible(off)) << "offset " << off;
  }
  const Rect& r = got.rect();
  for (int y = r.y0 - 1; y <= r.y1; y++) {
    for (int x = r.x0 - 1; x <= r.x1; x++) {
      EXPECT_EQ(got.PointToOffset({x, y}), want.PointToOffset({x, y})) << x << "," << y;
    }
  }
  Screen a(40, 24);
  Screen b(40, 24);
  got.Draw(&a, {2, 2}, /*current=*/true, Style::kNormal);
  want.Draw(&b, {2, 2}, /*current=*/true, Style::kNormal);
  EXPECT_EQ(a.RenderAnnotated(), b.RenderAnnotated());
}

// Property: for every visible offset, OffsetToPoint∘PointToOffset is
// identity; and after any run of SetRect, Fill and edits, with reads
// scattered between, the frame reads exactly like a fresh frame filled at
// read time.
class FrameRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(FrameRoundTrip, PointOffsetInverse) {
  uint32_t seed = static_cast<uint32_t>(GetParam()) * 40503u;
  auto next = [&seed] {
    seed = seed * 1664525 + 1013904223;
    return seed >> 10;
  };
  auto random_text = [&](int n) {
    std::string content;
    for (int i = 0; i < n; i++) {
      int c = static_cast<int>(next() % 12);
      if (c == 0) {
        content += '\n';
      } else if (c == 1) {
        content += '\t';
      } else {
        content += static_cast<char>('a' + c);
      }
    }
    return content;
  };
  Text t(random_text(300));
  Frame f;
  f.SetRect({3, 2, 3 + 17, 2 + 9});
  size_t origin = next() % 50;
  f.Fill(t, origin);
  for (size_t off = f.origin(); off < f.end(); off++) {
    auto p = f.OffsetToPoint(off);
    ASSERT_TRUE(p.has_value()) << off;
    EXPECT_EQ(f.PointToOffset(*p), off) << "at offset " << off;
  }

  // Edits are followed by a Fill, as the window system does; reads land
  // anywhere in between.
  for (int op = 0; op < 40; op++) {
    switch (next() % 6) {
      case 0: {
        int x0 = static_cast<int>(next() % 10);
        int y0 = static_cast<int>(next() % 6);
        f.SetRect({x0, y0, x0 + static_cast<int>(next() % 25), y0 + static_cast<int>(next() % 12)});
        break;
      }
      case 1:
        origin = next() % (t.size() + 20);
        f.Fill(t, origin);
        break;
      case 2:
        t.InsertNoUndo(next() % (t.size() + 1), RunesFromUtf8(random_text(1 + next() % 30)));
        f.Fill(t, origin);
        break;
      case 3:
        if (t.size() > 0) {
          size_t at = next() % t.size();
          t.DeleteNoUndo(at, std::min<size_t>(t.size() - at, next() % 30));
        }
        f.Fill(t, origin);
        break;
      case 4:
        (void)f.lines_used();
        break;
      default: {
        Frame fresh;
        fresh.SetRect(f.rect());
        fresh.Fill(t, origin);
        ExpectSameLayout(f, fresh, t);
        break;
      }
    }
  }
  Frame fresh;
  fresh.SetRect(f.rect());
  fresh.Fill(t, origin);
  ExpectSameLayout(f, fresh, t);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrameRoundTrip, ::testing::Range(1, 13));

TEST_F(FrameTest, DrawSelectionStyles) {
  Text t("select me");
  f_.SetRect({0, 0, 12, 2});
  f_.Fill(t, 0);
  Screen s(12, 2);
  f_.Draw(&s, {0, 6}, /*current=*/true, Style::kNormal);
  EXPECT_EQ(s.At(0, 0).style, Style::kReverse);
  EXPECT_EQ(s.At(5, 0).style, Style::kReverse);
  EXPECT_EQ(s.At(6, 0).style, Style::kNormal);
  // Non-current: outline.
  f_.Draw(&s, {0, 6}, /*current=*/false, Style::kNormal);
  EXPECT_EQ(s.At(0, 0).style, Style::kOutline);
}

TEST_F(FrameTest, DrawCaretForNullSelection) {
  Text t("abc");
  f_.SetRect({0, 0, 6, 1});
  f_.Fill(t, 0);
  Screen s(6, 1);
  f_.Draw(&s, {1, 1}, /*current=*/true, Style::kNormal);
  EXPECT_EQ(s.At(1, 0).style, Style::kCaret);
}

TEST_F(FrameTest, DrawExecUnderline) {
  Text t("run uses now");
  f_.SetRect({0, 0, 15, 1});
  f_.Fill(t, 0);
  Screen s(15, 1);
  Selection exec{4, 8};
  f_.Draw(&s, {0, 0}, true, Style::kNormal, &exec);
  EXPECT_EQ(s.At(4, 0).style, Style::kExec);
  EXPECT_EQ(s.At(7, 0).style, Style::kExec);
  EXPECT_EQ(s.At(8, 0).style, Style::kNormal);
}

// Layout happens on read, against the state the frame and its text are in
// at that read.
TEST_F(FrameTest, ReadAfterLaterSetRectShowsNewRect) {
  Text t("abcdefghij");
  f_.SetRect({0, 0, 12, 5});
  f_.Fill(t, 0);
  EXPECT_EQ(f_.lines_used(), 1);
  f_.SetRect({0, 0, 4, 5});
  EXPECT_EQ(f_.lines_used(), 3);
  EXPECT_EQ(f_.PointToOffset({0, 1}), 4u);
}

TEST_F(FrameTest, ReadAfterLaterFillShowsNewOrigin) {
  Text t("0123\n5678\nabcd");
  f_.SetRect({0, 0, 10, 3});
  f_.Fill(t, 0);
  EXPECT_EQ(f_.PointToOffset({0, 1}), 5u);
  f_.Fill(t, 5);
  EXPECT_EQ(f_.origin(), 5u);
  EXPECT_EQ(f_.PointToOffset({0, 1}), 10u);
}

TEST_F(FrameTest, ReadAfterEditShowsEdit) {
  Text t("short");
  f_.SetRect({0, 0, 10, 3});
  f_.Fill(t, 0);
  EXPECT_EQ(f_.end(), 5u);
  t.InsertNoUndo(5, U" and longer\nline");
  f_.Fill(t, 0);
  EXPECT_EQ(f_.end(), t.size());
  EXPECT_EQ(f_.lines_used(), 3);
  // An edit between Fill and the first read is seen too.
  Frame g;
  g.SetRect({0, 0, 10, 3});
  g.Fill(t, 0);
  t.DeleteNoUndo(0, 6);
  EXPECT_EQ(g.end(), t.size());
}

TEST_F(FrameTest, LaysOutOncePerReadAfterChange) {
  obs::Counter* layouts = obs::Registry::Global().GetCounter("draw.frame_layouts");
  Text t("one\ntwo\nthree\n");
  uint64_t before = layouts->value();
  for (int i = 0; i < 50; i++) {
    f_.SetRect({0, 0, 10 + i % 3, 5});
    f_.Fill(t, static_cast<size_t>(i % 4));
  }
  EXPECT_EQ(layouts->value(), before);
  EXPECT_EQ(f_.origin(), 1u);
  EXPECT_EQ(layouts->value(), before + 1);
  (void)f_.end();
  (void)f_.PointToOffset({1, 1});
  Screen s(20, 6);
  f_.Draw(&s, {0, 0}, true, Style::kNormal);
  EXPECT_EQ(layouts->value(), before + 1);
}

// A layout is keyed on the rect, the Text, the origin and the text's
// version: marking a frame with the inputs it was laid out from costs
// nothing, and changing any one of them costs one layout.
TEST_F(FrameTest, LaysOutOnlyWhenInputsChange) {
  obs::Counter* layouts = obs::Registry::Global().GetCounter("draw.frame_layouts");
  Text t("one\ntwo\nthree\n");
  f_.SetRect({0, 0, 10, 5});
  f_.Fill(t, 0);
  EXPECT_EQ(f_.origin(), 0u);
  uint64_t before = layouts->value();
  f_.SetRect({0, 0, 10, 5});
  f_.Fill(t, 0);
  EXPECT_EQ(f_.end(), t.size());
  EXPECT_EQ(layouts->value(), before);

  t.Insert(0, RunesFromUtf8("zero\n"));
  f_.Fill(t, 0);
  EXPECT_EQ(f_.end(), t.size());
  EXPECT_EQ(layouts->value(), before + 1);

  f_.SetRect({0, 0, 10, 2});
  EXPECT_EQ(f_.end(), 9u);  // "zero\none\n"
  EXPECT_EQ(layouts->value(), before + 2);

  f_.Fill(t, 5);
  EXPECT_EQ(f_.origin(), 5u);
  EXPECT_EQ(layouts->value(), before + 3);

  // A text moved into another Text keeps its version number there.
  uint64_t version = t.version();
  Text moved = std::move(t);
  ASSERT_EQ(moved.version(), version);
  f_.Fill(moved, 5);
  EXPECT_EQ(f_.origin(), 5u);
  EXPECT_EQ(layouts->value(), before + 4);
  f_.Fill(moved, 5);
  (void)f_.origin();
  EXPECT_EQ(layouts->value(), before + 4);
}

// Versions are unique across texts: a new Text never carries the version
// of one laid out before it, whatever address it reuses.
TEST_F(FrameTest, NewTextNeverMatchesAnOldVersion) {
  obs::Counter* layouts = obs::Registry::Global().GetCounter("draw.frame_layouts");
  f_.SetRect({0, 0, 10, 5});
  auto t = std::make_unique<Text>("old\n");
  f_.Fill(*t, 0);
  EXPECT_EQ(f_.end(), 4u);
  uint64_t old_version = t->version();
  t.reset();
  t = std::make_unique<Text>("new text\n");
  EXPECT_NE(t->version(), old_version);
  uint64_t before = layouts->value();
  f_.Fill(*t, 0);
  EXPECT_EQ(f_.end(), 9u);
  EXPECT_EQ(layouts->value(), before + 1);
}

TEST_F(FrameTest, EmptyRect) {
  Text t("anything");
  f_.SetRect({0, 0, 0, 0});
  f_.Fill(t, 0);
  EXPECT_EQ(f_.lines_used(), 0);
  EXPECT_EQ(f_.end(), f_.origin());
}

}  // namespace
}  // namespace help
