// The display substrate: a character-cell screen standing in for the paper's
// bitmap display. Help "operates only on text", so a cell grid captures
// everything the figures show — tags, tab towers, reverse-video and outlined
// selections, covered windows — while letting tests assert on exact screens.
#ifndef SRC_DRAW_SCREEN_H_
#define SRC_DRAW_SCREEN_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/base/rune.h"

namespace help {

struct Point {
  int x = 0;
  int y = 0;
  bool operator==(const Point&) const = default;
};

struct Rect {
  int x0 = 0;
  int y0 = 0;
  int x1 = 0;  // exclusive
  int y1 = 0;  // exclusive

  int width() const { return x1 - x0; }
  int height() const { return y1 - y0; }
  bool empty() const { return x0 >= x1 || y0 >= y1; }
  bool Contains(Point p) const { return p.x >= x0 && p.x < x1 && p.y >= y0 && p.y < y1; }
  Rect Intersect(const Rect& o) const {
    Rect r{std::max(x0, o.x0), std::max(y0, o.y0), std::min(x1, o.x1), std::min(y1, o.y1)};
    if (r.empty()) {
      return Rect{0, 0, 0, 0};
    }
    return r;
  }
  bool operator==(const Rect&) const = default;
};

// Cell styles. kReverse is the current selection ("reverse video"); kOutline
// is a selection in a non-current subwindow; kCaret marks a null selection.
enum class Style : uint8_t {
  kNormal,
  kReverse,
  kOutline,
  kCaret,
  kTag,      // tag-line background
  kTab,      // the little black squares
  kBorder,
  kExec,     // text being swept with button 2 (underlined in Figure 2)
};

struct Cell {
  Rune ch = ' ';
  Style style = Style::kNormal;
};

class Screen {
 public:
  Screen(int width, int height);

  int width() const { return width_; }
  int height() const { return height_; }
  Rect bounds() const { return {0, 0, width_, height_}; }

  Cell& At(int x, int y) { return cells_[static_cast<size_t>(y * width_ + x)]; }
  const Cell& At(int x, int y) const { return cells_[static_cast<size_t>(y * width_ + x)]; }

  void Clear();
  void Fill(const Rect& r, Rune ch, Style style);
  // Writes runes starting at (x, y), clipped to `clip`; returns runes drawn.
  int DrawRunes(int x, int y, RuneStringView s, Style style, const Rect& clip);

  // Plain-text rendering (one line per row, trailing blanks trimmed).
  std::string Render() const;
  // Rendering with style annotations: reverse-video cells wrapped in «»,
  // outlined in ‹›, executed-sweep underlined with combining marks omitted —
  // used by figure benches to show selections like the paper's screenshots.
  std::string RenderAnnotated() const;

  // The full row as a string (for tests).
  std::string Row(int y) const;

  // Where the `occurrence`th match (0-based, top to bottom, left to right,
  // overlapping) of `needle` starts among the cells of `r`, read row by row;
  // {-1, -1} if there is none. A match lies within one row of `r`.
  Point Find(const Rect& r, RuneStringView needle, int occurrence) const;

 private:
  // Appends row `y` as UTF-8; the one writer behind Render, RenderAnnotated
  // and Row. A U+0000 cell prints as a blank.
  void AppendRow(int y, bool annotated, bool trim, std::string* out) const;

  int width_;
  int height_;
  std::vector<Cell> cells_;
};

}  // namespace help

#endif  // SRC_DRAW_SCREEN_H_
