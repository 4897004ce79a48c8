// Frame: text layout into a rectangle, after Plan 9's libframe (which help
// linked against — see the -lframe in Figure 12's link line). A frame shows
// a Text from rune offset `origin`, wrapping long lines and expanding tabs,
// and provides the two mappings everything else is built on: screen point →
// rune offset (mouse clicks) and rune offset → screen point (showing an
// addressed line, drawing selections).
//
// Layout happens on read, keyed on its inputs. SetRect and Fill only record
// the rect, the text and the origin; the first read after them (origin,
// end, lines_used, Visible, PointToOffset, OffsetToPoint, Draw) lays the
// frame out, against the text as it is then, unless the rect, the Text,
// the origin and the text's version() all equal those of the last layout.
// So a window that is moved, resized or edited many times between two
// looks at it is laid out once, one that nobody looks at (hidden, or
// written headlessly over 9P) is never laid out, and one re-tiled or
// refilled with what it already shows is not laid out again. Lifetime
// rule: the Text passed to Fill must outlive the frame's next read
// (Subwindow meets it by owning its text).
#ifndef SRC_DRAW_FRAME_H_
#define SRC_DRAW_FRAME_H_

#include <optional>
#include <vector>

#include "src/draw/screen.h"
#include "src/text/text.h"

namespace help {

inline constexpr int kTabStop = 8;

class Frame {
 public:
  void SetRect(const Rect& r) {
    rect_ = r;
    stale_ = true;
  }
  const Rect& rect() const { return rect_; }

  // Shows `t` from rune offset `origin` (clamped to the text's size at
  // layout). Call again after any edit or scroll; SetRect covers geometry.
  void Fill(const Text& t, size_t origin) {
    text_ = &t;
    want_origin_ = origin;
    stale_ = true;
  }

  size_t origin() const {
    EnsureLaidOut();
    return origin_;
  }
  // One past the offset of the last rune displayed (== where scrolling
  // forward would continue).
  size_t end() const {
    EnsureLaidOut();
    return end_;
  }
  // Number of display rows actually used.
  int lines_used() const {
    EnsureLaidOut();
    return static_cast<int>(rows_.size());
  }
  bool Visible(size_t off) const {
    EnsureLaidOut();
    return off >= origin_ && off < end_;
  }

  // Maps a screen point (absolute coordinates) to the rune offset of the
  // character at or nearest that cell. Points below the laid text map to
  // end(); points past a line's end map to that line's newline.
  size_t PointToOffset(Point p) const;

  // Maps a visible rune offset to its screen cell; nullopt if not displayed.
  std::optional<Point> OffsetToPoint(size_t off) const;

  // Draws the laid-out text. `sel` draws in kReverse when `current`, in
  // kOutline otherwise; a null selection draws a kCaret cell. `exec_sel`
  // (if non-null) underlines an in-progress button-2 sweep.
  void Draw(Screen* screen, const Selection& sel, bool current, Style base,
            const Selection* exec_sel = nullptr) const;

 private:
  // A displayed rune; its offset is its row's start_off plus its index in
  // the row.
  struct PlacedRune {
    Rune r;
    int x;  // column relative to the rect (tabs make x jump)
    int width;
  };
  // One display row: runes_[first, last).
  struct Row {
    size_t first = 0;
    size_t last = 0;
    size_t start_off = 0;  // offset of first rune logically on this row
    size_t end_off = 0;    // one past last rune on this row (incl. newline)
    size_t size() const { return last - first; }
  };

  // Lays the frame out if SetRect or Fill has been called since the last
  // layout with inputs other than that layout's.
  void EnsureLaidOut() const {
    if (stale_) {
      stale_ = false;
      uint64_t version = text_ == nullptr ? 0 : text_->version();
      if (rect_ != laid_rect_ || text_ != laid_text_ || want_origin_ != laid_origin_ ||
          version != laid_version_) {
        laid_rect_ = rect_;
        laid_text_ = text_;
        laid_origin_ = want_origin_;
        laid_version_ = version;
        LayOut();
      }
    }
  }
  void LayOut() const;

  Style StyleFor(size_t off, const Selection& sel, bool current,
                 const Selection* exec_sel, Style base) const;

  Rect rect_;
  const Text* text_ = nullptr;
  size_t want_origin_ = 0;

  // The layout, written by the first read after SetRect/Fill, and the
  // inputs it was made from. The vectors keep their capacity from one
  // layout to the next.
  mutable bool stale_ = false;
  mutable Rect laid_rect_;
  mutable const Text* laid_text_ = nullptr;
  mutable size_t laid_origin_ = 0;
  mutable uint64_t laid_version_ = 0;
  mutable size_t origin_ = 0;
  mutable size_t end_ = 0;
  mutable std::vector<Row> rows_;
  mutable std::vector<PlacedRune> runes_;
};

}  // namespace help

#endif  // SRC_DRAW_FRAME_H_
