// The window system: a screen tiled with columns of windows, each window a
// tag line above a body of editable text. Geometry follows the paper:
//
//  - a tower of small black squares at each column's left edge, one per
//    window (visible or invisible), clickable to reveal a window;
//  - a similar row across the top for expanding columns;
//  - automatic placement ("the rule of automation"): the Discussion
//    section's three-step heuristic, implemented verbatim in Column::Place;
//  - dragging by the tag with button 3, with local rearrangement;
//  - "help attempts to make at least the tag of a window fully visible; if
//    this is impossible, it covers the window completely."
//
// Bodies may be shared between windows (multiple windows per file). The
// *current* subwindow — whose selection shows in reverse video — is owned by
// the core and passed in at draw time.
#ifndef SRC_WM_WM_H_
#define SRC_WM_WM_H_

#include <memory>
#include <string>
#include <vector>

#include "src/draw/frame.h"
#include "src/draw/screen.h"
#include "src/text/text.h"

namespace help {

class Window;

// One editable region (a tag or a body): text + layout + its own selection.
// The subwindow owns its text, which is what lets its frame lay out on read
// (see frame.h).
struct Subwindow {
  std::shared_ptr<Text> text;
  Frame frame;
  Selection sel;
  size_t origin = 0;  // first displayed rune
  bool is_tag = false;
  Window* window = nullptr;

  // Points the frame at the text from `origin`; the next read lays it out.
  void Relayout() { frame.Fill(*text, origin); }
  // Scrolls so that `off` is displayed (origin moves to the start of a line
  // a third of the window above `off` when out of view).
  void ShowOffset(size_t off);
};

class Window {
 public:
  Window(int id, std::shared_ptr<Text> tag, std::shared_ptr<Text> body);

  int id() const { return id_; }
  Subwindow& tag() { return tag_; }
  Subwindow& body() { return body_; }
  const Subwindow& tag() const { return tag_; }
  const Subwindow& body() const { return body_; }

  bool hidden() const { return rect_.empty(); }
  const Rect& rect() const { return rect_; }
  // Assigns screen space (tag = first row, scrollbar = leftmost cell below
  // it, body = the rest); the frames lay out when next read.
  void SetRect(const Rect& r);
  void Hide();

  // The one-cell-wide scroll bar at the body's left edge. Empty when hidden
  // or when the window has no body rows.
  Rect ScrollbarRect() const;
  // Scrolls the body by `lines` (negative = backward/up), clamped.
  void ScrollLines(int lines);
  // Scrolls so the body starts at `fraction` (0..1) of the text (the
  // absolute jump bound to button 2 in the scroll bar).
  void ScrollTo(double fraction);

  // Where this window would like its top edge (persists while hidden).
  int desired_y0() const { return desired_y0_; }
  void set_desired_y0(int y) { desired_y0_ = y; }
  int desired_height() const { return desired_height_; }

  // First token of the tag: the file name this window is "on".
  std::string TagFilename() const;
  // The directory context commands executed in this window run in.
  std::string ContextDir() const;

  // Row just below the lowest visible text (tag row + used body rows).
  int UsedBottom() const;

  // Hands both frames their rects and texts; the layout itself waits for
  // the next read.
  void Relayout();
  void Draw(Screen* screen, const Subwindow* current,
            const Selection* exec_sel = nullptr,
            const Subwindow* exec_sub = nullptr) const;

 private:
  int id_;
  Subwindow tag_;
  Subwindow body_;
  Rect rect_;  // empty when hidden
  int desired_y0_ = 0;
  int desired_height_ = 0;
};

class Column {
 public:
  // `r` includes the 2-cell tab gutter on the left.
  void SetRect(const Rect& r) { rect_ = r; }
  const Rect& rect() const { return rect_; }
  // Where window content lives (to the right of the tab tower).
  Rect ContentRect() const { return {rect_.x0 + 2, rect_.y0, rect_.x1, rect_.y1}; }

  const std::vector<Window*>& windows() const { return wins_; }
  bool Contains(const Window* w) const;

  // The paper's placement heuristic. Adds `w` to this column:
  //  1. tag immediately below the lowest visible text in the column;
  //  2. else cover the bottom half of the lowest window;
  //  3. else cover the bottom 25% of the column (hiding what it covers).
  void Place(Window* w);

  // Adds at an explicit position (drag-and-drop); performs the local
  // rearrangement drop requires.
  void AddAt(Window* w, int y);

  // Tab click: reveal `w` "from the tag to the bottom of the column".
  void MakeVisible(Window* w);

  void Remove(Window* w);

  // Re-tiles: clamps rects into the column, keeps y-order, enforces
  // tag-visible-or-hidden, and lets the last window keep the bottom.
  void Normalize();

  void DrawTabs(Screen* screen) const;

  // Tab index at screen point, -1 if none.
  int TabIndexAt(Point p) const;

 private:
  int LowestVisibleText() const;
  Window* LowestVisibleWindow() const;
  void SortByDesiredY();

  Rect rect_;
  std::vector<Window*> wins_;  // top-to-bottom order (tab order)
};

// The whole screen: a row of column-expansion tabs on top, then columns.
class Page {
 public:
  Page(int width = 100, int height = 40, int ncols = 2);

  Screen& screen() { return screen_; }
  int ncols() const { return static_cast<int>(cols_.size()); }
  Column& col(int i) { return cols_[static_cast<size_t>(i)]; }

  // Creates a window; `col_index` -1 means "the column of `near`", falling
  // back to column 0. The window id is supplied by the caller (help's file
  // server numbers windows).
  Window* Create(int id, std::shared_ptr<Text> tag, std::shared_ptr<Text> body,
                 int col_index, const Window* near = nullptr);

  Window* FindById(int id);
  const std::vector<std::unique_ptr<Window>>& windows() const { return windows_; }
  void Remove(Window* w);

  int ColumnOf(const Window* w) const;  // -1 if not in any column

  struct Hit {
    Window* window = nullptr;
    Subwindow* sub = nullptr;    // tag or body
    int column = -1;             // column under the point
    int tab_index = -1;          // window-tab index in that column
    bool on_column_tab = false;  // top-row expansion tab
    bool on_scrollbar = false;   // the body's left-edge scroll bar
  };
  Hit HitTest(Point p);

  // Drag a window (grabbed by its tag) to `dest`.
  void Drag(Window* w, Point dest);

  // Column-expansion tab: widen column `i` to 3/4 of the screen (click
  // again to restore the even split).
  void ToggleExpand(int i);

  void Draw(const Subwindow* current, const Selection* exec_sel = nullptr,
            const Subwindow* exec_sub = nullptr);

 private:
  void LayoutColumns();

  Screen screen_;
  std::vector<Column> cols_;
  std::vector<std::unique_ptr<Window>> windows_;
  int expanded_ = -1;
};

}  // namespace help

#endif  // SRC_WM_WM_H_
