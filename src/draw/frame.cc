#include "src/draw/frame.h"

#include "src/obs/trace.h"

namespace help {

void Frame::LayOut() const {
  OBS_COUNT("draw.frame_layouts", 1);
  rows_.clear();
  runes_.clear();
  size_t n = text_ == nullptr ? 0 : text_->size();
  origin_ = std::min(want_origin_, n);
  end_ = origin_;
  if (rect_.empty() || text_ == nullptr) {
    return;
  }
  size_t maxrows = static_cast<size_t>(rect_.height());
  int width = rect_.width();
  // Every rune takes at least one cell except the newline ending a row, so
  // maxrows rows use at most maxrows * (width + 1) runes. This keeps layout
  // cost proportional to the window, not the document; the runes are read
  // in place, without a copy.
  size_t window = maxrows * (static_cast<size_t>(width) + 1) + 1;
  RuneSpans visible = text_->Spans().Slice(origin_, window);
  size_t pos = origin_;
  Row row{0, 0, pos, 0};
  int x = 0;
  auto flush = [&](size_t row_end) {
    row.last = runes_.size();
    row.end_off = row_end;
    rows_.push_back(row);
    row = Row{runes_.size(), runes_.size(), row_end, 0};
    x = 0;
  };
  while (pos < n && rows_.size() < maxrows) {
    Rune r = visible[pos - origin_];
    if (r == '\n') {
      flush(pos + 1);
      pos++;
      continue;
    }
    int w = r == '\t' ? kTabStop - (x % kTabStop) : 1;
    if (x + w > width && x > 0) {
      // Wrap before this rune.
      flush(pos);
      continue;
    }
    runes_.push_back({r, x, w});
    x += w;
    pos++;
    if (x >= width) {
      flush(pos);
    }
  }
  if (rows_.size() < maxrows) {
    flush(pos);  // final (possibly empty) row — gives the caret a home
  }
  end_ = rows_.back().end_off;
}

size_t Frame::PointToOffset(Point p) const {
  EnsureLaidOut();
  if (rows_.empty()) {
    return origin_;
  }
  int rel = std::clamp(p.y - rect_.y0, 0, static_cast<int>(rows_.size()) - 1);
  const Row& row = rows_[static_cast<size_t>(rel)];
  int col = p.x - rect_.x0;
  for (size_t i = row.first; i < row.last; i++) {
    if (col < runes_[i].x + runes_[i].width) {
      return row.start_off + (i - row.first);
    }
  }
  // Past the end of the row: the newline (or the row's end).
  if (row.end_off > row.start_off + row.size()) {
    return row.end_off - 1;  // the newline itself
  }
  return row.end_off;
}

std::optional<Point> Frame::OffsetToPoint(size_t off) const {
  EnsureLaidOut();
  for (size_t yi = 0; yi < rows_.size(); yi++) {
    const Row& row = rows_[yi];
    if (off < row.start_off || off > row.end_off) {
      continue;
    }
    int y = rect_.y0 + static_cast<int>(yi);
    if (off - row.start_off < row.size()) {
      return Point{rect_.x0 + runes_[row.first + (off - row.start_off)].x, y};
    }
    // Offset is the newline / end of this row.
    bool newline = row.end_off > row.start_off + row.size();
    if ((newline && off == row.end_off - 1) || (off == row.end_off && yi + 1 == rows_.size())) {
      const PlacedRune* last = row.size() == 0 ? nullptr : &runes_[row.last - 1];
      return Point{rect_.x0 + (last == nullptr ? 0 : last->x + last->width), y};
    }
  }
  return std::nullopt;
}

Style Frame::StyleFor(size_t off, const Selection& sel, bool current,
                      const Selection* exec_sel, Style base) const {
  if (exec_sel != nullptr && off >= exec_sel->q0 && off < exec_sel->q1) {
    return Style::kExec;
  }
  if (!sel.null() && off >= sel.q0 && off < sel.q1) {
    return current ? Style::kReverse : Style::kOutline;
  }
  return base;
}

void Frame::Draw(Screen* screen, const Selection& sel, bool current, Style base,
                 const Selection* exec_sel) const {
  EnsureLaidOut();
  Rect clip = rect_.Intersect(screen->bounds());
  screen->Fill(clip, ' ', base);
  for (size_t yi = 0; yi < rows_.size(); yi++) {
    int y = rect_.y0 + static_cast<int>(yi);
    if (y < clip.y0 || y >= clip.y1) {
      continue;
    }
    const Row& row = rows_[yi];
    for (size_t i = row.first; i < row.last; i++) {
      const PlacedRune& pr = runes_[i];
      int x = rect_.x0 + pr.x;
      Style st = StyleFor(row.start_off + (i - row.first), sel, current, exec_sel, base);
      if (pr.r == '\t') {
        for (int k = 0; k < pr.width && x + k < clip.x1; k++) {
          if (x + k >= clip.x0) {
            screen->At(x + k, y) = {' ', st};
          }
        }
      } else if (x >= clip.x0 && x < clip.x1) {
        screen->At(x, y) = {pr.r, st};
      }
    }
  }
  // Null selection caret.
  if (sel.null() && current) {
    auto p = OffsetToPoint(sel.q0);
    if (p.has_value() && clip.Contains(*p)) {
      Cell& c = screen->At(p->x, p->y);
      c.style = Style::kCaret;
    }
  }
}

}  // namespace help
