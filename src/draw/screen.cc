#include "src/draw/screen.h"

namespace help {

Screen::Screen(int width, int height)
    : width_(width), height_(height),
      cells_(static_cast<size_t>(width) * static_cast<size_t>(height)) {}

void Screen::Clear() {
  std::fill(cells_.begin(), cells_.end(), Cell{});
}

void Screen::Fill(const Rect& r, Rune ch, Style style) {
  Rect c = r.Intersect(bounds());
  for (int y = c.y0; y < c.y1; y++) {
    for (int x = c.x0; x < c.x1; x++) {
      At(x, y) = {ch, style};
    }
  }
}

int Screen::DrawRunes(int x, int y, RuneStringView s, Style style, const Rect& clip) {
  Rect c = clip.Intersect(bounds());
  if (y < c.y0 || y >= c.y1) {
    return 0;
  }
  int drawn = 0;
  for (Rune r : s) {
    if (x >= c.x1) {
      break;
    }
    if (x >= c.x0) {
      At(x, y) = {r, style};
      drawn++;
    }
    x++;
  }
  return drawn;
}

namespace {

// The annotation brackets: only selection-ish styles get them; structural
// styles render as their glyphs.
const char* Opener(Style s) {
  switch (s) {
    case Style::kReverse:
      return "\xC2\xAB";  // «
    case Style::kOutline:
      return "\xE2\x80\xB9";  // ‹
    case Style::kExec:
      return "_";
    default:
      return "";
  }
}

const char* Closer(Style s) {
  switch (s) {
    case Style::kReverse:
      return "\xC2\xBB";  // »
    case Style::kOutline:
      return "\xE2\x80\xBA";  // ›
    case Style::kExec:
      return "_";
    default:
      return "";
  }
}

}  // namespace

void Screen::AppendRow(int y, bool annotated, bool trim, std::string* out) const {
  size_t start = out->size();
  const Cell* row = &cells_[static_cast<size_t>(y * width_)];
  Style prev = Style::kNormal;
  for (int x = 0; x < width_;) {
    if (annotated && row[x].style != prev) {
      *out += Closer(prev);
      *out += Opener(row[x].style);
      prev = row[x].style;
    }
    // A run of ASCII cells in one style narrows with one resize.
    int run = x;
    while (x < width_ && row[x].ch < 0x80 && (!annotated || row[x].style == prev)) {
      x++;
    }
    if (x > run) {
      size_t at = out->size();
      out->resize(at + static_cast<size_t>(x - run));
      char* p = out->data() + at;
      for (int i = run; i < x; i++) {
        *p++ = row[i].ch == 0 ? ' ' : static_cast<char>(row[i].ch);
      }
    } else {
      EncodeRune(row[x++].ch, out);
    }
  }
  if (annotated) {
    *out += Closer(prev);
  }
  if (trim) {
    size_t end = out->size();
    while (end > start && (*out)[end - 1] == ' ') {
      end--;
    }
    out->resize(end);
  }
}

std::string Screen::Row(int y) const {
  std::string out;
  AppendRow(y, /*annotated=*/false, /*trim=*/false, &out);
  return out;
}

std::string Screen::Render() const {
  std::string out;
  out.reserve(static_cast<size_t>(height_) * static_cast<size_t>(width_ + 1));
  for (int y = 0; y < height_; y++) {
    AppendRow(y, /*annotated=*/false, /*trim=*/true, &out);
    out += '\n';
  }
  return out;
}

std::string Screen::RenderAnnotated() const {
  std::string out;
  out.reserve(static_cast<size_t>(height_) * static_cast<size_t>(width_ + 1));
  for (int y = 0; y < height_; y++) {
    AppendRow(y, /*annotated=*/true, /*trim=*/true, &out);
    out += '\n';
  }
  return out;
}

Point Screen::Find(const Rect& r, RuneStringView needle, int occurrence) const {
  Rect c = r.Intersect(bounds());
  int n = static_cast<int>(needle.size());
  int seen = 0;
  for (int y = c.y0; y < c.y1; y++) {
    for (int x = c.x0; x + n <= c.x1; x++) {
      int k = 0;
      while (k < n && At(x + k, y).ch == needle[static_cast<size_t>(k)]) {
        k++;
      }
      if (k == n && seen++ == occurrence) {
        return {x, y};
      }
    }
  }
  return {-1, -1};
}

}  // namespace help
