// Rune handling: help operates on text as sequences of runes (Unicode code
// points), mirroring Plan 9's rune model. Text offsets throughout the system
// are rune offsets, never byte offsets; UTF-8 appears only at the edges
// (file contents, protocol payloads).
#ifndef SRC_BASE_RUNE_H_
#define SRC_BASE_RUNE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace help {

using Rune = char32_t;
// A string of runes. Offsets into RuneString are the canonical text addresses.
using RuneString = std::u32string;
using RuneStringView = std::u32string_view;

inline constexpr Rune kRuneError = 0xFFFD;  // replacement character
inline constexpr Rune kRuneMax = 0x10FFFF;

// Decodes one rune from the front of `utf8`. Returns the rune and stores the
// number of bytes consumed in `*size` (always >= 1, even on error, so a
// malformed stream still makes progress).
Rune DecodeRune(std::string_view utf8, int* size);

// UTF-8 encoded length of one rune, as PutRune writes it (invalid runes
// encode as the 3-byte replacement character). Branch-free, because chunk
// scans over mixed text would otherwise mispredict on every script change:
// surrogates already count 3, and runes past kRuneMax drop from 4 to 3.
inline size_t Utf8RuneLen(Rune r) {
  return 1u + (r >= 0x80) + (r >= 0x800) + (r >= 0x10000) - (r > kRuneMax);
}

// Sum of Utf8RuneLen over `runes`: the encoded length, without encoding.
inline size_t Utf8Len(RuneStringView runes) {
  size_t n = 0;
  for (Rune r : runes) {
    n += Utf8RuneLen(r);
  }
  return n;
}

// The one UTF-8 writer. Writes the Utf8RuneLen(r) bytes encoding `r` at `p`
// and returns one past the last. Invalid runes encode as U+FFFD.
inline char* PutRune(char* p, Rune r) {
  if (r < 0x80) {
    *p = static_cast<char>(r);
    return p + 1;
  }
  if (r > kRuneMax || (r >= 0xD800 && r <= 0xDFFF)) {
    r = kRuneError;
  }
  if (r < 0x800) {
    p[0] = static_cast<char>(0xC0 | (r >> 6));
    p[1] = static_cast<char>(0x80 | (r & 0x3F));
    return p + 2;
  }
  if (r < 0x10000) {
    p[0] = static_cast<char>(0xE0 | (r >> 12));
    p[1] = static_cast<char>(0x80 | ((r >> 6) & 0x3F));
    p[2] = static_cast<char>(0x80 | (r & 0x3F));
    return p + 3;
  }
  p[0] = static_cast<char>(0xF0 | (r >> 18));
  p[1] = static_cast<char>(0x80 | ((r >> 12) & 0x3F));
  p[2] = static_cast<char>(0x80 | ((r >> 6) & 0x3F));
  p[3] = static_cast<char>(0x80 | (r & 0x3F));
  return p + 4;
}

// Writes the encoding of `runes` at `p`, which has room for Utf8Len(runes)
// bytes, and returns one past the last byte written: PutRune in a loop.
// Grouping ASCII runs (a scan, then a narrowing copy) measured faster on
// all-ASCII text but slower on mixed text, where runs are a word long.
char* PutRunes(char* p, RuneStringView runes);

// Appends the UTF-8 encoding of `r` to `out`.
void EncodeRune(Rune r, std::string* out);

// A zero-copy view of rune text stored as (at most) two contiguous spans.
// This is exactly the shape a gap buffer exposes — everything before the gap
// and everything after it — so searches and encoders can stream over the
// storage without materializing a full-document copy. A plain contiguous
// string is the degenerate case with an empty second span.
struct RuneSpans {
  RuneStringView a;  // runes [0, a.size())
  RuneStringView b;  // runes [a.size(), a.size()+b.size())

  static constexpr size_t npos = static_cast<size_t>(-1);

  constexpr RuneSpans() = default;
  constexpr RuneSpans(RuneStringView first, RuneStringView second = {})
      : a(first), b(second) {}

  constexpr size_t size() const { return a.size() + b.size(); }
  constexpr bool empty() const { return a.empty() && b.empty(); }
  constexpr Rune operator[](size_t i) const {
    return i < a.size() ? a[i] : b[i - a.size()];
  }

  // Subview of [pos, pos+n), clamped to the end.
  constexpr RuneSpans Slice(size_t pos, size_t n) const {
    pos = std::min(pos, size());
    n = std::min(n, size() - pos);
    size_t end = pos + n;
    if (end <= a.size()) {
      return RuneSpans(a.substr(pos, n));
    }
    if (pos >= a.size()) {
      return RuneSpans(b.substr(pos - a.size(), n));
    }
    return RuneSpans(a.substr(pos), b.substr(0, end - a.size()));
  }

  // Offset of the first occurrence of `r` at or after `pos`, or npos. Each
  // half delegates to the contiguous string_view search.
  size_t Find(Rune r, size_t pos = 0) const {
    if (pos < a.size()) {
      size_t i = a.find(r, pos);
      if (i != RuneStringView::npos) {
        return i;
      }
      pos = a.size();
    }
    size_t i = b.find(r, pos - a.size());
    return i == RuneStringView::npos ? npos : a.size() + i;
  }
};

// Offset of the first occurrence of `needle` at or after `start`, or
// RuneSpans::npos. Boyer-Moore-Horspool with a byte-masked skip table, so a
// multi-rune needle advances ~needle.size() runes per probe; needles may
// straddle the span boundary.
size_t FindRunes(const RuneSpans& text, RuneStringView needle, size_t start = 0);

// Whole-string conversions.
RuneString RunesFromUtf8(std::string_view utf8);
std::string Utf8FromRunes(RuneStringView runes);
// Encodes both spans in order (no intermediate rune copy): one length pass,
// one resize, then PutRunes over each span.
std::string Utf8FromRunes(const RuneSpans& spans);

// Number of runes in a UTF-8 string.
size_t RuneLen(std::string_view utf8);

// Character classes used by help's selection heuristics.
// IsWordRune: runes that form "words" for the middle-button click expansion
// (alphanumerics plus the punctuation that appears inside identifiers).
bool IsWordRune(Rune r);
// IsFilenameRune: runes allowed inside the automatic file-name expansion,
// including '/', '.', ':', '-' so that `help.c:27` and paths expand whole.
bool IsFilenameRune(Rune r);
bool IsSpaceRune(Rune r);
bool IsDigitRune(Rune r);

}  // namespace help

#endif  // SRC_BASE_RUNE_H_
