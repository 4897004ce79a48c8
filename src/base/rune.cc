#include "src/base/rune.h"

#include <algorithm>

namespace help {

Rune DecodeRune(std::string_view utf8, int* size) {
  *size = 1;
  if (utf8.empty()) {
    return kRuneError;
  }
  const auto* p = reinterpret_cast<const unsigned char*>(utf8.data());
  unsigned char c0 = p[0];
  if (c0 < 0x80) {
    return c0;
  }
  int need;
  Rune r;
  if ((c0 & 0xE0) == 0xC0) {
    need = 1;
    r = c0 & 0x1F;
  } else if ((c0 & 0xF0) == 0xE0) {
    need = 2;
    r = c0 & 0x0F;
  } else if ((c0 & 0xF8) == 0xF0) {
    need = 3;
    r = c0 & 0x07;
  } else {
    return kRuneError;  // stray continuation or invalid lead byte
  }
  if (utf8.size() < static_cast<size_t>(need) + 1) {
    return kRuneError;
  }
  for (int i = 1; i <= need; i++) {
    if ((p[i] & 0xC0) != 0x80) {
      return kRuneError;
    }
    r = (r << 6) | (p[i] & 0x3F);
  }
  // Reject overlong encodings and out-of-range values.
  static constexpr Rune kMinForLen[4] = {0, 0x80, 0x800, 0x10000};
  if (r < kMinForLen[need] || r > kRuneMax || (r >= 0xD800 && r <= 0xDFFF)) {
    return kRuneError;
  }
  *size = need + 1;
  return r;
}

char* PutRunes(char* p, RuneStringView runes) {
  for (Rune r : runes) {
    p = PutRune(p, r);
  }
  return p;
}

void EncodeRune(Rune r, std::string* out) {
  char buf[4];
  out->append(buf, static_cast<size_t>(PutRune(buf, r) - buf));
}

RuneString RunesFromUtf8(std::string_view utf8) {
  RuneString out;
  out.reserve(utf8.size());
  while (!utf8.empty()) {
    int size;
    out.push_back(DecodeRune(utf8, &size));
    utf8.remove_prefix(size);
  }
  return out;
}

std::string Utf8FromRunes(RuneStringView runes) { return Utf8FromRunes(RuneSpans(runes)); }

std::string Utf8FromRunes(const RuneSpans& spans) {
  std::string out;
  out.resize(Utf8Len(spans.a) + Utf8Len(spans.b));
  PutRunes(PutRunes(out.data(), spans.a), spans.b);
  return out;
}

size_t FindRunes(const RuneSpans& text, RuneStringView needle, size_t start) {
  const size_t n = text.size();
  const size_t m = needle.size();
  if (m == 0) {
    return start <= n ? start : RuneSpans::npos;
  }
  if (m > n || start > n - m) {
    return RuneSpans::npos;
  }
  if (m == 1) {
    return text.Find(needle[0], start);
  }
  // Skip table keyed on the low byte of the rune. Assigning in ascending
  // needle order leaves each slot with the smallest (safest) shift among the
  // runes sharing that byte.
  unsigned char skip[256];
  const unsigned char max_skip =
      static_cast<unsigned char>(std::min<size_t>(m, 255));
  std::fill(skip, skip + 256, max_skip);
  for (size_t i = 0; i + 1 < m; i++) {
    skip[needle[i] & 0xFF] =
        static_cast<unsigned char>(std::min<size_t>(m - 1 - i, 255));
  }
  const Rune last = needle[m - 1];
  size_t i = start;
  while (i + m <= n) {
    Rune c = text[i + m - 1];
    if (c == last) {
      size_t j = 0;
      while (j + 1 < m && text[i + j] == needle[j]) {
        j++;
      }
      if (j + 1 == m) {
        return i;
      }
    }
    i += skip[c & 0xFF];
  }
  return RuneSpans::npos;
}

size_t RuneLen(std::string_view utf8) {
  size_t n = 0;
  while (!utf8.empty()) {
    int size;
    DecodeRune(utf8, &size);
    utf8.remove_prefix(size);
    n++;
  }
  return n;
}

bool IsWordRune(Rune r) {
  if ((r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')) {
    return true;
  }
  switch (r) {
    case '_':
    case '.':
    case '-':
    case '+':
    case '/':
    case '*':
    case '!':  // tag commands such as Close! must select whole
      return true;
    default:
      return r >= 0x80;  // any non-ASCII rune counts as word-forming
  }
}

bool IsFilenameRune(Rune r) {
  if (IsWordRune(r)) {
    return true;
  }
  switch (r) {
    case ':':  // file:line addressing
    case '#':
    case '$':
    case '%':
    case ',':
    case '~':
      return true;
    default:
      return false;
  }
}

bool IsSpaceRune(Rune r) { return r == ' ' || r == '\t' || r == '\n' || r == '\r'; }

bool IsDigitRune(Rune r) { return r >= '0' && r <= '9'; }

}  // namespace help
