#include "src/text/gapbuffer.h"

#include <algorithm>
#include <cassert>

namespace help {

namespace {
constexpr size_t kInitialGap = 64;
}  // namespace

GapBuffer::GapBuffer()
    : buf_(std::make_unique_for_overwrite<Rune[]>(kInitialGap)),
      cap_(kInitialGap),
      gap_start_(0),
      gap_end_(kInitialGap) {}

GapBuffer::GapBuffer(RuneStringView initial) : GapBuffer() { Insert(0, initial); }

Rune GapBuffer::At(size_t pos) const {
  assert(pos < size());
  return pos < gap_start_ ? buf_[pos] : buf_[pos + GapLen()];
}

RuneString GapBuffer::Read(size_t pos, size_t n) const {
  if (pos >= size()) {
    return {};
  }
  n = std::min(n, size() - pos);
  RuneString out;
  out.reserve(n);
  for (size_t i = 0; i < n; i++) {
    size_t p = pos + i;
    out.push_back(p < gap_start_ ? buf_[p] : buf_[p + GapLen()]);
  }
  return out;
}

void GapBuffer::MoveGap(size_t pos) {
  assert(pos <= size());
  if (pos == gap_start_) {
    return;
  }
  if (pos < gap_start_) {
    // Shift [pos, gap_start_) right to close up against gap_end_.
    size_t n = gap_start_ - pos;
    Rune* b = buf_.get();
    std::copy_backward(b + pos, b + gap_start_, b + gap_end_);
    gap_start_ = pos;
    gap_end_ -= n;
  } else {
    // Shift [gap_end_, gap_end_ + (pos - gap_start_)) left.
    size_t n = pos - gap_start_;
    Rune* b = buf_.get();
    std::copy(b + gap_end_, b + gap_end_ + n, b + gap_start_);
    gap_start_ = pos;
    gap_end_ += n;
  }
}

void GapBuffer::GrowGap(size_t need) {
  if (GapLen() >= need) {
    return;
  }
  size_t new_gap = std::max(need, cap_ + kInitialGap);
  size_t tail = cap_ - gap_end_;
  size_t cap = gap_start_ + new_gap + tail;
  auto nbuf = std::make_unique_for_overwrite<Rune[]>(cap);
  std::copy(buf_.get(), buf_.get() + gap_start_, nbuf.get());
  std::copy(buf_.get() + gap_end_, buf_.get() + cap_, nbuf.get() + cap - tail);
  buf_ = std::move(nbuf);
  cap_ = cap;
  gap_end_ = cap - tail;
}

void GapBuffer::Insert(size_t pos, RuneStringView s) {
  assert(pos <= size());
  if (s.empty()) {
    return;
  }
  MoveGap(pos);
  GrowGap(s.size());
  std::copy(s.begin(), s.end(), buf_.get() + gap_start_);
  gap_start_ += s.size();
}

RuneString GapBuffer::Delete(size_t pos, size_t n) {
  if (pos >= size()) {
    return {};
  }
  n = std::min(n, size() - pos);
  RuneString removed = Read(pos, n);
  MoveGap(pos);
  gap_end_ += n;  // absorb the deleted runes into the gap
  return removed;
}

}  // namespace help
