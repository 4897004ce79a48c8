// Gap buffer of runes: the storage engine under every tag and body. Edits in
// help are strongly localized (typing replaces the selection under the
// mouse), which is exactly the access pattern a gap buffer optimizes.
#ifndef SRC_TEXT_GAPBUFFER_H_
#define SRC_TEXT_GAPBUFFER_H_

#include <cstddef>
#include <memory>

#include "src/base/rune.h"

namespace help {

class GapBuffer {
 public:
  GapBuffer();
  explicit GapBuffer(RuneStringView initial);

  size_t size() const { return cap_ - GapLen(); }
  bool empty() const { return size() == 0; }

  // Rune at position `pos` (pos < size()).
  Rune At(size_t pos) const;

  // Copies [pos, pos+n) into a fresh string, clamped to the buffer end.
  RuneString Read(size_t pos, size_t n) const;
  RuneString ReadAll() const { return Read(0, size()); }

  // Zero-copy view of the whole buffer as its two physical spans (before and
  // after the gap). Valid until the next mutation; the streaming search layer
  // runs entirely over this view.
  RuneSpans Spans() const {
    return RuneSpans(RuneStringView(buf_.get(), gap_start_),
                     RuneStringView(buf_.get() + gap_end_, cap_ - gap_end_));
  }

  // Inserts `s` before position `pos` (pos <= size()).
  void Insert(size_t pos, RuneStringView s);

  // Deletes up to `n` runes starting at `pos`. Returns the runes removed so
  // that callers (the undo log) can invert the operation.
  RuneString Delete(size_t pos, size_t n);

 private:
  size_t GapLen() const { return gap_end_ - gap_start_; }
  // Moves the gap so it begins at logical position `pos`.
  void MoveGap(size_t pos);
  void GrowGap(size_t need);

  // Physical storage: [0,gap_start_) + gap + [gap_end_, cap_). The gap is
  // left uninitialized: a grown gap costs address space, and its pages
  // become resident only as text is written into them.
  std::unique_ptr<Rune[]> buf_;
  size_t cap_;
  size_t gap_start_;  // physical index of the first gap slot
  size_t gap_end_;    // physical index one past the last gap slot
};

}  // namespace help

#endif  // SRC_TEXT_GAPBUFFER_H_
