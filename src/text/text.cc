#include "src/text/text.h"

#include <algorithm>
#include <atomic>

#include "src/obs/trace.h"

namespace help {

uint64_t Text::NextVersion() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

// Every edit funnels through DoInsert/DoDelete, the editor's hottest path:
// instrumentation here is capture-gated instants only (a relaxed load and a
// branch when tracing is off), never unconditional counters.
void Text::DoInsert(size_t pos, RuneStringView s) {
  OBS_INSTANT("text.insert", s.size());
  buf_.Insert(pos, s);
  lines_.OnInsert(buf_, pos, s);
}

RuneString Text::DoDelete(size_t pos, size_t n) {
  OBS_INSTANT("text.delete", n);
  RuneString removed = buf_.Delete(pos, n);
  lines_.OnDelete(pos, removed);
  return removed;
}

void Text::Insert(size_t pos, RuneStringView s) {
  if (s.empty()) {
    return;
  }
  pos = std::min(pos, size());
  DoInsert(pos, s);
  undo_.push_back({true, pos, RuneString(s), change_id_});
  redo_.clear();
  dirty_ = true;
  version_ = NextVersion();
}

void Text::Delete(size_t pos, size_t n) {
  if (n == 0 || pos >= size()) {
    return;
  }
  RuneString removed = DoDelete(pos, n);
  if (removed.empty()) {
    return;
  }
  undo_.push_back({false, pos, std::move(removed), change_id_});
  redo_.clear();
  dirty_ = true;
  version_ = NextVersion();
}

void Text::Replace(size_t q0, size_t q1, RuneStringView s) {
  if (q1 > q0) {
    Delete(q0, q1 - q0);
  }
  Insert(q0, s);
}

void Text::InsertNoUndo(size_t pos, RuneStringView s) {
  if (s.empty()) {
    return;
  }
  DoInsert(std::min(pos, size()), s);
  version_ = NextVersion();
}

void Text::DeleteNoUndo(size_t pos, size_t n) {
  DoDelete(pos, n);
  version_ = NextVersion();
}

void Text::SetAll(std::string_view utf8) {
  OBS_SPAN("text.setall");
  buf_.Delete(0, size());
  buf_.Insert(0, RunesFromUtf8(utf8));
  lines_.Reset(buf_);  // wholesale replacement: rebuild instead of two diffs
  undo_.clear();
  redo_.clear();
  dirty_ = false;
  version_ = NextVersion();
}

Text::Change Text::Invert(const Change& c) const {
  return {!c.insert, c.pos, c.s, c.group};
}

void Text::Apply(const Change& c, size_t* touched) {
  if (c.insert) {
    DoInsert(c.pos, c.s);
  } else {
    DoDelete(c.pos, c.s.size());
  }
  if (touched != nullptr) {
    *touched = std::min(*touched, c.pos);
  }
  version_ = NextVersion();
}

bool Text::Undo(size_t* touched) {
  if (undo_.empty()) {
    return false;
  }
  size_t low = size();
  uint64_t group = undo_.back().group;
  while (!undo_.empty() && undo_.back().group == group) {
    Change c = std::move(undo_.back());
    undo_.pop_back();
    Apply(Invert(c), &low);
    redo_.push_back(std::move(c));
  }
  if (touched != nullptr) {
    *touched = low;
  }
  dirty_ = true;
  return true;
}

bool Text::Redo(size_t* touched) {
  if (redo_.empty()) {
    return false;
  }
  size_t low = size();
  uint64_t group = redo_.back().group;
  while (!redo_.empty() && redo_.back().group == group) {
    Change c = std::move(redo_.back());
    redo_.pop_back();
    Apply(c, &low);
    undo_.push_back(std::move(c));
  }
  if (touched != nullptr) {
    *touched = low;
  }
  dirty_ = true;
  return true;
}

// --- Line bookkeeping, answered by the index ---------------------------------
//
// The invariants these preserve (and the property suite locks in):
//   LineCount("") == 1; a trailing newline does not start a countable line
//   (LineCount("a\n") == 1).
//   LineStart(line) == offset just past the (line-1)th newline, clamped to
//   the start of the final physical line (the position after the last
//   newline) when line runs past the end.

size_t Text::LineCount() const {
  size_t sz = size();
  if (sz == 0) {
    return 1;
  }
  size_t n = 1 + lines_.newlines();
  if (buf_.At(sz - 1) == '\n') {
    n--;  // trailing newline ends the last line rather than starting one
  }
  return n;
}

size_t Text::LineStart(size_t line) const {
  if (line <= 1) {
    return 0;
  }
  // Past the last line: clamp to the start of the final line.
  size_t k = std::min(line - 1, lines_.newlines());
  return lines_.PosAfterNewline(buf_, k);
}

size_t Text::LineEndAt(size_t pos) const {
  return lines_.NextNewline(buf_, std::min(pos, size()));
}

size_t Text::LineAt(size_t pos) const {
  return 1 + lines_.NewlinesBefore(buf_, std::min(pos, size()));
}

Selection Text::LineRange(size_t line) const {
  size_t start = LineStart(line);
  size_t end = LineEndAt(start);
  if (end < size()) {
    end++;  // sam semantics: a line address includes its newline
  }
  return {start, end};
}

Selection Text::ExpandWord(size_t pos) const {
  size_t sz = size();
  pos = std::min(pos, sz);
  size_t q0 = pos;
  size_t q1 = pos;
  while (q0 > 0 && IsWordRune(buf_.At(q0 - 1))) {
    q0--;
  }
  while (q1 < sz && IsWordRune(buf_.At(q1))) {
    q1++;
  }
  return {q0, q1};
}

Selection Text::ExpandFilename(size_t pos) const {
  size_t sz = size();
  pos = std::min(pos, sz);
  size_t q0 = pos;
  size_t q1 = pos;
  while (q0 > 0 && IsFilenameRune(buf_.At(q0 - 1))) {
    q0--;
  }
  while (q1 < sz && IsFilenameRune(buf_.At(q1))) {
    q1++;
  }
  return {q0, q1};
}

}  // namespace help
