// Text: a document with line bookkeeping and an undo/redo log. Every tag and
// every body is a Text; bodies may be shared between windows (the paper's
// "multiple windows per file" future-work item, implemented here), so
// selections live with the view (draw::Frame / wm::Subwindow), not here.
#ifndef SRC_TEXT_TEXT_H_
#define SRC_TEXT_TEXT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/rune.h"
#include "src/text/gapbuffer.h"
#include "src/text/lineindex.h"

namespace help {

// A selection is a half-open rune range [q0, q1). q0 == q1 is a null
// selection (a caret), which is what triggers help's automatic expansion.
struct Selection {
  size_t q0 = 0;
  size_t q1 = 0;
  bool null() const { return q0 == q1; }
  size_t len() const { return q1 - q0; }
  bool operator==(const Selection&) const = default;
};

class Text {
 public:
  Text() = default;
  explicit Text(std::string_view utf8) { InsertNoUndo(0, RunesFromUtf8(utf8)); }

  size_t size() const { return buf_.size(); }
  Rune At(size_t pos) const { return buf_.At(pos); }
  RuneString Read(size_t pos, size_t n) const { return buf_.Read(pos, n); }
  RuneString ReadAll() const { return buf_.ReadAll(); }
  // Zero-copy two-span view of the document (valid until the next mutation);
  // the streaming search layer (src/text/search.h) runs over this.
  RuneSpans Spans() const { return buf_.Spans(); }
  // Whole-document UTF-8 via the line index's byte-exact range reader — one
  // output allocation, no intermediate full rune copy.
  std::string Utf8() const {
    return lines_.Utf8Substr(buf_, 0, static_cast<size_t>(lines_.utf8_bytes()));
  }
  std::string Utf8Range(size_t q0, size_t q1) const {
    return q1 > q0 ? Utf8FromRunes(buf_.Spans().Slice(q0, q1 - q0)) : std::string();
  }

  // --- Byte-offset views (the file-server read path) ------------------------

  // Total UTF-8 encoded size, O(1) from the line index (a 9P stat never
  // encodes the document).
  uint64_t Utf8Bytes() const { return lines_.utf8_bytes(); }
  // Bytes [byte_off, byte_off+count) of the UTF-8 encoding, O(log n + count);
  // byte-exact even when the window splits a multi-byte rune.
  std::string Utf8Substr(uint64_t byte_off, size_t count) const {
    return lines_.Utf8Substr(buf_, byte_off, count);
  }

  // --- Editing (undoable) ---------------------------------------------------

  // Starts a new undo group; all edits until the next BeginChange undo as one.
  void BeginChange() { change_id_++; }
  void Insert(size_t pos, RuneStringView s);
  void Delete(size_t pos, size_t n);
  // Replace is the primitive behind "typed text replaces the selection".
  void Replace(size_t q0, size_t q1, RuneStringView s);

  // Non-undoable edits, for loading files and program-driven appends where
  // undo history would be meaningless.
  void InsertNoUndo(size_t pos, RuneStringView s);
  void DeleteNoUndo(size_t pos, size_t n);
  void SetAll(std::string_view utf8);

  // Undoes / redoes one change group. Returns false if there is nothing to
  // undo/redo. On success, *touched is set to the lowest rune offset the
  // operation modified (views use it to re-layout).
  bool Undo(size_t* touched);
  bool Redo(size_t* touched);
  bool CanUndo() const { return !undo_.empty(); }
  bool CanRedo() const { return !redo_.empty(); }

  // --- Line bookkeeping ------------------------------------------------------
  //
  // All of these answer from the incremental LineIndex in O(log n + C) where
  // C is the fixed chunk span — never a document scan.

  // Number of lines; an empty text has 1 (empty) line, and a trailing
  // newline does not start a new countable line.
  size_t LineCount() const;
  // Rune offset of the start of 1-based line `line`, clamped to the last line.
  size_t LineStart(size_t line) const;
  // Offset one past the last rune of the line containing `pos` (excludes the
  // newline itself).
  size_t LineEndAt(size_t pos) const;
  // 1-based line number containing rune offset `pos`.
  size_t LineAt(size_t pos) const;
  // Full [start,end) range of 1-based line `line` (excluding newline).
  Selection LineRange(size_t line) const;

  // --- Word / file-name expansion (rules of automation & defaults) ----------

  // Expands a null selection at `pos` to the surrounding word (middle-button
  // click semantics). Non-null input selections are returned untouched.
  Selection ExpandWord(size_t pos) const;
  // Expands to the surrounding file name (includes '/', ':' so that
  // "help.c:27" and absolute paths come out whole).
  Selection ExpandFilename(size_t pos) const;

  // --- Dirty / version -------------------------------------------------------

  bool dirty() const { return dirty_; }
  void set_dirty(bool d) { dirty_ = d; }
  // A stamp that changes on every mutation and that no other Text in the
  // process has had (a Text moved into another keeps it): a frame keys its
  // layout on it, so a text at a reused address never matches a stale one.
  uint64_t version() const { return version_; }

  // Test hook: verifies the line index against a full recount of the buffer.
  // O(n); the differential property suite calls it periodically.
  bool CheckLineIndex() const { return lines_.CheckConsistent(buf_); }

 private:
  struct Change {
    bool insert;  // true: `s` was inserted at pos; false: `s` was deleted from pos
    size_t pos;
    RuneString s;
    uint64_t group;
  };

  static uint64_t NextVersion();

  void Apply(const Change& c, size_t* touched);
  Change Invert(const Change& c) const;

  // Every mutation funnels through these two so the line index can never
  // drift from the buffer.
  void DoInsert(size_t pos, RuneStringView s);
  RuneString DoDelete(size_t pos, size_t n);

  GapBuffer buf_;
  LineIndex lines_;
  std::vector<Change> undo_;
  std::vector<Change> redo_;
  uint64_t change_id_ = 0;
  uint64_t version_ = NextVersion();
  bool dirty_ = false;
};

}  // namespace help

#endif  // SRC_TEXT_TEXT_H_
