// LineIndex: incremental line and byte bookkeeping over a GapBuffer. The
// buffer stays the storage engine (help's edits are strongly localized); this
// index sits beside it so structural queries — "which line is offset q on?",
// "where does line 27 start?", "give me bytes [off, off+count) of the UTF-8
// encoding" — cost O(log n + C) instead of a full O(n) rune scan, where C is
// the fixed chunk span.
//
// Structure: a chunk array over fixed-span rune blocks. Chunk i covers a
// contiguous run of runes and records three counts: runes, newlines, and
// UTF-8 bytes. Fenwick (binary indexed) trees over the chunk array give
// O(log n) prefix sums and prefix-search descent for all three components.
// Edits update only the touched chunks: an insert adds the counts of the
// inserted runes to one chunk (splitting it when it outgrows the span), a
// delete subtracts per-chunk slices of the removed runes (erasing emptied
// chunks, merging undersized survivors). Counts come from the edit's own
// runes — the buffer is never rescanned except when a chunk splits, which is
// amortized over the kTargetChunkRunes runes that caused the growth.
#ifndef SRC_TEXT_LINEINDEX_H_
#define SRC_TEXT_LINEINDEX_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/base/rune.h"
#include "src/text/gapbuffer.h"

namespace help {

// UTF-8 encoded length of one rune, mirroring EncodeRune (invalid runes
// encode as the 3-byte replacement character). Branch-free, because chunk
// scans over mixed text would otherwise mispredict on every script change:
// surrogates already count 3, and runes past kRuneMax drop from 4 to 3.
inline uint64_t Utf8RuneLen(Rune r) {
  return 1u + (r >= 0x80) + (r >= 0x800) + (r >= 0x10000) - (r > kRuneMax);
}

class LineIndex {
 public:
  // Chunks aim for kTargetChunkRunes and split past kMaxChunkRunes; a chunk
  // that shrinks below kMinChunkRunes merges with a neighbor when the result
  // fits. Queries scan at most one chunk, so kMaxChunkRunes bounds C.
  static constexpr size_t kTargetChunkRunes = 4096;
  static constexpr size_t kMaxChunkRunes = 2 * kTargetChunkRunes;
  static constexpr size_t kMinChunkRunes = kTargetChunkRunes / 8;

  // Full O(n) rebuild from the buffer (document load / SetAll).
  void Reset(const GapBuffer& buf);

  // Edit notifications. Both are called AFTER the buffer mutation, with the
  // clamped position and the exact runes inserted/removed, so the index's
  // counts always derive from what actually changed.
  void OnInsert(const GapBuffer& buf, size_t pos, RuneStringView s);
  void OnDelete(size_t pos, RuneStringView removed);

  // --- O(1) totals -----------------------------------------------------------
  size_t runes() const { return static_cast<size_t>(total_.runes); }
  size_t newlines() const { return static_cast<size_t>(total_.lines); }
  uint64_t utf8_bytes() const { return total_.bytes; }

  // --- O(log n + C) structural queries ---------------------------------------

  // Number of '\n' runes in [0, pos). pos > size clamps to size.
  size_t NewlinesBefore(const GapBuffer& buf, size_t pos) const;
  // Rune offset one past the k-th newline, 1-based; requires 1 <= k and
  // clamps k to newlines() (0 newlines => 0).
  size_t PosAfterNewline(const GapBuffer& buf, size_t k) const;
  // Offset of the first '\n' at or after pos, or size() if there is none.
  size_t NextNewline(const GapBuffer& buf, size_t pos) const;
  // Bytes [byte_off, byte_off+count) of the document's UTF-8 encoding,
  // without materializing the rest (the file-server read path). Byte offsets
  // may land mid-rune; the slice is byte-exact: the straddled runes' partial
  // encodings frame one transcode of the whole runes between them.
  std::string Utf8Substr(const GapBuffer& buf, uint64_t byte_off, size_t count) const;

  // Test hook: recount every chunk from the buffer and verify chunk counts,
  // Fenwick sums, and totals. O(n); used by the differential property suite.
  bool CheckConsistent(const GapBuffer& buf) const;

 private:
  // Per-chunk counts. Deltas are applied with unsigned wrap-around, which is
  // well-defined and cancels exactly because every subtraction undoes counts
  // that were previously added.
  struct Counts {
    uint64_t runes = 0;
    uint64_t lines = 0;
    uint64_t bytes = 0;
    void Add(const Counts& o) {
      runes += o.runes;
      lines += o.lines;
      bytes += o.bytes;
    }
    void Sub(const Counts& o) {
      runes -= o.runes;
      lines -= o.lines;
      bytes -= o.bytes;
    }
  };

  static Counts CountsOf(RuneStringView s);

  // A rune boundary: rune offset plus the byte offset its encoding starts at.
  struct BytePos {
    size_t rune = 0;
    uint64_t byte = 0;
  };
  // The rune whose encoding covers byte_off (< utf8_bytes()). O(log n) to
  // the chunk, then O(1) in an all-ASCII chunk (bytes == runes) or a scan of
  // the chunk's spans otherwise. The scan starts at `from`, a boundary at or
  // before byte_off, when that lies inside the chunk, and steps back from
  // the chunk's end instead when that is nearer.
  BytePos Seek(const GapBuffer& buf, uint64_t byte_off, BytePos from) const;

  void RebuildFenwick();
  // Point-update: add (possibly wrapped-negative) delta to chunk i.
  void FenAdd(size_t i, const Counts& delta);
  // Fenwick descent: largest chunk index idx with prefix-sum(component) <=
  // target; *before receives the full prefix counts of chunks [0, idx).
  size_t DescendRunes(uint64_t target, Counts* before) const;
  size_t DescendLines(uint64_t target, Counts* before) const;
  size_t DescendBytes(uint64_t target, Counts* before) const;

  // Replaces an oversized chunk with ~kTargetChunkRunes pieces, recounting
  // from the buffer (the only rescan in the structure). start is the chunk's
  // first rune offset.
  void SplitChunk(const GapBuffer& buf, size_t i, size_t start);

  std::vector<Counts> chunks_;
  std::vector<Counts> fen_;  // 1-based Fenwick over chunks_
  Counts total_;
};

}  // namespace help

#endif  // SRC_TEXT_LINEINDEX_H_
