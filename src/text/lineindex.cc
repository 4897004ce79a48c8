#include "src/text/lineindex.h"

#include "src/obs/trace.h"

#include <algorithm>
#include <bit>

namespace help {

LineIndex::Counts LineIndex::CountsOf(RuneStringView s) {
  Counts c;
  c.runes = s.size();
  for (Rune r : s) {
    if (r == '\n') {
      c.lines++;
    }
    c.bytes += Utf8RuneLen(r);
  }
  return c;
}

void LineIndex::Reset(const GapBuffer& buf) {
  OBS_COUNT("text.lineindex.resets", 1);
  chunks_.clear();
  size_t n = buf.size();
  for (size_t start = 0; start < n; start += kTargetChunkRunes) {
    size_t span = std::min(kTargetChunkRunes, n - start);
    Counts c;
    c.runes = span;
    for (size_t p = start; p < start + span; p++) {
      Rune r = buf.At(p);
      if (r == '\n') {
        c.lines++;
      }
      c.bytes += Utf8RuneLen(r);
    }
    chunks_.push_back(c);
  }
  RebuildFenwick();
}

void LineIndex::RebuildFenwick() {
  // Structural events are rare (amortized over kTargetChunkRunes edits), so
  // an always-on counter is affordable and /mnt/help/metrics can report how
  // often the index reshapes under load.
  OBS_COUNT("text.lineindex.rebuilds", 1);
  size_t m = chunks_.size();
  fen_.assign(m + 1, Counts{});
  total_ = Counts{};
  for (size_t i = 1; i <= m; i++) {
    fen_[i].Add(chunks_[i - 1]);
    total_.Add(chunks_[i - 1]);
    size_t j = i + (i & (~i + 1));
    if (j <= m) {
      fen_[j].Add(fen_[i]);
    }
  }
}

void LineIndex::FenAdd(size_t i, const Counts& delta) {
  for (size_t j = i + 1; j < fen_.size(); j += j & (~j + 1)) {
    fen_[j].Add(delta);
  }
}

size_t LineIndex::DescendRunes(uint64_t target, Counts* before) const {
  size_t m = chunks_.size();
  size_t idx = 0;
  Counts acc;
  for (size_t step = std::bit_floor(m); step > 0; step >>= 1) {
    size_t next = idx + step;
    if (next <= m && acc.runes + fen_[next].runes <= target) {
      idx = next;
      acc.Add(fen_[next]);
    }
  }
  *before = acc;
  return idx;
}

size_t LineIndex::DescendLines(uint64_t target, Counts* before) const {
  size_t m = chunks_.size();
  size_t idx = 0;
  Counts acc;
  for (size_t step = std::bit_floor(m); step > 0; step >>= 1) {
    size_t next = idx + step;
    if (next <= m && acc.lines + fen_[next].lines <= target) {
      idx = next;
      acc.Add(fen_[next]);
    }
  }
  *before = acc;
  return idx;
}

size_t LineIndex::DescendBytes(uint64_t target, Counts* before) const {
  size_t m = chunks_.size();
  size_t idx = 0;
  Counts acc;
  for (size_t step = std::bit_floor(m); step > 0; step >>= 1) {
    size_t next = idx + step;
    if (next <= m && acc.bytes + fen_[next].bytes <= target) {
      idx = next;
      acc.Add(fen_[next]);
    }
  }
  *before = acc;
  return idx;
}

void LineIndex::SplitChunk(const GapBuffer& buf, size_t i, size_t start) {
  OBS_COUNT("text.lineindex.splits", 1);
  size_t n = static_cast<size_t>(chunks_[i].runes);
  size_t pieces = (n + kTargetChunkRunes - 1) / kTargetChunkRunes;
  std::vector<Counts> out;
  out.reserve(pieces);
  // Spread the runes evenly so no piece sits right at a boundary.
  for (size_t p = 0; p < pieces; p++) {
    size_t lo = n * p / pieces;
    size_t hi = n * (p + 1) / pieces;
    Counts c;
    c.runes = hi - lo;
    for (size_t q = start + lo; q < start + hi; q++) {
      Rune r = buf.At(q);
      if (r == '\n') {
        c.lines++;
      }
      c.bytes += Utf8RuneLen(r);
    }
    out.push_back(c);
  }
  chunks_.erase(chunks_.begin() + static_cast<long>(i));
  chunks_.insert(chunks_.begin() + static_cast<long>(i), out.begin(), out.end());
  RebuildFenwick();
}

void LineIndex::OnInsert(const GapBuffer& buf, size_t pos, RuneStringView s) {
  if (s.empty()) {
    return;
  }
  if (chunks_.empty()) {
    Reset(buf);
    return;
  }
  Counts add = CountsOf(s);
  Counts before;
  size_t i = DescendRunes(pos, &before);
  if (i == chunks_.size()) {
    // Appending at the very end extends the last chunk.
    i--;
    before.Sub(chunks_[i]);
  }
  chunks_[i].Add(add);
  total_.Add(add);
  if (chunks_[i].runes > kMaxChunkRunes) {
    SplitChunk(buf, i, static_cast<size_t>(before.runes));
  } else {
    FenAdd(i, add);
  }
}

void LineIndex::OnDelete(size_t pos, RuneStringView removed) {
  if (removed.empty()) {
    return;
  }
  Counts before;
  size_t first = DescendRunes(pos, &before);
  size_t off = pos - static_cast<size_t>(before.runes);
  size_t consumed = 0;
  size_t i = first;
  size_t touched = 0;
  Counts deltas[2];     // per-chunk subtraction for the surviving-chunk case
  size_t delta_at[2] = {0, 0};
  bool structural = false;
  while (consumed < removed.size()) {
    size_t take = std::min(removed.size() - consumed,
                           static_cast<size_t>(chunks_[i].runes) - off);
    Counts sub = CountsOf(removed.substr(consumed, take));
    chunks_[i].Sub(sub);
    if (chunks_[i].runes == 0) {
      structural = true;
    } else if (touched < 2) {
      deltas[touched] = sub;
      delta_at[touched] = i;
      touched++;
    } else {
      structural = true;  // >2 surviving partial chunks cannot happen, but be safe
    }
    consumed += take;
    off = 0;
    i++;
  }
  total_.Sub(CountsOf(removed));

  // Drop emptied chunks.
  size_t w = first;
  for (size_t r = first; r < i; r++) {
    if (chunks_[r].runes != 0) {
      if (w != r) {
        chunks_[w] = chunks_[r];
      }
      w++;
    }
  }
  if (w != i) {
    chunks_.erase(chunks_.begin() + static_cast<long>(w),
                  chunks_.begin() + static_cast<long>(i));
  }

  // Merge an undersized survivor into a neighbor when the result still fits,
  // so scattered deletes cannot bloat the chunk count with slivers.
  if (first < chunks_.size() && chunks_[first].runes < kMinChunkRunes) {
    if (first + 1 < chunks_.size() &&
        chunks_[first].runes + chunks_[first + 1].runes <= kMaxChunkRunes) {
      chunks_[first].Add(chunks_[first + 1]);
      chunks_.erase(chunks_.begin() + static_cast<long>(first) + 1);
      structural = true;
    } else if (first > 0 &&
               chunks_[first - 1].runes + chunks_[first].runes <= kMaxChunkRunes) {
      chunks_[first - 1].Add(chunks_[first]);
      chunks_.erase(chunks_.begin() + static_cast<long>(first));
      structural = true;
    }
  }

  if (structural) {
    RebuildFenwick();
    return;
  }
  for (size_t d = 0; d < touched; d++) {
    Counts neg;
    neg.Sub(deltas[d]);  // wrap-around negative delta
    FenAdd(delta_at[d], neg);
  }
}

size_t LineIndex::NewlinesBefore(const GapBuffer& buf, size_t pos) const {
  if (pos >= total_.runes) {
    return static_cast<size_t>(total_.lines);
  }
  Counts before;
  DescendRunes(pos, &before);
  size_t n = static_cast<size_t>(before.lines);
  for (size_t p = static_cast<size_t>(before.runes); p < pos; p++) {
    if (buf.At(p) == '\n') {
      n++;
    }
  }
  return n;
}

size_t LineIndex::PosAfterNewline(const GapBuffer& buf, size_t k) const {
  k = std::min<uint64_t>(k, total_.lines);
  if (k == 0) {
    return 0;
  }
  Counts before;
  size_t i = DescendLines(k - 1, &before);
  uint64_t rem = k - before.lines;
  size_t p = static_cast<size_t>(before.runes);
  size_t end = p + static_cast<size_t>(chunks_[i].runes);
  for (; p < end; p++) {
    if (buf.At(p) == '\n' && --rem == 0) {
      return p + 1;
    }
  }
  return static_cast<size_t>(total_.runes);  // unreachable if counts are consistent
}

size_t LineIndex::NextNewline(const GapBuffer& buf, size_t pos) const {
  size_t k = NewlinesBefore(buf, pos) + 1;
  if (k > total_.lines) {
    return static_cast<size_t>(total_.runes);
  }
  return PosAfterNewline(buf, k) - 1;
}

LineIndex::BytePos LineIndex::Seek(const GapBuffer& buf, uint64_t byte_off,
                                   BytePos from) const {
  Counts before;
  const Counts& c = chunks_[DescendBytes(byte_off, &before)];
  if (c.bytes == c.runes) {
    // Every rune in the chunk encodes as one byte: the offset maps directly.
    return {static_cast<size_t>(before.runes + (byte_off - before.bytes)), byte_off};
  }
  BytePos at{static_cast<size_t>(before.runes), before.bytes};
  if (from.byte > at.byte) {
    at = from;
  }
  BytePos end{static_cast<size_t>(before.runes + c.runes), before.bytes + c.bytes};
  RuneSpans runes = buf.Spans().Slice(at.rune, end.rune - at.rune);
  if (end.byte - byte_off < byte_off - at.byte) {
    // Nearer the chunk's end: step back to the first boundary <= byte_off.
    for (size_t i = runes.size(); end.byte > byte_off;) {
      end.byte -= Utf8RuneLen(runes[--i]);
      end.rune--;
    }
    return end;
  }
  for (RuneStringView half : {runes.a, runes.b}) {
    for (Rune r : half) {
      uint64_t len = Utf8RuneLen(r);
      if (at.byte + len > byte_off) {
        return at;
      }
      at.byte += len;
      at.rune++;
    }
  }
  return at;  // unreachable if counts are consistent
}

std::string LineIndex::Utf8Substr(const GapBuffer& buf, uint64_t byte_off,
                                  size_t count) const {
  std::string out;
  if (count == 0 || byte_off >= total_.bytes) {
    return out;
  }
  const uint64_t end = std::min<uint64_t>(byte_off + count, total_.bytes);
  out.reserve(static_cast<size_t>(end - byte_off));
  const BytePos first = Seek(buf, byte_off, BytePos{});
  const BytePos last =
      end < total_.bytes ? Seek(buf, end, first) : BytePos{runes(), total_.bytes};
  size_t rune_begin = first.rune;
  std::string enc;
  if (first.byte < byte_off) {
    // The rune at first straddles the start: keep the tail of its encoding
    // (and only up to `end` — the whole range may land inside one rune).
    EncodeRune(buf.At(first.rune), &enc);
    out.append(enc, static_cast<size_t>(byte_off - first.byte),
               static_cast<size_t>(end - byte_off));
    rune_begin++;
  }
  const size_t rune_end = std::max(last.rune, rune_begin);
  AppendUtf8FromRunes(buf.Spans().Slice(rune_begin, rune_end - rune_begin), &out);
  if (last.byte < end && last.rune >= rune_begin) {
    // The rune at last straddles the end: keep the head of its encoding.
    enc.clear();
    EncodeRune(buf.At(last.rune), &enc);
    out.append(enc, 0, static_cast<size_t>(end - last.byte));
  }
  return out;
}

bool LineIndex::CheckConsistent(const GapBuffer& buf) const {
  Counts sum;
  size_t start = 0;
  for (size_t i = 0; i < chunks_.size(); i++) {
    if (chunks_[i].runes == 0) {
      return false;  // empty chunks must be erased
    }
    Counts c;
    c.runes = chunks_[i].runes;
    for (size_t p = start; p < start + static_cast<size_t>(chunks_[i].runes); p++) {
      Rune r = buf.At(p);
      if (r == '\n') {
        c.lines++;
      }
      c.bytes += Utf8RuneLen(r);
    }
    if (c.lines != chunks_[i].lines || c.bytes != chunks_[i].bytes) {
      return false;
    }
    start += static_cast<size_t>(chunks_[i].runes);
    sum.Add(chunks_[i]);
    Counts prefix;
    size_t idx = DescendRunes(sum.runes == 0 ? 0 : sum.runes - 1, &prefix);
    if (idx != i || prefix.runes + chunks_[i].runes != sum.runes ||
        prefix.lines + chunks_[i].lines != sum.lines ||
        prefix.bytes + chunks_[i].bytes != sum.bytes) {
      return false;
    }
  }
  return start == buf.size() && sum.runes == total_.runes &&
         sum.lines == total_.lines && sum.bytes == total_.bytes;
}

}  // namespace help
