// Differential property tests for the text engine: Text (gap buffer + the
// incremental line index + undo log) is driven through thousands of
// seeded-random edits against a naive reference model — a flat vector of
// runes with scan-based line queries, the behavior the pre-index engine had.
// After EVERY op the contents, line counts, and line offsets must agree
// exactly; the line index is additionally recounted from scratch at
// intervals. Runs under ASan/UBSan and TSan (ctest label `property`).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/text/text.h"

namespace help {
namespace {

// --- Reference model: scan-based line bookkeeping ----------------------------
// These reimplement the pre-index O(n) semantics verbatim; the index must
// reproduce them bit-for-bit, including the trailing-newline invariant and
// the past-EOF clamping.

size_t RefLineCount(const std::u32string& s) {
  size_t n = 1;
  for (size_t i = 0; i < s.size(); i++) {
    if (s[i] == '\n' && i + 1 < s.size()) {
      n++;
    }
  }
  return n;
}

size_t RefLineStart(const std::u32string& s, size_t line) {
  if (line <= 1) {
    return 0;
  }
  size_t cur = 1;
  for (size_t i = 0; i < s.size(); i++) {
    if (s[i] == '\n') {
      cur++;
      if (cur == line) {
        return i + 1;
      }
    }
  }
  size_t i = s.size();
  while (i > 0 && s[i - 1] != '\n') {
    i--;
  }
  return i;
}

size_t RefLineEndAt(const std::u32string& s, size_t pos) {
  pos = std::min(pos, s.size());
  while (pos < s.size() && s[pos] != '\n') {
    pos++;
  }
  return pos;
}

size_t RefLineAt(const std::u32string& s, size_t pos) {
  pos = std::min(pos, s.size());
  size_t line = 1;
  for (size_t i = 0; i < pos; i++) {
    if (s[i] == '\n') {
      line++;
    }
  }
  return line;
}

// --- Random edit scripts ------------------------------------------------------

struct Lcg {
  uint32_t state;
  explicit Lcg(uint32_t seed) : state(seed * 2654435761u + 1) {}
  uint32_t Next() {
    state = state * 1664525 + 1013904223;
    return state >> 8;
  }
  uint32_t Below(uint32_t n) { return n == 0 ? 0 : Next() % n; }
};

// Random rune strings: letters, newlines (so line structure churns), and
// multi-byte runes (so the byte index is exercised).
RuneString RandomRunes(Lcg& rng, size_t max_len) {
  size_t len = rng.Below(static_cast<uint32_t>(max_len + 1));
  RuneString s;
  s.reserve(len);
  for (size_t i = 0; i < len; i++) {
    uint32_t pick = rng.Below(10);
    if (pick < 2) {
      s.push_back('\n');
    } else if (pick < 3) {
      static constexpr Rune kWide[] = {0xE9, 0x4F60, 0x1F600};  // é 你 😀
      s.push_back(kWide[rng.Below(3)]);
    } else {
      s.push_back('a' + rng.Below(26));
    }
  }
  return s;
}

// The driver mirrors help's actual usage: BeginChange before every edit
// group (Type/Cut/Paste all do), so undo grouping follows gesture
// boundaries. The model's undo is snapshot-based: state at group start.
class Differential : public ::testing::TestWithParam<int> {};

TEST_P(Differential, TextAgreesWithScanModelOver10kOps) {
  Lcg rng(static_cast<uint32_t>(GetParam()));
  Text t;
  std::u32string model;
  std::vector<std::u32string> undo_stack;
  std::vector<std::u32string> redo_stack;
  bool group_open = false;

  auto note_edit = [&] {
    if (!group_open) {
      undo_stack.push_back(model);
      group_open = true;
    }
    redo_stack.clear();
  };

  constexpr int kOps = 10000;
  constexpr size_t kMaxDoc = 4096;
  for (int step = 0; step < kOps; step++) {
    uint32_t op = rng.Below(12);
    if (model.size() > kMaxDoc) {
      op = 5 + rng.Below(3);  // force deletes when the doc is big
    }
    if (op < 5) {
      // Insert.
      t.BeginChange();
      group_open = false;
      size_t pos = rng.Below(static_cast<uint32_t>(model.size() + 1));
      RuneString s = RandomRunes(rng, 24);
      t.Insert(pos, s);
      if (!s.empty()) {
        note_edit();
        model.insert(pos, s);
      }
    } else if (op < 8) {
      // Delete.
      t.BeginChange();
      group_open = false;
      size_t pos = rng.Below(static_cast<uint32_t>(model.size() + 2));  // may be past end
      size_t n = rng.Below(48);
      t.Delete(pos, n);
      if (n > 0 && pos < model.size()) {
        note_edit();
        model.erase(pos, std::min(n, model.size() - pos));
      }
    } else if (op < 9) {
      // Replace (one undo group: delete + insert).
      t.BeginChange();
      group_open = false;
      size_t q0 = rng.Below(static_cast<uint32_t>(model.size() + 1));
      size_t q1 = std::min(model.size(), q0 + rng.Below(32));
      RuneString s = RandomRunes(rng, 16);
      t.Replace(q0, q1, s);
      if (q1 > q0) {
        note_edit();
        model.erase(q0, q1 - q0);
      }
      if (!s.empty()) {
        note_edit();
        model.insert(q0, s);
      }
    } else if (op < 11) {
      // Undo.
      bool did = t.Undo(nullptr);
      ASSERT_EQ(did, !undo_stack.empty()) << "step " << step;
      if (did) {
        redo_stack.push_back(model);
        model = undo_stack.back();
        undo_stack.pop_back();
      }
      group_open = false;
    } else {
      // Redo.
      bool did = t.Redo(nullptr);
      ASSERT_EQ(did, !redo_stack.empty()) << "step " << step;
      if (did) {
        undo_stack.push_back(model);
        model = redo_stack.back();
        redo_stack.pop_back();
      }
      group_open = false;
    }

    // --- Full agreement after every op ---------------------------------------
    ASSERT_EQ(t.size(), model.size()) << "step " << step;
    ASSERT_EQ(t.ReadAll(), RuneString(model)) << "step " << step;
    ASSERT_EQ(t.CanUndo(), !undo_stack.empty()) << "step " << step;
    ASSERT_EQ(t.CanRedo(), !redo_stack.empty()) << "step " << step;
    ASSERT_EQ(t.LineCount(), RefLineCount(model)) << "step " << step;

    size_t pos = rng.Below(static_cast<uint32_t>(model.size() + 2));
    ASSERT_EQ(t.LineAt(pos), RefLineAt(model, pos)) << "step " << step << " pos " << pos;
    ASSERT_EQ(t.LineEndAt(pos), RefLineEndAt(model, pos))
        << "step " << step << " pos " << pos;
    size_t line = 1 + rng.Below(static_cast<uint32_t>(RefLineCount(model) + 2));
    ASSERT_EQ(t.LineStart(line), RefLineStart(model, line))
        << "step " << step << " line " << line;

    // Byte-offset view vs a full re-encode.
    std::string utf8 = t.Utf8();
    ASSERT_EQ(t.Utf8Bytes(), utf8.size()) << "step " << step;
    if (!utf8.empty()) {
      size_t boff = rng.Below(static_cast<uint32_t>(utf8.size() + 2));
      size_t bcount = rng.Below(64);
      ASSERT_EQ(t.Utf8Substr(boff, bcount),
                boff < utf8.size() ? utf8.substr(boff, bcount) : std::string())
          << "step " << step << " boff " << boff;
    }

    if (step % 512 == 0) {
      ASSERT_TRUE(t.CheckLineIndex()) << "step " << step;
    }
  }
  EXPECT_TRUE(t.CheckLineIndex());
}

INSTANTIATE_TEST_SUITE_P(Seeds, Differential, ::testing::Range(1, 5));

// --- Byte seek across ASCII and mixed chunks ----------------------------------

// Reference encoding, one EncodeRune per rune: independent of both the line
// index's seek and the ASCII-run transcoder the readers use.
std::string RefEncode(const std::u32string& s) {
  std::string out;
  for (Rune r : s) {
    EncodeRune(r, &out);
  }
  return out;
}

// Scripts that flip chunks between all-ASCII (where the seek maps bytes to
// runes directly) and mixed (where it scans): multi-byte runes go into ASCII
// runs and come out again, and bulk inserts and deletes split and merge
// chunks across their boundaries. After every step both range readers must
// agree with a full re-encode at random (offset, count <= 1024) windows.
class ByteSeek : public ::testing::TestWithParam<int> {};

TEST_P(ByteSeek, RangeReadersAgreeWithReencodeAsChunksFlip) {
  Lcg rng(static_cast<uint32_t>(GetParam()) + 7);
  static constexpr Rune kWide[] = {0xE9, 0x4F60, 0x1F600, 0x3B1};  // é 你 😀 α
  std::u32string model(3 * LineIndex::kTargetChunkRunes, 'a');
  for (size_t i = 0; i < model.size(); i += 61) {
    model[i] = '\n';
  }
  Text t(RefEncode(model));
  std::vector<size_t> wide_at;  // model offsets that may hold a wide rune

  for (int step = 0; step < 1500; step++) {
    uint32_t op = rng.Below(10);
    if (op < 3) {
      // One multi-byte rune into (most likely) an ASCII run.
      size_t pos = rng.Below(static_cast<uint32_t>(model.size() + 1));
      RuneString r(1, kWide[rng.Below(4)]);
      t.InsertNoUndo(pos, r);
      model.insert(pos, r);
      for (size_t& w : wide_at) {
        w += w >= pos;
      }
      wide_at.push_back(pos);
    } else if (op < 6) {
      // Take one back out, which may leave its chunk all-ASCII again.
      size_t i = rng.Below(static_cast<uint32_t>(wide_at.size()));
      size_t pos = wide_at.empty() ? 0 : wide_at[i];
      if (pos < model.size() && model[pos] >= 0x80) {
        t.DeleteNoUndo(pos, 1);
        model.erase(pos, 1);
        wide_at.erase(wide_at.begin() + static_cast<long>(i));
        for (size_t& w : wide_at) {
          w -= w > pos;
        }
      }
    } else if (op < 8) {
      // A bulk ASCII insert: grows a chunk until it splits.
      size_t pos = rng.Below(static_cast<uint32_t>(model.size() + 1));
      std::u32string s(1 + rng.Below(3000), 'b');
      t.InsertNoUndo(pos, s);
      model.insert(pos, s);
      for (size_t& w : wide_at) {
        w += w >= pos ? s.size() : 0;
      }
    } else if (model.size() > LineIndex::kTargetChunkRunes) {
      // A bulk delete across chunk boundaries: empties and merges chunks.
      size_t pos = rng.Below(static_cast<uint32_t>(model.size()));
      size_t n = std::min<size_t>(model.size() - pos, 1 + rng.Below(5000));
      t.DeleteNoUndo(pos, n);
      model.erase(pos, n);
      std::erase_if(wide_at, [&](size_t w) { return w >= pos && w < pos + n; });
      for (size_t& w : wide_at) {
        w -= w >= pos + n ? n : 0;
      }
    }

    const std::string full = RefEncode(model);
    ASSERT_EQ(t.Utf8Bytes(), full.size()) << "step " << step;
    for (int probe = 0; probe < 4; probe++) {
      size_t boff = rng.Below(static_cast<uint32_t>(full.size() + 2));
      size_t count = rng.Below(1025);
      std::string want = boff < full.size() ? full.substr(boff, count) : std::string();
      ASSERT_EQ(t.Utf8Substr(boff, count), want)
          << "step " << step << " boff " << boff << " count " << count;
    }
    if (step % 128 == 0) {
      ASSERT_TRUE(t.CheckLineIndex()) << "step " << step;
    }
  }
  EXPECT_TRUE(t.CheckLineIndex());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ByteSeek, ::testing::Range(1, 4));

// --- Undo/redo round trip -----------------------------------------------------

// A full random edit script, then: undo everything -> byte-identical
// original; redo everything -> byte-identical final. The undo/redo step
// counts must equal the number of BeginChange groups that actually edited,
// locking in grouping boundaries.
class UndoRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(UndoRoundTrip, FullUndoRestoresOriginalFullRedoRestoresFinal) {
  Lcg rng(static_cast<uint32_t>(GetParam()) + 99);
  Text t("seed line one\nseed line two\nseed line three\n");
  const std::string original = t.Utf8();
  const size_t original_bytes = t.Utf8Bytes();

  int effective_groups = 0;
  for (int g = 0; g < 300; g++) {
    t.BeginChange();
    bool effective = false;
    // 1-3 edits per group, exercising grouping boundaries.
    uint32_t edits = 1 + rng.Below(3);
    for (uint32_t e = 0; e < edits; e++) {
      if (t.size() > 0 && rng.Below(3) == 0) {
        size_t pos = rng.Below(static_cast<uint32_t>(t.size()));
        size_t n = 1 + rng.Below(8);
        t.Delete(pos, n);  // pos < size and n >= 1: always effective
        effective = true;
      } else {
        size_t pos = rng.Below(static_cast<uint32_t>(t.size() + 1));
        RuneString s = RandomRunes(rng, 12);
        if (s.empty()) {
          s = U"x";
        }
        t.Insert(pos, s);
        effective = true;
      }
    }
    if (effective) {
      effective_groups++;
    }
  }
  const std::string final_state = t.Utf8();
  const size_t final_bytes = t.Utf8Bytes();

  int undone = 0;
  while (t.Undo(nullptr)) {
    undone++;
  }
  EXPECT_EQ(undone, effective_groups);
  EXPECT_FALSE(t.CanUndo());
  EXPECT_EQ(t.Utf8(), original);        // byte-identical original
  EXPECT_EQ(t.Utf8Bytes(), original_bytes);
  EXPECT_TRUE(t.CheckLineIndex());

  int redone = 0;
  while (t.Redo(nullptr)) {
    redone++;
  }
  EXPECT_EQ(redone, effective_groups);
  EXPECT_FALSE(t.CanRedo());
  EXPECT_EQ(t.Utf8(), final_state);     // byte-identical final state
  EXPECT_EQ(t.Utf8Bytes(), final_bytes);
  EXPECT_TRUE(t.CheckLineIndex());
}

INSTANTIATE_TEST_SUITE_P(Seeds, UndoRoundTrip, ::testing::Range(1, 4));

// Grouping boundary: edits in one BeginChange group undo and redo as a unit.
TEST(UndoRoundTrip, GroupBoundariesSurviveRoundTrip) {
  Text t("abc");
  t.BeginChange();
  t.Insert(3, U"d");
  t.Insert(4, U"e");   // same group
  t.BeginChange();
  t.Delete(0, 1);      // own group
  EXPECT_EQ(t.Utf8(), "bcde");
  EXPECT_TRUE(t.Undo(nullptr));
  EXPECT_EQ(t.Utf8(), "abcde");  // only the delete undone
  EXPECT_TRUE(t.Undo(nullptr));
  EXPECT_EQ(t.Utf8(), "abc");    // both inserts undone together
  EXPECT_FALSE(t.Undo(nullptr));
  EXPECT_TRUE(t.Redo(nullptr));
  EXPECT_EQ(t.Utf8(), "abcde");
  EXPECT_TRUE(t.Redo(nullptr));
  EXPECT_EQ(t.Utf8(), "bcde");
  EXPECT_FALSE(t.Redo(nullptr));
}

}  // namespace
}  // namespace help
