// Clone!: multiple windows per file (a paper future-work item). Both windows
// share one body; edits appear in both, Put! cleans every tag.
#include <gtest/gtest.h>

#include "src/base/strings.h"
#include "src/core/help.h"
#include "src/fs/server.h"
#include "src/obs/trace.h"

namespace help {
namespace {

class CloneTest : public ::testing::Test {
 protected:
  CloneTest() {
    h_.vfs().MkdirAll("/src");
    h_.vfs().WriteFile("/src/f.c", "original content\n");
    auto w = h_.OpenFile("/src/f.c", "/", nullptr);
    first_ = w.value();
    EXPECT_TRUE(h_.ExecuteText("Clone!", first_).ok());
    for (Window* w2 : h_.AllWindows()) {
      if (w2 != first_ && w2->TagFilename() == "/src/f.c") {
        second_ = w2;
      }
    }
  }
  Help h_;
  Window* first_ = nullptr;
  Window* second_ = nullptr;
};

TEST_F(CloneTest, CloneSharesBody) {
  ASSERT_NE(second_, nullptr);
  EXPECT_EQ(first_->body().text, second_->body().text);
  EXPECT_NE(&first_->tag(), &second_->tag());
}

TEST_F(CloneTest, EditInOneAppearsInBoth) {
  ASSERT_NE(second_, nullptr);
  first_->body().sel = {0, 8};
  h_.SetCurrent(&first_->body());
  h_.Type("REPLACED");
  EXPECT_EQ(second_->body().text->Utf8(), "REPLACED content\n");
  // Both tags show the dirty marker.
  EXPECT_NE(first_->tag().text->Utf8().find("Put!"), std::string::npos);
  EXPECT_NE(second_->tag().text->Utf8().find("Put!"), std::string::npos);
}

TEST_F(CloneTest, PutFromEitherCleansBoth) {
  ASSERT_NE(second_, nullptr);
  first_->body().sel = {0, 0};
  h_.SetCurrent(&first_->body());
  h_.Type("x");
  ASSERT_TRUE(h_.ExecuteText("Put!", second_).ok());
  EXPECT_EQ(first_->tag().text->Utf8().find("Put!"), std::string::npos);
  EXPECT_EQ(second_->tag().text->Utf8().find("Put!"), std::string::npos);
  EXPECT_EQ(h_.vfs().ReadFile("/src/f.c").value().substr(0, 1), "x");
}

TEST_F(CloneTest, IndependentSelectionsAndScrolling) {
  ASSERT_NE(second_, nullptr);
  first_->body().sel = {0, 3};
  second_->body().sel = {4, 8};
  EXPECT_NE(first_->body().sel, second_->body().sel);
}

TEST_F(CloneTest, CloseOneKeepsTheOther) {
  ASSERT_NE(second_, nullptr);
  h_.CloseWindow(second_);
  EXPECT_EQ(h_.WindowForFile("/src/f.c"), first_);
  first_->body().sel = {0, 0};
  h_.SetCurrent(&first_->body());
  h_.Type("still alive ");
  EXPECT_EQ(first_->body().text->Utf8().substr(0, 12), "still alive ");
}

TEST_F(CloneTest, ClonedWindowServesOwnFiles) {
  ASSERT_NE(second_, nullptr);
  std::string body_path = "/mnt/help/" + std::to_string(second_->id()) + "/body";
  EXPECT_EQ(h_.vfs().ReadFile(body_path).value(), "original content\n");
}

// --- The per-body window list, driven over 9P --------------------------------

std::string WinFile(const Window* w, const char* name) {
  return StrFormat("/mnt/help/%d/%s", w->id(), name);
}

bool HasPut(const Window* w) { return w->tag().text->Utf8().find("Put!") != std::string::npos; }

// Program writes keep the body's dirty flag as it was, so these tests set it
// behind the tags' backs: a tag that then shows Put! was updated by the write.

// Truncating the body through one window's file clamps the other window's
// selection and updates its dirty tag.
TEST_F(CloneTest, TruncateThroughOneWindowUpdatesTheOther) {
  ASSERT_NE(second_, nullptr);
  second_->body().sel = {9, 16};
  second_->body().text->set_dirty(true);
  ASSERT_FALSE(HasPut(second_));
  NinepClient client(h_.ninep().Transport());
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.WriteFile(WinFile(first_, "body"), "tiny").ok());
  EXPECT_EQ(second_->body().text->Utf8(), "tiny");
  EXPECT_EQ(second_->body().sel, (Selection{0, 0}));
  EXPECT_TRUE(HasPut(second_));
  EXPECT_TRUE(HasPut(first_));
}

// With the original closed, an append through the clone's bodyapp reaches
// only the clone; the closed window is gone from the body's list, so nothing
// dereferences it (ASan catches a stale entry). Put! from the survivor then
// cleans its tag.
TEST_F(CloneTest, AppendAfterClosingOriginalTouchesOnlyTheClone) {
  ASSERT_NE(second_, nullptr);
  h_.vfs().WriteFile("/src/g.c", "other\n");
  Window* other = h_.OpenFile("/src/g.c", "/", nullptr).value();
  const std::string other_tag = other->tag().text->Utf8();
  h_.CloseWindow(first_);
  first_ = nullptr;
  second_->body().sel = {0, 8};
  second_->body().text->set_dirty(true);
  NinepClient client(h_.ninep().Transport());
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.AppendFile(WinFile(second_, "bodyapp"), "appended\n").ok());
  EXPECT_EQ(second_->body().text->Utf8(), "original content\nappended\n");
  EXPECT_EQ(second_->body().sel, (Selection{0, 8}));
  EXPECT_TRUE(HasPut(second_));
  EXPECT_EQ(other->tag().text->Utf8(), other_tag);

  ASSERT_TRUE(h_.ExecuteText("Put!", second_).ok());
  EXPECT_FALSE(HasPut(second_));
  EXPECT_EQ(h_.vfs().ReadFile("/src/f.c").value(), "original content\nappended\n");
}

// Closing every window of a body drops the body's list entry; reopening the
// file starts a fresh one.
TEST_F(CloneTest, ClosingEveryWindowOfABodyDropsItsEntry) {
  ASSERT_NE(second_, nullptr);
  h_.vfs().WriteFile("/src/g.c", "other\n");
  ASSERT_TRUE(h_.OpenFile("/src/g.c", "/", nullptr).ok());
  EXPECT_EQ(h_.TrackedBodies(), 2u);
  h_.CloseWindow(first_);
  EXPECT_EQ(h_.TrackedBodies(), 2u);
  h_.CloseWindow(second_);
  EXPECT_EQ(h_.TrackedBodies(), 1u);

  Window* again = h_.OpenFile("/src/f.c", "/", nullptr).value();
  EXPECT_EQ(h_.TrackedBodies(), 2u);
  again->body().text->set_dirty(true);
  NinepClient client(h_.ninep().Transport());
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.AppendFile(WinFile(again, "bodyapp"), "more\n").ok());
  EXPECT_TRUE(HasPut(again));
}

// Headless 9P writes never lay anything out: 100 appends through one
// window's bodyapp only mark the frames of both windows on the body, and the
// next Render lays each of those four frames (two tags, two bodies) out
// once.
TEST_F(CloneTest, AppendsOverNinepLayOutNothingUntilRender) {
  ASSERT_NE(second_, nullptr);
  ASSERT_FALSE(first_->hidden());
  ASSERT_FALSE(second_->hidden());
  obs::Counter* layouts = obs::Registry::Global().GetCounter("draw.frame_layouts");
  NinepClient client(h_.ninep().Transport());
  ASSERT_TRUE(client.Connect().ok());
  h_.Render();
  uint64_t before = layouts->value();
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(client.AppendFile(WinFile(first_, "bodyapp"), StrFormat("line %d\n", i)).ok());
  }
  EXPECT_EQ(layouts->value(), before);
  // Only the two body frames show something new; the tags are unchanged.
  std::string screen = h_.Render();
  EXPECT_EQ(layouts->value(), before + 2);
  EXPECT_NE(screen.find("line 0"), std::string::npos);
  EXPECT_EQ(h_.Render(), screen);
  EXPECT_EQ(layouts->value(), before + 2);
}

}  // namespace
}  // namespace help
