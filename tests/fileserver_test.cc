// "The interface seen by programs": /mnt/help as the paper documents it —
// index, new/ctl, per-window tag/body/bodyapp/ctl — plus the snarf and open
// extensions, exercised both directly and over the 9P protocol.
#include <gtest/gtest.h>

#include "src/base/strings.h"
#include "src/core/help.h"
#include "src/fs/server.h"

namespace help {
namespace {

class FileServerTest : public ::testing::Test {
 protected:
  FileServerTest() {
    h_.vfs().MkdirAll("/usr/rob");
    h_.vfs().WriteFile("/usr/rob/f.c", "one\ntwo\nthree\n");
  }
  Help h_;
};

TEST_F(FileServerTest, NewCtlCreatesWindowAndReportsNumber) {
  int before = h_.counters().windows_created;
  auto data = h_.vfs().ReadFile("/mnt/help/new/ctl");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(h_.counters().windows_created, before + 1);
  int id = static_cast<int>(ParseInt(TrimSpace(data.value())));
  EXPECT_GT(id, 0);
  EXPECT_NE(h_.page().FindById(id), nullptr);
  // The window's files exist.
  EXPECT_TRUE(h_.vfs().Walk(StrFormat("/mnt/help/%d/body", id)).ok());
  EXPECT_TRUE(h_.vfs().Walk(StrFormat("/mnt/help/%d/tag", id)).ok());
  EXPECT_TRUE(h_.vfs().Walk(StrFormat("/mnt/help/%d/ctl", id)).ok());
  EXPECT_TRUE(h_.vfs().Walk(StrFormat("/mnt/help/%d/bodyapp", id)).ok());
}

TEST_F(FileServerTest, IndexListsWindows) {
  auto w = h_.OpenFile("/usr/rob/f.c", "/", nullptr);
  ASSERT_TRUE(w.ok());
  auto index = h_.vfs().ReadFile("/mnt/help/index");
  ASSERT_TRUE(index.ok());
  EXPECT_NE(index.value().find(StrFormat("%d\t/usr/rob/f.c", w.value()->id())),
            std::string::npos);
}

TEST_F(FileServerTest, BodyReadAndWrite) {
  auto w = h_.OpenFile("/usr/rob/f.c", "/", nullptr);
  std::string body_path = StrFormat("/mnt/help/%d/body", w.value()->id());
  EXPECT_EQ(h_.vfs().ReadFile(body_path).value(), "one\ntwo\nthree\n");
  // cp /mnt/help/N/body file — the paper's example — is just a read.
  ASSERT_TRUE(h_.vfs().WriteFile(body_path, "replaced\n").ok());
  EXPECT_EQ(w.value()->body().text->Utf8(), "replaced\n");
}

TEST_F(FileServerTest, BodyappAppends) {
  auto w = h_.OpenFile("/usr/rob/f.c", "/", nullptr);
  std::string app = StrFormat("/mnt/help/%d/bodyapp", w.value()->id());
  ASSERT_TRUE(h_.vfs().AppendFile(app, "appended1\n").ok());
  ASSERT_TRUE(h_.vfs().AppendFile(app, "appended2\n").ok());
  std::string body = w.value()->body().text->Utf8();
  EXPECT_NE(body.find("three\nappended1\nappended2\n"), std::string::npos);
}

TEST_F(FileServerTest, TagReadWrite) {
  auto w = h_.OpenFile("/usr/rob/f.c", "/", nullptr);
  std::string tag_path = StrFormat("/mnt/help/%d/tag", w.value()->id());
  EXPECT_NE(h_.vfs().ReadFile(tag_path).value().find("/usr/rob/f.c"),
            std::string::npos);
  ASSERT_TRUE(h_.vfs().WriteFile(tag_path, "/renamed Close!").ok());
  EXPECT_EQ(w.value()->TagFilename(), "/renamed");
}

TEST_F(FileServerTest, CtlTagMessage) {
  auto w = h_.OpenFile("/usr/rob/f.c", "/", nullptr);
  std::string ctl = StrFormat("/mnt/help/%d/ctl", w.value()->id());
  ASSERT_TRUE(h_.vfs().WriteFile(ctl, "tag /usr/rob/ stack Close!\n").ok());
  EXPECT_EQ(w.value()->tag().text->Utf8(), "/usr/rob/ stack Close!");
  EXPECT_EQ(w.value()->ContextDir(), "/usr/rob");
}

TEST_F(FileServerTest, CtlShowSelectsAddress) {
  auto w = h_.OpenFile("/usr/rob/f.c", "/", nullptr);
  std::string ctl = StrFormat("/mnt/help/%d/ctl", w.value()->id());
  ASSERT_TRUE(h_.vfs().WriteFile(ctl, "show 2\n").ok());
  Selection s = w.value()->body().sel;
  EXPECT_EQ(w.value()->body().text->Utf8Range(s.q0, s.q1), "two\n");
}

TEST_F(FileServerTest, CtlInsertDeleteSelectClean) {
  auto w = h_.OpenFile("/usr/rob/f.c", "/", nullptr);
  std::string ctl = StrFormat("/mnt/help/%d/ctl", w.value()->id());
  ASSERT_TRUE(h_.vfs().WriteFile(ctl, "insert 0 HEAD \n").ok());
  EXPECT_EQ(w.value()->body().text->Utf8().substr(0, 5), "HEAD ");
  ASSERT_TRUE(h_.vfs().WriteFile(ctl, "delete 0 5\n").ok());
  EXPECT_EQ(w.value()->body().text->Utf8(), "one\ntwo\nthree\n");
  ASSERT_TRUE(h_.vfs().WriteFile(ctl, "select 4 7\n").ok());
  EXPECT_EQ(w.value()->body().sel, (Selection{4, 7}));
  ASSERT_TRUE(h_.vfs().WriteFile(ctl, "clean\n").ok());
  EXPECT_FALSE(w.value()->body().text->dirty());
}

TEST_F(FileServerTest, CtlRejectsBadMessages) {
  auto w = h_.OpenFile("/usr/rob/f.c", "/", nullptr);
  std::string ctl = StrFormat("/mnt/help/%d/ctl", w.value()->id());
  EXPECT_FALSE(h_.vfs().WriteFile(ctl, "frobnicate\n").ok());
  EXPECT_FALSE(h_.vfs().WriteFile(ctl, "select 1\n").ok());
  EXPECT_FALSE(h_.vfs().WriteFile(ctl, "delete 5 2\n").ok());
}

TEST_F(FileServerTest, CtlReadReturnsWindowNumber) {
  auto w = h_.OpenFile("/usr/rob/f.c", "/", nullptr);
  auto got = h_.vfs().ReadFile(StrFormat("/mnt/help/%d/ctl", w.value()->id()));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), StrFormat("%d\n", w.value()->id()));
}

TEST_F(FileServerTest, SnarfFile) {
  h_.set_snarf("from the cut buffer");
  EXPECT_EQ(h_.vfs().ReadFile("/mnt/help/snarf").value(), "from the cut buffer");
  ASSERT_TRUE(h_.vfs().WriteFile("/mnt/help/snarf", "stored").ok());
  EXPECT_EQ(h_.snarf(), "stored");
}

TEST_F(FileServerTest, OpenRequestFile) {
  ASSERT_TRUE(h_.vfs().WriteFile("/mnt/help/open", "/usr/rob f.c:2\n").ok());
  Window* w = h_.WindowForFile("/usr/rob/f.c");
  ASSERT_NE(w, nullptr);
  Selection s = w->body().sel;
  EXPECT_EQ(w->body().text->Utf8Range(s.q0, s.q1), "two\n");
  EXPECT_FALSE(h_.vfs().WriteFile("/mnt/help/open", "onlyoneword\n").ok());
}

TEST_F(FileServerTest, ClosedWindowFilesReportGone) {
  auto w = h_.OpenFile("/usr/rob/f.c", "/", nullptr);
  int id = w.value()->id();
  // Keep a path, close the window, then the files are removed.
  h_.CloseWindow(w.value());
  EXPECT_FALSE(h_.vfs().ReadFile(StrFormat("/mnt/help/%d/body", id)).ok());
}

// The paper's workflow must hold over the wire too: a 9P client examines and
// edits windows through the protocol.
TEST_F(FileServerTest, WorksOverNinep) {
  auto w = h_.OpenFile("/usr/rob/f.c", "/", nullptr);
  NinepServer& server = h_.ninep();
  NinepClient client(server.TransportFor(server.OpenSession()));
  ASSERT_TRUE(client.Connect().ok());
  std::string body_path = StrFormat("/mnt/help/%d/body", w.value()->id());
  auto body = client.ReadFile(body_path);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body.value(), "one\ntwo\nthree\n");
  ASSERT_TRUE(client.AppendFile(StrFormat("/mnt/help/%d/bodyapp", w.value()->id()),
                                "via 9P\n")
                  .ok());
  EXPECT_NE(w.value()->body().text->Utf8().find("via 9P"), std::string::npos);
  // grep pattern /mnt/help/N/body — the paper's example — via a remote read.
  auto index = client.ReadFile("/mnt/help/index");
  ASSERT_TRUE(index.ok());
  EXPECT_NE(index.value().find("/usr/rob/f.c"), std::string::npos);
}

}  // namespace
}  // namespace help
