// Path algebra, VFS, and synthetic-file handler tests.
#include <gtest/gtest.h>

#include "src/fs/path.h"
#include "src/fs/vfs.h"

namespace help {
namespace {

// --- Paths ---------------------------------------------------------------------

struct CleanCase {
  const char* in;
  const char* out;
};

// Spells the case out in test names; gtest's default printer would dump
// the struct's pointer bytes, which change every build.
void PrintTo(const CleanCase& c, std::ostream* os) {
  *os << '\'' << c.in << "' to '" << c.out << '\'';
}

class PathClean : public ::testing::TestWithParam<CleanCase> {};

TEST_P(PathClean, Cleans) { EXPECT_EQ(CleanPath(GetParam().in), GetParam().out); }

INSTANTIATE_TEST_SUITE_P(
    Cases, PathClean,
    ::testing::Values(CleanCase{"/", "/"}, CleanCase{"//a//b/", "/a/b"},
                      CleanCase{"/a/./b", "/a/b"}, CleanCase{"/a/../b", "/b"},
                      CleanCase{"/..", "/"}, CleanCase{"a/b/../c", "a/c"},
                      CleanCase{"../x", "../x"}, CleanCase{".", "."},
                      CleanCase{"", "."}, CleanCase{"/a/b/..", "/a"}));

TEST(Path, JoinContextRule) {
  // Absolute names win outright; relative names get the directory prepended.
  EXPECT_EQ(JoinPath("/usr/rob/src/help", "dat.h"), "/usr/rob/src/help/dat.h");
  EXPECT_EQ(JoinPath("/usr/rob/src/help", "/lib/profile"), "/lib/profile");
  EXPECT_EQ(JoinPath("/a", "../b"), "/b");
  EXPECT_EQ(JoinPath("", "x"), "x");
}

TEST(Path, BaseDir) {
  EXPECT_EQ(BasePath("/a/b/c.c"), "c.c");
  EXPECT_EQ(DirPath("/a/b/c.c"), "/a/b");
  EXPECT_EQ(DirPath("/top"), "/");
  EXPECT_EQ(BasePath("/"), "/");
  EXPECT_EQ(DirPath("rel"), ".");
}

TEST(Path, Elements) {
  EXPECT_EQ(PathElements("/a/b/c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(PathElements("/"), (std::vector<std::string>{}));
}

// --- VFS -----------------------------------------------------------------------

TEST(Vfs, CreateWriteRead) {
  Vfs vfs;
  ASSERT_TRUE(vfs.MkdirAll("/usr/rob").ok());
  ASSERT_TRUE(vfs.WriteFile("/usr/rob/x", "hello").ok());
  auto data = vfs.ReadFile("/usr/rob/x");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value(), "hello");
}

TEST(Vfs, WalkErrors) {
  Vfs vfs;
  vfs.WriteFile("/f", "x");
  EXPECT_FALSE(vfs.Walk("/nope").ok());
  EXPECT_FALSE(vfs.Walk("/f/child").ok());  // walk through a file
  EXPECT_FALSE(vfs.ReadFile("/").ok());     // reading a directory
}

TEST(Vfs, CreateRejectsDuplicatesAndMissingParents) {
  Vfs vfs;
  ASSERT_TRUE(vfs.Create("/a", true).ok());
  EXPECT_FALSE(vfs.Create("/a", true).ok());
  EXPECT_FALSE(vfs.Create("/missing/x", false).ok());
}

TEST(Vfs, RemoveSemantics) {
  Vfs vfs;
  vfs.MkdirAll("/d/sub");
  vfs.WriteFile("/d/sub/f", "x");
  EXPECT_FALSE(vfs.Remove("/d/sub").ok());  // not empty
  EXPECT_TRUE(vfs.Remove("/d/sub/f").ok());
  EXPECT_TRUE(vfs.Remove("/d/sub").ok());
  EXPECT_FALSE(vfs.Remove("/d/sub").ok());  // already gone
}

TEST(Vfs, ReadDirSortedWithTypes) {
  Vfs vfs;
  vfs.MkdirAll("/d/zdir");
  vfs.WriteFile("/d/beta", "");
  vfs.WriteFile("/d/alpha", "");
  auto entries = vfs.ReadDir("/d");
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries.value().size(), 3u);
  EXPECT_EQ(entries.value()[0].name, "alpha");
  EXPECT_EQ(entries.value()[1].name, "beta");
  EXPECT_EQ(entries.value()[2].name, "zdir");
  EXPECT_TRUE(entries.value()[2].dir);
}

TEST(Vfs, MtimeAdvancesOnWrite) {
  Vfs vfs;
  vfs.WriteFile("/a", "1");
  uint64_t t1 = vfs.Stat("/a").value().mtime;
  vfs.WriteFile("/b", "2");
  vfs.WriteFile("/a", "3");
  uint64_t t2 = vfs.Stat("/a").value().mtime;
  EXPECT_GT(t2, t1);
  EXPECT_GT(t2, vfs.Stat("/b").value().mtime);
}

TEST(Vfs, AppendAndSparseWrites) {
  Vfs vfs;
  vfs.WriteFile("/f", "abc");
  vfs.AppendFile("/f", "def");
  EXPECT_EQ(vfs.ReadFile("/f").value(), "abcdef");
  auto f = vfs.Open("/f", kOwrite);
  ASSERT_TRUE(f.ok());
  f.value()->Write(10, "X");
  std::string data = vfs.ReadFile("/f").value();
  EXPECT_EQ(data.size(), 11u);
  EXPECT_EQ(data[10], 'X');
  EXPECT_EQ(data[8], '\0');  // zero-filled hole
}

TEST(Vfs, OpenModesEnforced) {
  Vfs vfs;
  vfs.WriteFile("/f", "data");
  auto r = vfs.Open("/f", kOread);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value()->Write(0, "x").ok());
  auto w = vfs.Open("/f", kOwrite);
  ASSERT_TRUE(w.ok());
  EXPECT_FALSE(w.value()->Read(0, 10).ok());
}

TEST(Vfs, OpenForReadDoesNotCreate) {
  Vfs vfs;
  EXPECT_FALSE(vfs.Open("/ghost", kOread).ok());
  EXPECT_TRUE(vfs.Open("/ghost", kOwrite).ok());  // write-open creates
  EXPECT_TRUE(vfs.Walk("/ghost").ok());
}

TEST(Vfs, TruncateOnOpen) {
  Vfs vfs;
  vfs.WriteFile("/f", "long content");
  auto f = vfs.Open("/f", kOwrite | kOtrunc);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(vfs.ReadFile("/f").value(), "");
}

TEST(Vfs, FullPathWalksParents) {
  Vfs vfs;
  vfs.MkdirAll("/a/b");
  vfs.WriteFile("/a/b/c", "");
  auto node = vfs.Walk("/a/b/c");
  ASSERT_TRUE(node.ok());
  EXPECT_EQ(Vfs::FullPath(*node.value()), "/a/b/c");
  EXPECT_EQ(Vfs::FullPath(*vfs.root()), "/");
}

// --- Synthetic files -------------------------------------------------------------

// A counter file: reads return how many times it has been opened.
class CountingHandler : public FileHandler {
 public:
  Status Open(OpenFile& f, uint8_t mode) override {
    opens_++;
    f.state = std::to_string(opens_) + "\n";
    return Status::Ok();
  }
  Result<std::string> Read(OpenFile& f, uint64_t offset, uint32_t count) override {
    if (offset >= f.state.size()) {
      return std::string();
    }
    return f.state.substr(offset, count);
  }
  Result<uint32_t> Write(OpenFile& f, uint64_t offset, std::string_view data) override {
    last_write = std::string(data);
    return static_cast<uint32_t>(data.size());
  }
  std::string last_write;

 private:
  int opens_ = 0;
};

TEST(Vfs, SyntheticHandlerPerOpenState) {
  Vfs vfs;
  auto handler = std::make_shared<CountingHandler>();
  ASSERT_TRUE(vfs.AttachHandler("/dev/counter", handler).ok());
  EXPECT_EQ(vfs.ReadFile("/dev/counter").value(), "1\n");
  EXPECT_EQ(vfs.ReadFile("/dev/counter").value(), "2\n");
  ASSERT_TRUE(vfs.WriteFile("/dev/counter", "ctl message").ok());
  EXPECT_EQ(handler->last_write, "ctl message");
}

TEST(Vfs, HandlerCreatesIntermediateDirs) {
  Vfs vfs;
  ASSERT_TRUE(vfs.AttachHandler("/mnt/deep/nest/file", std::make_shared<CountingHandler>())
                  .ok());
  EXPECT_TRUE(vfs.Walk("/mnt/deep/nest").value()->dir());
}

}  // namespace
}  // namespace help
