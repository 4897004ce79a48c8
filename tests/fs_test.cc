// Path algebra, VFS, and synthetic-file handler tests.
#include <gtest/gtest.h>

#include <random>

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

std::vector<std::string> Elements(std::string_view path) {
  std::vector<std::string> out;
  CleanElements elems(path);
  for (std::string_view elem; elems.Next(&elem);) {
    out.emplace_back(elem);
  }
  return out;
}

TEST(Path, Elements) {
  using V = std::vector<std::string>;
  EXPECT_EQ(Elements("/a/b/c"), (V{"a", "b", "c"}));
  EXPECT_EQ(Elements("/"), V{});
  EXPECT_EQ(Elements("//a/./b//../c/"), (V{"a", "c"}));
  EXPECT_EQ(Elements("/a/b/../../.."), V{});
  EXPECT_EQ(Elements("a/../../x/y/.."), (V{"..", "x"}));
  EXPECT_EQ(Elements("a/.."), V{"."});
  EXPECT_EQ(Elements(""), V{"."});
}

// A 64 KiB name of 32k elements that ends in "..": every element but the
// last is kept.
TEST(Path, LongDotDotPath) {
  std::string path;
  while (path.size() < 65536) {
    path += "/a";
  }
  std::string kept = path.substr(0, path.size() - 2);
  path += "/b/..";
  EXPECT_EQ(CleanPath(path), path.substr(0, path.size() - 5));
  EXPECT_EQ(Elements(path).size(), 32768u);
  EXPECT_EQ(CleanPath(path + "/.."), kept);
  EXPECT_EQ(Elements(path + "/..").size(), 32767u);
}

// Random paths over a small tree: elements that exist, are files, are
// missing, and ".", ".." and "", joined by one or two slashes, absolute or
// relative, with or without a trailing slash.
std::string RandomPath(std::mt19937& rng) {
  static const char* kElems[] = {"a", "b", "f", "x", ".", "..", ""};
  auto pick = [&](int n) { return std::uniform_int_distribution<int>(0, n - 1)(rng); };
  std::string p = pick(4) != 0 ? "/" : "";
  for (int n = pick(6); n > 0; n--) {
    p += kElems[pick(7)];
    p += pick(5) == 0 ? "//" : "/";
  }
  p += kElems[pick(7)];
  if (pick(4) == 0) {
    p += '/';
  }
  return p;
}

// Walk resolves ".", ".." and "//" exactly as CleanPath does: walking a
// path and walking its cleaned form give the same node or the same error.
TEST(PathProperty, WalkAgreesWithWalkOfCleanPath) {
  Vfs vfs;
  vfs.MkdirAll("/a/b/a");
  vfs.MkdirAll("/b");
  vfs.WriteFile("/a/f", "x");
  vfs.WriteFile("/f", "y");
  vfs.WriteFile("/a/b/f", "z");
  std::mt19937 rng(27);
  int found = 0;
  int missing = 0;
  int not_dir = 0;
  for (int i = 0; i < 20000; i++) {
    std::string p = RandomPath(rng);
    auto raw = vfs.Walk(p);
    auto clean = vfs.Walk(CleanPath(p));
    ASSERT_EQ(raw.ok(), clean.ok()) << p;
    if (raw.ok()) {
      EXPECT_EQ(raw.value(), clean.value()) << p;
      found++;
      continue;
    }
    EXPECT_EQ(raw.message(), clean.message()) << p;
    (raw.message().find("not a directory") != std::string::npos ? not_dir : missing)++;
  }
  EXPECT_GT(found, 1000);
  EXPECT_GT(missing, 1000);
  EXPECT_GT(not_dir, 100);
}

// The join helpers answer as they would on the cleaned path.
TEST(PathProperty, JoinDirBaseAgreeWithCleanPath) {
  std::mt19937 rng(28);
  for (int i = 0; i < 20000; i++) {
    std::string dir = RandomPath(rng);
    std::string name = RandomPath(rng);
    std::string joined = IsAbsPath(name) || dir.empty() ? name : dir + "/" + name;
    EXPECT_EQ(JoinPath(dir, name), CleanPath(joined)) << dir << " + " << name;
    std::string clean = CleanPath(name);
    size_t slash = clean.rfind('/');
    std::string base = clean == "/" || slash == std::string::npos ? clean : clean.substr(slash + 1);
    std::string parent = slash == std::string::npos ? "." : slash == 0 ? "/" : clean.substr(0, slash);
    EXPECT_EQ(BasePath(name), base) << name;
    EXPECT_EQ(DirPath(name), parent) << name;
    EXPECT_EQ(CleanPath(clean), clean) << name;
  }
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

// The error text of every failing namespace call, frozen: callers show it
// to the user.
TEST(Vfs, ErrorTextGolden) {
  Vfs vfs;
  ASSERT_TRUE(vfs.MkdirAll("/d/sub").ok());
  ASSERT_TRUE(vfs.WriteFile("/d/f", "x").ok());
  ASSERT_TRUE(vfs.WriteFile("/d/sub/g", "y").ok());
  auto msg = [](const auto& r) { return r.ok() ? std::string("ok") : r.message(); };
  struct Case {
    std::string got;
    const char* want;
  } cases[] = {
      {msg(vfs.Walk("/nope")), "/nope: file does not exist"},
      {msg(vfs.Walk("/d//nope/")), "/d/nope: file does not exist"},
      {msg(vfs.Walk("/d/./sub/../nope")), "/d/nope: file does not exist"},
      {msg(vfs.Walk("/d/sub/nope/deeper")), "/d/sub/nope/deeper: file does not exist"},
      {msg(vfs.Walk("/d/f/x")), "/d/f: not a directory"},
      {msg(vfs.Walk("/d/f/x/y")), "/d/f: not a directory"},
      {msg(vfs.Walk("/d//f/./x")), "/d/f: not a directory"},
      {msg(vfs.Walk("/d/f/../zz")), "/d/zz: file does not exist"},
      {msg(vfs.Walk("d/nope")), "d/nope: file does not exist"},
      {msg(vfs.Walk("../x")), "../x: file does not exist"},
      {msg(vfs.Walk("d/../../x")), "../x: file does not exist"},
      {msg(vfs.Walk(".")), ".: file does not exist"},
      {msg(vfs.Walk("")), ".: file does not exist"},
      {msg(vfs.Walk("d/..")), ".: file does not exist"},
      {msg(vfs.Stat("/d/sub/nope")), "/d/sub/nope: file does not exist"},
      {msg(vfs.Stat("/d/f/x")), "/d/f: not a directory"},
      {msg(vfs.ReadDir("/nope")), "/nope: file does not exist"},
      {msg(vfs.ReadDir("/d//f/")), "/d/f: not a directory"},
      {msg(vfs.ReadDir("/d/f/x")), "/d/f: not a directory"},
      {msg(vfs.Open("/nope", kOread)), "/nope: file does not exist"},
      {msg(vfs.Open("/d/./", kOwrite)), "/d: is a directory"},
      {msg(vfs.Open("/nope/x", kOwrite)), "/nope: file does not exist"},
      {msg(vfs.Open("/d/f/x", kOwrite)), "/d/f: not a directory"},
      {msg(vfs.Open("/d/f/x/y", kOwrite)), "/d/f: not a directory"},
      {msg(vfs.Create("/d/f", false)), "/d/f: file already exists"},
      {msg(vfs.Create("/d//sub/", true)), "/d/sub: file already exists"},
      {msg(vfs.Create("/", true)), "cannot operate on root"},
      {msg(vfs.Create("/d/..", true)), "cannot operate on root"},
      {msg(vfs.Create("/nope/x", false)), "/nope: file does not exist"},
      {msg(vfs.Create("/d/f/x", false)), "/d/f: not a directory"},
      {msg(vfs.Create("/d/f/x/y", false)), "/d/f: not a directory"},
      {msg(vfs.Create("x", false)), ".: file does not exist"},
      {msg(vfs.Remove("/nope")), "/nope: file does not exist"},
      {msg(vfs.Remove("/d")), "/d: directory not empty"},
      {msg(vfs.Remove("/d/sub/../")), "/d: directory not empty"},
      {msg(vfs.Remove("/")), "cannot operate on root"},
      {msg(vfs.Remove("/x/y")), "/x: file does not exist"},
      {msg(vfs.Remove("/d/f/x")), "/d/f/x: file does not exist"},
      {msg(vfs.ReadFile("/nope")), "/nope: file does not exist"},
      {msg(vfs.ReadFile("/d/sub/..")), "/d: is a directory"},
      {msg(vfs.ReadFile("/d/f/x")), "/d/f: not a directory"},
      {msg(vfs.WriteFile("/d", "x")), "/d: is a directory"},
      {msg(vfs.AppendFile("/nope/x", "x")), "/nope: file does not exist"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(c.got, c.want);
  }
}

// MkdirAll, and AttachHandler through it, name the file in the way by its
// full path, as Walk and Create do.
TEST(Vfs, MkdirAllNamesTheFullPathOfAFileInTheWay) {
  Vfs vfs;
  ASSERT_TRUE(vfs.MkdirAll("/a").ok());
  ASSERT_TRUE(vfs.WriteFile("/a/b", "x").ok());
  EXPECT_EQ(vfs.MkdirAll("/a/b/c").message(), "/a/b: not a directory");
  EXPECT_EQ(vfs.MkdirAll("/a//b/").message(), "/a/b: not a directory");
  EXPECT_EQ(vfs.MkdirAll("/x/../a/b/c/d").message(), "/a/b: not a directory");
  EXPECT_EQ(vfs.AttachHandler("/a/b/c/d", nullptr).message(), "/a/b: not a directory");
  EXPECT_EQ(vfs.Walk("/a/b/c").message(), "/a/b: not a directory");
  EXPECT_EQ(vfs.Create("/a/b/c/d", false).message(), "/a/b: not a directory");
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
