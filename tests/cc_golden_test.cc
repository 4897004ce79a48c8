// Golden outputs of the C front end over the paper's corpus: for each of the
// 13 translation units in /usr/rob/src/help, a digest of the full token
// stream and the `vc` object stamp; for every identifier occurrence in each
// .c file, the exact `rcc` decl and `rcc -u` outputs; and `rcc -s` for every
// function. Outputs are folded into FNV-1a digests so the table stays small;
// on a mismatch the test prints the whole table as it now is.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <utility>

#include "src/base/strings.h"
#include "src/cc/browser.h"
#include "src/cc/clex.h"
#include "src/cc/cpp.h"
#include "src/tools/tools.h"

namespace help {
namespace {

constexpr char kDir[] = "/usr/rob/src/help";

struct Golden {
  const char* file;
  uint64_t tokens;     // digest of (kind, text, file, line, col) per token
  const char* vc;      // the .v stamp vc writes
  size_t occurrences;  // distinct (line, identifier) pairs in the raw file
  uint64_t decl;       // digest of rcc decl output per occurrence
  uint64_t uses;       // digest of rcc -u output per occurrence
};

// clang-format off
const Golden kGolden[] = {
    {"clik.c", 0xab310b11ed57d937ull, "object clik.c ntokens 487\n", 10, 0xf82504988d02e79cull, 0x8d283d1251f06fb8ull},
    {"ctrl.c", 0x5e32db2c0a50487aull, "object ctrl.c ntokens 549\n", 28, 0x6672f702899ec162ull, 0x62252e02ad79d9beull},
    {"errs.c", 0xac489044865f2b8cull, "object errs.c ntokens 507\n", 15, 0x1a5533552baee6c4ull, 0xb3c23fa142917d0eull},
    {"exec.c", 0x3525a3c28b821329ull, "object exec.c ntokens 782\n", 91, 0xb59d5b04ec1065bbull, 0xeb2934e8709acb78ull},
    {"file.c", 0xa1c005b176718d67ull, "object file.c ntokens 546\n", 30, 0xecb5a98490aeff0aull, 0xee099d8cd07414f3ull},
    {"help.c", 0xe7c88a36bdbffc5cull, "object help.c ntokens 559\n", 24, 0xe13b964f9d1c88b2ull, 0xe25b06a9e7ee0bddull},
    {"page.c", 0xeda891c80e894417ull, "object page.c ntokens 506\n", 17, 0xcd0407c120596e1cull, 0x0f0bab5b33f78977ull},
    {"pick.c", 0x9c52fd796e36c38eull, "object pick.c ntokens 499\n", 12, 0x21c58ba491646eeaull, 0x919873e9737f865aull},
    {"proc.c", 0xbd7ab8606671f2d8ull, "object proc.c ntokens 496\n", 11, 0xf84c7466e1e4be4aull, 0x1a82d6086f1b9e58ull},
    {"scrl.c", 0x513e789ac287c7b2ull, "object scrl.c ntokens 499\n", 14, 0xa6dc61e2d78ae738ull, 0xd9eb12cf8fc54010ull},
    {"text.c", 0x1d570f6a897fbcb7ull, "object text.c ntokens 577\n", 42, 0x00c451a4dc6226ccull, 0x058200b4673a5f8full},
    {"util.c", 0x2e99540eee1e3923ull, "object util.c ntokens 505\n", 14, 0x8271b867cfe47e37ull, 0x907c6b75367c04edull},
    {"xtrn.c", 0x61b45031a0fb6e06ull, "object xtrn.c ntokens 479\n", 3, 0x6dbd29a7b20f7e27ull, 0x6633ea0b5e40d94cull},
};
const size_t kGoldenFuncs = 28;
const uint64_t kGoldenSrc = 0xa557a044452bec63ull;
// clang-format on

uint64_t Fnv(std::string_view s, uint64_t h = 1469598103934665603ull) {
  for (unsigned char c : s) {
    h = (h ^ c) * 1099511628211ull;
  }
  return h;
}

class CcGolden : public ::testing::Test {
 protected:
  CcGolden() {
    InstallTools(&h_);
    BuildPaperWorld(&h_);
    for (const std::string& f : GlobExpand(h_.vfs(), kDir, "*.c")) {
      files_.push_back(BasePath(f));
    }
  }

  // Runs native command `argv` in kDir with `in` on stdin; returns
  // "rc=N\n" + stdout + stderr.
  std::string Run(std::vector<std::string> argv, std::string in = "") {
    const NativeCommand* fn = h_.registry().Find(argv[0]);
    EXPECT_NE(fn, nullptr) << argv[0];
    ExecContext ctx;
    ctx.vfs = &h_.vfs();
    ctx.registry = &h_.registry();
    ctx.cwd = kDir;
    std::string out;
    std::string err;
    Io io;
    io.in = std::move(in);
    io.out = &out;
    io.err = &err;
    int rc = (*fn)(ctx, argv, io);
    return StrFormat("rc=%d\n", rc) + out + err;
  }

  std::string Path(const std::string& f) const { return JoinPath(kDir, f); }

  Help h_;
  std::vector<std::string> files_;  // relative names, sorted, as `*.c` expands
  std::vector<std::string> vc_;     // .v stamps, in files_ order
};

TEST_F(CcGolden, Figure10Uses) {
  std::vector<std::string> argv = {"/bin/help/rcc", "-u", "-in", "-n213", "-fexec.c"};
  argv.insert(argv.end(), files_.begin(), files_.end());
  EXPECT_EQ(Run(argv), "rc=0\n./dat.h:136\nexec.c:213\nexec.c:252\nhelp.c:35\n");
}

TEST_F(CcGolden, CorpusOutputsMatch) {
  ASSERT_EQ(files_.size(), 13u);
  std::vector<Golden> got;
  std::set<std::string> funcs;
  for (const std::string& f : files_) {
    Golden g{};
    g.file = f.c_str();
    auto pp = Preprocess(h_.vfs(), Path(f));
    ASSERT_TRUE(pp.ok()) << pp.message();
    auto toks = CLex(pp.value(), Path(f));
    ASSERT_TRUE(toks.ok()) << toks.message();
    std::string stream;
    for (const CToken& t : toks.value()) {
      stream += StrFormat("%d\t", static_cast<int>(t.kind));
      stream += t.text;
      stream += '\t';
      stream += t.file;
      stream += StrFormat("\t%d\t%d\n", t.line, t.col);
    }
    g.tokens = Fnv(stream);

    EXPECT_EQ(Run({"/bin/vc", "-w", f}), "rc=0\n");
    std::string stem = f.substr(0, f.size() - 2);
    auto stamp = h_.vfs().ReadFile(Path(stem + ".v"));
    ASSERT_TRUE(stamp.ok());
    vc_.push_back(stamp.value());

    // Every identifier occurrence in the file as written.
    std::string text = h_.vfs().ReadFile(Path(f)).value();
    auto raw = CLex(text, Path(f));
    ASSERT_TRUE(raw.ok()) << raw.message();
    std::set<std::pair<int, std::string>> occ;
    for (const CToken& t : raw.value()) {
      if (t.kind == CTok::kIdent) {
        occ.emplace(t.line, std::string(t.text));
      }
    }
    g.occurrences = occ.size();
    g.decl = Fnv("");
    g.uses = Fnv("");
    for (const auto& [line, id] : occ) {
      std::string key = StrFormat("%s:%d\n", id.c_str(), line);
      std::string idarg = "-i" + id;
      std::string linearg = StrFormat("-n%d", line);
      std::string filearg = "-f" + f;
      g.decl = Fnv(key + Run({"/bin/help/rcc", "-w", "-g", idarg, linearg, filearg},
                             pp.value()),
                   g.decl);
      std::vector<std::string> argv = {"/bin/help/rcc", "-u", idarg, linearg, filearg};
      argv.insert(argv.end(), files_.begin(), files_.end());
      g.uses = Fnv(key + Run(argv), g.uses);
    }
    got.push_back(g);
  }

  CBrowser all;
  for (const std::string& f : files_) {
    ASSERT_TRUE(all.AddFile(h_.vfs(), Path(f)).ok());
  }
  for (const CSymbol& s : all.symbols()) {
    if (s.kind == CSymKind::kFunc) {
      funcs.insert(s.name);
    }
  }
  uint64_t src = Fnv("");
  for (const std::string& fn : funcs) {
    std::vector<std::string> argv = {"/bin/help/rcc", "-s" + fn, "-fexec.c"};
    argv.insert(argv.end(), files_.begin(), files_.end());
    src = Fnv(fn + "\n" + Run(argv), src);
  }

  std::string table;
  for (size_t i = 0; i < got.size(); i++) {
    const Golden& g = got[i];
    std::string stamp = vc_[i];
    table += StrFormat("    {\"%s\", 0x%016llxull, \"%s\\n\", %zu, 0x%016llxull, 0x%016llxull},\n",
                       g.file, static_cast<unsigned long long>(g.tokens),
                       std::string(TrimSpace(stamp)).c_str(), g.occurrences,
                       static_cast<unsigned long long>(g.decl),
                       static_cast<unsigned long long>(g.uses));
  }
  table += StrFormat("kGoldenFuncs = %zu, kGoldenSrc = 0x%016llxull\n", funcs.size(),
                     static_cast<unsigned long long>(src));
  SCOPED_TRACE("current table:\n" + table);

  ASSERT_EQ(std::size(kGolden), got.size());
  for (size_t i = 0; i < got.size(); i++) {
    const Golden& want = kGolden[i];
    const Golden& g = got[i];
    EXPECT_STREQ(want.file, g.file);
    EXPECT_EQ(want.tokens, g.tokens) << g.file;
    EXPECT_EQ(want.vc, vc_[i]) << g.file;
    EXPECT_EQ(want.occurrences, g.occurrences) << g.file;
    EXPECT_EQ(want.decl, g.decl) << g.file;
    EXPECT_EQ(want.uses, g.uses) << g.file;
  }
  EXPECT_EQ(kGoldenFuncs, funcs.size());
  EXPECT_EQ(kGoldenSrc, src);
}

}  // namespace
}  // namespace help
