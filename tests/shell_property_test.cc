// Golden property suite: 10k seeded random rc scripts, each run in a
// freshly built world, with the full observable result — stdout, stderr,
// exit status, error status, the final variable bindings and a recursive
// dump of the namespace — folded into one FNV-1a digest per block of 100
// seeds. The generator leans on the features an evaluator most easily gets
// wrong: nesting, quoting, ^ concatenation, $-expansion, command
// substitution, redirections, globs, and control flow. On a mismatch the
// test prints the whole digest table as it now is and every script and
// report of the first failing block.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "src/base/strings.h"
#include "src/shell/coreutils.h"
#include "src/shell/shell.h"

namespace help {
namespace {

using Rng = std::mt19937;

size_t Pick(Rng& rng, size_t n) { return rng() % n; }

template <size_t N>
const char* PickOf(Rng& rng, const char* const (&options)[N]) {
  return options[Pick(rng, N)];
}

const char* PickOf(Rng& rng, std::initializer_list<const char*> options) {
  return *(options.begin() + static_cast<long>(Pick(rng, options.size())));
}

// --- Script generator --------------------------------------------------------

constexpr const char* kVars[] = {"x", "y", "z", "s", "i", "j"};
constexpr const char* kLits[] = {"a",  "b",    "ab",    "x1",    "alpha", "one",
                                 "f0", "done", "*",     "?",     "[ab]c", "f?",
                                 "go", "3",    "hello", "beta,"};
constexpr const char* kQuoted[] = {"'sp ace'", "'it''s'", "'*'",  "';|'",
                                   "''",       "'$x'",    "'^'",  "'{'"};

std::string GenScript(Rng& rng, int depth);

std::string GenWord(Rng& rng, int depth) {
  std::string w;
  size_t frags = 1 + Pick(rng, 2);
  for (size_t i = 0; i < frags; i++) {
    if (i > 0) {
      w += "^";
    }
    switch (Pick(rng, depth > 0 ? 5 : 4)) {
      case 0:
      case 1:
        w += PickOf(rng, kLits);
        break;
      case 2:
        w += PickOf(rng, kQuoted);
        break;
      case 3:
        w += (Pick(rng, 4) == 0 ? "$#" : "$") + std::string(PickOf(rng, kVars));
        break;
      default:
        w += "`{" + GenScript(rng, 0) + "}";
        break;
    }
  }
  return w;
}

std::string GenWords(Rng& rng, int depth, size_t max_words) {
  std::string out;
  size_t n = 1 + Pick(rng, max_words);
  for (size_t i = 0; i < n; i++) {
    if (i > 0) {
      out += " ";
    }
    out += GenWord(rng, depth);
  }
  return out;
}

std::string GenRedir(Rng& rng) {
  switch (Pick(rng, 4)) {
    case 0:
      return " > /out/o" + std::to_string(Pick(rng, 3));
    case 1:
      return " >> /out/o" + std::to_string(Pick(rng, 3));
    case 2:
      return " < /data/f" + std::to_string(Pick(rng, 3));
    default:
      return " < /data/missing";  // error path
  }
}

std::string GenSimple(Rng& rng, int depth) {
  std::string cmd;
  // Optional leading assignments (scoped when a command word follows).
  size_t assigns = Pick(rng, 3) == 0 ? 1 + Pick(rng, 2) : 0;
  for (size_t i = 0; i < assigns; i++) {
    cmd += std::string(PickOf(rng, kVars)) + "=" + GenWord(rng, 0) + " ";
  }
  switch (Pick(rng, 12)) {
    case 0:
      cmd += "echo " + GenWords(rng, depth, 3);
      break;
    case 1:
      cmd += "echo -n " + GenWords(rng, depth, 2);
      break;
    case 2:
      cmd += "cat /data/f" + std::to_string(Pick(rng, 3));
      break;
    case 3:
      cmd += "grep " + std::string(PickOf(rng, kLits));
      break;
    case 4:
      cmd += PickOf(rng, {"sort", "uniq", "wc", "head", "tail", "true", "false"});
      break;
    case 5:
      cmd += "~ " + GenWord(rng, 0) + " " + GenWords(rng, 0, 2);
      break;
    case 6:
      cmd += "! " + std::string(PickOf(rng, {"true", "false", "~ a a"}));
      break;
    case 7:
      cmd += PickOf(rng, {"tool0 arg", "tool1", "tool2", "tool0 $x"});
      break;
    case 8:
      cmd += "cd " + std::string(PickOf(rng, {"/", "/data", "/bin", "/out"}));
      break;
    case 9:
      cmd += "touch /out/t" + std::to_string(Pick(rng, 2));
      break;
    case 10:
      cmd += "eval 'echo ev'";
      break;
    default:
      cmd += "echo " + GenWords(rng, depth, 2);
      break;
  }
  if (assigns == 0 && Pick(rng, 4) == 0) {
    cmd += GenRedir(rng);
  }
  return cmd;
}

std::string GenPipeline(Rng& rng, int depth) {
  std::string p = GenSimple(rng, depth);
  size_t stages = Pick(rng, 3);
  for (size_t i = 0; i < stages; i++) {
    p += " | " + std::string(PickOf(rng, {"wc", "sort", "uniq", "grep a", "head", "cat"}));
  }
  return p;
}

std::string GenStatement(Rng& rng, int depth) {
  if (depth <= 0) {
    return GenPipeline(rng, 0);
  }
  switch (Pick(rng, 8)) {
    case 0: {
      std::string s = "if(" + GenPipeline(rng, 0) + "){" + GenScript(rng, depth - 1) + "}";
      if (Pick(rng, 2) == 0) {
        s += " if not {" + GenScript(rng, depth - 1) + "}";
      }
      return s;
    }
    case 1:
      return "for(" + std::string(PickOf(rng, kVars)) + " in " + GenWords(rng, 0, 3) +
             "){" + GenScript(rng, depth - 1) + "}";
    case 2:
      // A latch loop: always terminates, in one pass.
      return "s=go; while(! ~ $s done){" + GenScript(rng, depth - 1) + "; s=done}";
    case 3: {
      std::string s = "switch(" + GenWord(rng, 0) + "){";
      size_t clauses = 1 + Pick(rng, 2);
      for (size_t i = 0; i < clauses; i++) {
        s += "\ncase " + GenWords(rng, 0, 2) + "\n" + GenPipeline(rng, 0);
      }
      return s + "\n}";
    }
    case 4:
      // Function names carry the nesting depth, so a body (generated one
      // level down) can only define and call strictly smaller names —
      // unbounded fn recursion would overflow the evaluator's native stack.
      return "fn f" + std::to_string(depth) + " {" + GenScript(rng, depth - 1) +
             "}\nf" + std::to_string(depth) + " " + GenWords(rng, 0, 2);
    case 5:
      return "{" + GenScript(rng, depth - 1) + "}" + (Pick(rng, 2) == 0 ? GenRedir(rng) : "");
    default:
      return GenPipeline(rng, depth);
  }
}

std::string GenScript(Rng& rng, int depth) {
  std::string s;
  size_t lines = 1 + Pick(rng, depth > 0 ? 3 : 2);
  for (size_t i = 0; i < lines; i++) {
    if (i > 0) {
      s += Pick(rng, 2) == 0 ? "\n" : "; ";
    }
    s += GenStatement(rng, depth);
  }
  return s;
}

// --- Golden harness ----------------------------------------------------------

struct World {
  Vfs vfs;
  CommandRegistry registry;
  ProcTable procs;
  Env env;
  std::string out;
  std::string err;
};

void SetupWorld(World& w) {
  RegisterCoreutils(&w.vfs, &w.registry);
  ASSERT_TRUE(w.vfs.MkdirAll("/out").ok());
  ASSERT_TRUE(w.vfs.MkdirAll("/data").ok());
  ASSERT_TRUE(w.vfs.WriteFile("/data/f0", "alpha\nbeta\ngamma\n").ok());
  ASSERT_TRUE(w.vfs.WriteFile("/data/f1", "one two\nthree\n").ok());
  ASSERT_TRUE(w.vfs.WriteFile("/data/f2", "x\ny\nz\nx\n").ok());
  // Script files so external dispatch (and the file-keyed cache path) gets
  // exercised.
  ASSERT_TRUE(w.vfs.WriteFile("/bin/tool0", "echo tool0 ran $1\n").ok());
  ASSERT_TRUE(w.vfs.WriteFile("/bin/tool1", "cat\n").ok());
  ASSERT_TRUE(w.vfs.WriteFile("/bin/tool2", "grep a\necho t2 $status\n").ok());
  w.env.SetString("home", "/data");
  w.env.Set("z", {"zz", "yy"});
}

void DumpTree(const Node& n, const std::string& path, std::string* out) {
  *out += path;
  if (n.dir()) {
    *out += "/\n";
    for (const auto& [name, child] : n.children()) {
      DumpTree(*child, path + "/" + name, out);
    }
  } else {
    *out += " mtime=" + std::to_string(n.mtime()) + " [" + n.data() + "]\n";
  }
}

std::string RunOneWorld(const std::string& src) {
  World w;
  SetupWorld(w);
  if (::testing::Test::HasFatalFailure()) {
    return "setup failed";
  }
  Shell sh(&w.vfs, &w.registry, &w.procs);
  Io io;
  io.out = &w.out;
  io.err = &w.err;
  auto r = sh.Run(src, &w.env, "/", {"p1", "p2"}, io);

  std::string report;
  report += "ok=" + std::string(r.ok() ? "1" : "0");
  report += " msg=[" + r.message() + "]";
  report += " status=" + std::to_string(r.ok() ? r.value() : -1) + "\n";
  report += "out=[" + w.out + "]\nerr=[" + w.err + "]\nvars:";
  for (const char* v : kVars) {
    report += " " + std::string(v) + "=(";
    for (const std::string& e : w.env.Get(v)) {
      report += e + ",";
    }
    report += ")";
  }
  for (const char* v : {"status", "*", "1", "2", "9", "home"}) {
    report += " " + std::string(v) + "=(";
    for (const std::string& e : w.env.Get(v)) {
      report += e + ",";
    }
    report += ")";
  }
  report += "\nns:\n";
  DumpTree(*w.vfs.root(), "", &report);
  return report;
}

constexpr uint32_t kSeeds = 10000;
constexpr uint32_t kBlock = 100;

// FNV-1a digests of the reports of seeds [100 * i, 100 * i + 100), in order.
// clang-format off
const uint64_t kGolden[kSeeds / kBlock] = {
    0xd3b58e6553833c7bull, 0x7819fe30aa1f9408ull, 0x1745f3b8ea0f9ac5ull, 0x2f9fad1313ff424bull,
    0xba6738ac23a62fecull, 0x3b2f0f0c75c1205aull, 0x3fd2ea706f5224f6ull, 0x2573a407081156b9ull,
    0xf7f3c23e9a3977a9ull, 0x663b6fd7b6825eecull, 0x7ac8178b94fd640full, 0x63b4e39879760531ull,
    0x380cd3372220097bull, 0x365699f20fa47133ull, 0x2bbe9a49bd7d4d1cull, 0x181af85fa874ea09ull,
    0x80e4243c3e6e3882ull, 0xa815e875a4b8201bull, 0x972529e98a66c84eull, 0xef46a9d09deb822full,
    0x742f7a3bcf5f2436ull, 0x0a6dde7b440ed718ull, 0xcae0f94e40119cb5ull, 0x7d4a5c069b0f1f41ull,
    0x8828bee996aeb07bull, 0xccf0451fa00f37e5ull, 0x60233909f8e1888cull, 0x3a60f7300357c92full,
    0xed91e9de273ae774ull, 0x1a92cd7427603a62ull, 0x2eaa8ccbf610d9beull, 0x438818e967347b19ull,
    0xa0cf44a397f8e27dull, 0x00774dc9a7f6efd6ull, 0x590eecb5cf33128cull, 0x100ba57f0640668eull,
    0x81228479159cf602ull, 0x44578180c84920fcull, 0x065bcec578a60aa6ull, 0xc70cc81c46d9d009ull,
    0x31ca36a29ae061a6ull, 0xd7cdac9bb00be7d6ull, 0xb66e7bac17a6d45bull, 0xd42f676eaa709bf8ull,
    0x33689ee2fa054fdaull, 0xe5c186591cfd6f36ull, 0x3a9ddb10d9a7c62full, 0x75953ab16f147d88ull,
    0x0d4c800c40a8e410ull, 0xf7720c0d1cdb090eull, 0xeafb0735d438a21cull, 0xc22236ccf5d252eeull,
    0xb5ef873480f7fa50ull, 0x8f78059318acfd8dull, 0xc7831c24a11f643eull, 0x8150579af3766988ull,
    0x0d596b4b7e80761bull, 0xfe34cd0d4f1ce009ull, 0x3c42dd90e37ddd34ull, 0xfd26d39e6f9aca31ull,
    0x4a19422edf5a65dfull, 0xf174cc2f52d0bdd0ull, 0xf0e428c118ffe404ull, 0x6865de3bb424cd55ull,
    0x0838ed22acc36d42ull, 0xce2e046b4b57248full, 0xbcc2ada357d3d402ull, 0x1d058b5539cc7321ull,
    0xafc46d80cc0c2530ull, 0xe18aa7846e7aae46ull, 0x84639ba4eb71ecf1ull, 0x9e73528af4b09185ull,
    0x6f217c59ad704917ull, 0x0a9fa36b23c9e9a7ull, 0xfac66d44a7e99f06ull, 0xe6c3a5d36367821bull,
    0xaaff1b7a665117fcull, 0x9b0ae2dbc9e95de5ull, 0x18c00d560d45e741ull, 0x149ce0898cbc5ec4ull,
    0x063cc9f273214994ull, 0x3bd32334c597a588ull, 0x05af3c4097f41524ull, 0x3d7e363e46310c7cull,
    0xf93c87efffa83acfull, 0x536b0763aa230a0aull, 0xf5ae5dedda7990f4ull, 0x701110adc3e3347aull,
    0xbc027f1e2027cdf9ull, 0xe57e5be8fda843b9ull, 0xfcf7d8e7aeb334a1ull, 0xe2faa154de4c5204ull,
    0x076b5796e733fcebull, 0xabcb2368624bfb90ull, 0x9509ec92268106d8ull, 0x3b2d3e4511ff2128ull,
    0xd25df5dbb311bc9dull, 0x71cc782a17ca100cull, 0x9fc973e21e040123ull, 0x45ce869cc099d4a2ull,
};
// clang-format on

uint64_t Fnv(std::string_view s, uint64_t h = 1469598103934665603ull) {
  for (unsigned char c : s) {
    h = (h ^ c) * 1099511628211ull;
  }
  return h;
}

std::string ScriptFor(uint32_t seed) {
  Rng rng(seed);
  return GenScript(rng, 2);
}

uint64_t BlockDigest(uint32_t block) {
  uint64_t h = Fnv("");
  for (uint32_t seed = block * kBlock; seed < (block + 1) * kBlock; seed++) {
    h = Fnv(RunOneWorld(ScriptFor(seed)), h);
  }
  return h;
}

std::string Table() {
  std::string table;
  for (uint32_t b = 0; b < kSeeds / kBlock; b++) {
    table += StrFormat("%s0x%016llxull,%s", b % 4 == 0 ? "    " : " ",
                       static_cast<unsigned long long>(BlockDigest(b)),
                       b % 4 == 3 ? "\n" : "");
  }
  return table;
}

void CheckBlocks(uint32_t first_block, uint32_t blocks) {
  for (uint32_t b = first_block; b < first_block + blocks; b++) {
    uint64_t got = BlockDigest(b);
    if (got == kGolden[b]) {
      continue;
    }
    std::string detail;
    for (uint32_t seed = b * kBlock; seed < (b + 1) * kBlock; seed++) {
      std::string src = ScriptFor(seed);
      detail += StrFormat("--- seed %u script:\n", seed) + src + "\n--- report:\n" +
                RunOneWorld(src);
    }
    FAIL() << "block " << b << " (seeds " << b * kBlock << ".." << (b + 1) * kBlock - 1
           << ") digest " << StrFormat("0x%016llx", static_cast<unsigned long long>(got))
           << " want " << StrFormat("0x%016llx", static_cast<unsigned long long>(kGolden[b]))
           << "\ncurrent table:\n" << Table() << "first failing block:\n" << detail;
  }
}

// 10k randomized scripts, split so the shards run in parallel under ctest.
TEST(ShellDifferential, RandomScriptsShard0) { CheckBlocks(0, 25); }
TEST(ShellDifferential, RandomScriptsShard1) { CheckBlocks(25, 25); }
TEST(ShellDifferential, RandomScriptsShard2) { CheckBlocks(50, 25); }
TEST(ShellDifferential, RandomScriptsShard3) { CheckBlocks(75, 25); }

// --- Directed quoting and glob edge cases ------------------------------------

class ShellEdgeTest : public ::testing::Test {
 protected:
  // Runs `src` in /data of a fresh world and checks its stdout.
  void ExpectOut(const std::string& src, const std::string& want) {
    World w;
    SetupWorld(w);
    Shell sh(&w.vfs, &w.registry, &w.procs);
    Io io;
    io.out = &w.out;
    io.err = &w.err;
    auto r = sh.Run(src, &w.env, "/data", {}, io);
    ASSERT_TRUE(r.ok()) << r.message() << " running: " << src;
    EXPECT_EQ(w.out, want) << src;
  }
};

TEST_F(ShellEdgeTest, EmptyQuotedWordSurvives) {
  ExpectOut("echo '' end", " end\n");
  ExpectOut("echo a^'' b", "a b\n");
}

TEST_F(ShellEdgeTest, QuotedFragmentSuppressesGlobForWholeWord) {
  ExpectOut("echo f*", "/data/f0 /data/f1 /data/f2\n");
  ExpectOut("echo 'f'^*", "f*\n");  // one quoted frag: the whole word skips glob
  ExpectOut("echo 'f*'", "f*\n");
}

TEST_F(ShellEdgeTest, GlobClasses) {
  ExpectOut("echo f[02]", "/data/f0 /data/f2\n");
  // An unquoted ^ is the concatenation operator even inside a bracket, so
  // f[^0] lexes as f[ ^ 0] and globs as f[0]; negation has to be quoted,
  // where it reaches GlobMatch intact (exercised through ~).
  ExpectOut("echo f[^0]", "/data/f0\n");
  ExpectOut("if(~ fz 'f[^0]'){echo negated}", "negated\n");
  ExpectOut("echo f?", "/data/f0 /data/f1 /data/f2\n");
  ExpectOut("echo q*", "q*\n");  // no match: pattern passes through
}

TEST_F(ShellEdgeTest, UnclosedBracketIsLiteral) {
  ExpectOut("echo [ab", "[ab\n");
}

TEST_F(ShellEdgeTest, ConcatDistribution) {
  ExpectOut("v=(1 2 3); echo a^$v", "a1 a2 a3\n");
  ExpectOut("v=(1 2); w=(x y); echo $v^$w", "1x 2y\n");
  ExpectOut("v=(); echo a^$v b", "a b\n");  // lenient empty side
}

TEST_F(ShellEdgeTest, QuoteEscapes) {
  ExpectOut("echo 'it''s'", "it's\n");
  ExpectOut("echo 'a;b|c'", "a;b|c\n");
  ExpectOut("echo '$x'", "$x\n");
}

TEST_F(ShellEdgeTest, RedirTargetsNeverGlob) {
  // A glob-looking redirection target is taken literally.
  ExpectOut("echo hi > /out/o'*'; cat '/out/o*'", "hi\n");
}

}  // namespace
}  // namespace help
