// Script cache and evaluator tests: the process-wide parsed-script cache
// (hits, misses, invalidation, LRU, error handling, the eval and mk paths),
// frozen results of core scripts, and the recursion limit.
#include <gtest/gtest.h>

#include "src/obs/trace.h"
#include "src/shell/coreutils.h"
#include "src/shell/mk.h"
#include "src/shell/scriptcache.h"
#include "src/shell/shell.h"

namespace help {
namespace {

uint64_t CounterValue(const char* name) {
  return obs::Registry::Global().GetCounter(name)->value();
}

class ShellVmTest : public ::testing::Test {
 protected:
  ShellVmTest() : shell_(&vfs_, &registry_, &procs_) {
    RegisterCoreutils(&vfs_, &registry_);
    RegisterMk(&vfs_, &registry_);
    ShellScriptCache::Global().Clear();
  }

  std::string Run(std::string_view src, int* status = nullptr) {
    std::string out;
    err_.clear();
    Io io;
    io.out = &out;
    io.err = &err_;
    auto r = shell_.Run(src, &env_, "/", {}, io);
    EXPECT_TRUE(r.ok()) << r.message() << " running: " << src;
    if (status != nullptr) {
      *status = r.ok() ? r.value() : -1;
    }
    return out;
  }

  Vfs vfs_;
  CommandRegistry registry_;
  ProcTable procs_;
  Env env_;
  Shell shell_;
  std::string err_;
};

TEST_F(ShellVmTest, SourceCacheHitsOnRepeatedRun) {
  uint64_t miss0 = CounterValue("shell.compile_cache_miss");
  uint64_t hit0 = CounterValue("shell.compile_cache_hit");
  EXPECT_EQ(Run("echo cached script one"), "cached script one\n");
  EXPECT_EQ(CounterValue("shell.compile_cache_miss"), miss0 + 1);
  EXPECT_EQ(Run("echo cached script one"), "cached script one\n");
  EXPECT_EQ(Run("echo cached script one"), "cached script one\n");
  EXPECT_EQ(CounterValue("shell.compile_cache_miss"), miss0 + 1);  // no reparse
  EXPECT_GE(CounterValue("shell.compile_cache_hit"), hit0 + 2);
}

TEST_F(ShellVmTest, EvalHitsTheSourceCache) {
  uint64_t miss0 = CounterValue("shell.compile_cache_miss");
  uint64_t hit0 = CounterValue("shell.compile_cache_hit");
  EXPECT_EQ(Run("eval 'echo x'; eval 'echo x'"), "x\nx\n");
  // The script and the eval'd text parse once each; the second eval hits.
  EXPECT_EQ(CounterValue("shell.compile_cache_miss"), miss0 + 2);
  EXPECT_EQ(CounterValue("shell.compile_cache_hit"), hit0 + 1);
}

TEST_F(ShellVmTest, FileCacheValidatesSignatureAndFallsBackToSourceLayer) {
  ASSERT_TRUE(vfs_.WriteFile("/bin/tool", "echo version one\n").ok());
  auto p1 = ShellScriptCache::Global().GetFile(vfs_, "/bin/tool");
  ASSERT_TRUE(p1.ok());
  auto p2 = ShellScriptCache::Global().GetFile(vfs_, "/bin/tool");
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(p1.value().get(), p2.value().get());  // signature hit, same tree

  // An edit invalidates the file entry and parses the new text.
  ASSERT_TRUE(vfs_.WriteFile("/bin/tool", "echo version two\n").ok());
  auto p3 = ShellScriptCache::Global().GetFile(vfs_, "/bin/tool");
  ASSERT_TRUE(p3.ok());
  EXPECT_NE(p3.value().get(), p1.value().get());

  // Restoring the old contents bumps the signature again, but the
  // content-addressed source layer still holds the original tree.
  ASSERT_TRUE(vfs_.WriteFile("/bin/tool", "echo version one\n").ok());
  auto p4 = ShellScriptCache::Global().GetFile(vfs_, "/bin/tool");
  ASSERT_TRUE(p4.ok());
  EXPECT_EQ(p4.value().get(), p1.value().get());
}

TEST_F(ShellVmTest, FileKeysDoNotAliasAcrossNamespaces) {
  // Two fresh namespaces produce identical qids and mtimes for different
  // scripts; the vfs id in the file key keeps their entries apart.
  Vfs a;
  Vfs b;
  ASSERT_TRUE(a.WriteFile("/t", "echo from a\n").ok());
  ASSERT_TRUE(b.WriteFile("/t", "echo from b\n").ok());
  auto pa = ShellScriptCache::Global().GetFile(a, "/t");
  auto pb = ShellScriptCache::Global().GetFile(b, "/t");
  ASSERT_TRUE(pa.ok());
  ASSERT_TRUE(pb.ok());
  EXPECT_NE(pa.value().get(), pb.value().get());
}

TEST_F(ShellVmTest, ErrorsAreNeverCached) {
  uint64_t miss0 = CounterValue("shell.compile_cache_miss");
  auto r1 = ShellScriptCache::Global().Get("echo 'unterminated");
  EXPECT_FALSE(r1.ok());
  auto r2 = ShellScriptCache::Global().Get("echo 'unterminated");
  EXPECT_FALSE(r2.ok());
  EXPECT_EQ(r1.message(), r2.message());
  EXPECT_EQ(CounterValue("shell.compile_cache_miss"), miss0);  // never recorded
}

TEST_F(ShellVmTest, LruEvictsOldestEntry) {
  ShellScriptCache::Global().Clear();
  for (size_t i = 0; i < ShellScriptCache::kCapacity + 8; i++) {
    auto r = ShellScriptCache::Global().Get("echo unique-" + std::to_string(i));
    ASSERT_TRUE(r.ok());
  }
  EXPECT_EQ(ShellScriptCache::Global().size(), ShellScriptCache::kCapacity);
  // The first entries fell off; re-requesting one parses it again.
  uint64_t miss0 = CounterValue("shell.compile_cache_miss");
  ASSERT_TRUE(ShellScriptCache::Global().Get("echo unique-0").ok());
  EXPECT_EQ(CounterValue("shell.compile_cache_miss"), miss0 + 1);
  // The most recent entry is still resident.
  uint64_t hit0 = CounterValue("shell.compile_cache_hit");
  ASSERT_TRUE(
      ShellScriptCache::Global()
          .Get("echo unique-" + std::to_string(ShellScriptCache::kCapacity + 7))
          .ok());
  EXPECT_EQ(CounterValue("shell.compile_cache_hit"), hit0 + 1);
}

TEST_F(ShellVmTest, FunctionOutlivesTheRunThatDefinedIt) {
  // A fn body is a subtree of its script's cached parse; the function table
  // keeps it alive after the script has left the cache.
  Run("fn greet { echo hi $1 }");
  ShellScriptCache::Global().Clear();
  EXPECT_EQ(Run("greet rob; greet world"), "hi rob\nhi world\n");
}

TEST_F(ShellVmTest, EvaluatorsAgreeOnCoreScripts) {
  // Each script's full result in a fresh world, frozen: ok, error message,
  // status, stdout and stderr.
  struct Case {
    const char* src;
    const char* want;
  };
  const Case kCases[] = {
      {"echo a b; echo c", "ok=1 msg= status=0\nout:a b\nc\n\nerr:"},
      {"x=1 y=2 echo $x$y; echo $x", "ok=1 msg= status=0\nout:12\n\n\nerr:"},
      {"x=(p q r); echo $#x $x(2)", "ok=0 msg=rc: unexpected '(' status=-1\nout:\nerr:"},
      {"if(~ a a){echo yes} if not {echo no}", "ok=1 msg= status=0\nout:yes\n\nerr:"},
      {"for(i in 1 2 3){echo n$i} | wc",
       "ok=1 msg= status=0\nout:      1       1       3\n      1       1       3\n"
       "      1       1       3\n\nerr:"},
      {"w=go; while(! ~ $w done){echo tick; w=done}", "ok=1 msg= status=0\nout:tick\n\nerr:"},
      {"switch(b){case a\necho first\ncase b\necho second}",
       "ok=1 msg= status=0\nout:second\n\nerr:"},
      {"fn f { echo f$1 }; f x; f y", "ok=1 msg= status=0\nout:fx\nfy\n\nerr:"},
      {"echo `{echo nested `{echo deep}}", "ok=1 msg= status=0\nout:nested deep\n\nerr:"},
      {"cat < /bin/true | wc > /count; cat /count",
       "ok=1 msg= status=0\nout:      1       2      19\n\nerr:"},
      {"echo one > /f; echo two >> /f; cat /f", "ok=1 msg= status=0\nout:one\ntwo\n\nerr:"},
      {"echo $status; false; echo $status; true; echo $status",
       "ok=1 msg= status=0\nout:\n1\n0\n\nerr:"},
      {"ls /bin | grep true", "ok=1 msg= status=0\nout:/bin/true\n\nerr:"},
      {"echo a'b c'd", "ok=1 msg= status=0\nout:ab cd\n\nerr:"},
      {"missingcmd; echo $status",
       "ok=1 msg= status=0\nout:127\n\nerr:missingcmd: file does not exist\n"},
      {"eval 'echo evaluated'", "ok=1 msg= status=0\nout:evaluated\n\nerr:"},
      {"exit 3; echo unreachable", "ok=1 msg= status=3\nout:\nerr:"},
  };
  for (const Case& c : kCases) {
    struct World {
      Vfs vfs;
      CommandRegistry registry;
      ProcTable procs;
      Env env;
      std::string out, err;
    };
    World w;
    RegisterCoreutils(&w.vfs, &w.registry);
    Shell sh(&w.vfs, &w.registry, &w.procs);
    Io io;
    io.out = &w.out;
    io.err = &w.err;
    auto r = sh.Run(c.src, &w.env, "/", {}, io);
    std::string got = "ok=" + std::string(r.ok() ? "1" : "0") + " msg=" + r.message() +
                      " status=" + std::to_string(r.ok() ? r.value() : -1) +
                      "\nout:" + w.out + "\nerr:" + w.err;
    EXPECT_EQ(got, c.want) << "running: " << c.src;
  }
}

TEST_F(ShellVmTest, MkRecipesRouteThroughCompileCache) {
  ASSERT_TRUE(vfs_
                  .WriteFile("/mkfile",
                             "all: a b\n"
                             "a:\n\techo building a > /a.out\n"
                             "b:\n\techo building b > /b.out\n")
                  .ok());
  uint64_t recipes0 = CounterValue("shell.mk_recipe");
  Run("mk all");
  EXPECT_EQ(CounterValue("shell.mk_recipe"), recipes0 + 2);

  // Re-running after removing the outputs replays the same recipe text: the
  // script cache serves hits and nothing parses again.
  ASSERT_TRUE(vfs_.Remove("/a.out").ok());
  ASSERT_TRUE(vfs_.Remove("/b.out").ok());
  uint64_t miss0 = CounterValue("shell.compile_cache_miss");
  uint64_t hit0 = CounterValue("shell.compile_cache_hit");
  Run("mk all");
  EXPECT_EQ(CounterValue("shell.mk_recipe"), recipes0 + 4);
  EXPECT_GE(CounterValue("shell.compile_cache_hit"), hit0 + 2);
  EXPECT_EQ(CounterValue("shell.compile_cache_miss"), miss0);
}

TEST_F(ShellVmTest, DepthLimitAndErrorOrderingMatchTreeWalker) {
  // A self-recursive script trips the recursion guard.
  ASSERT_TRUE(vfs_.WriteFile("/bin/loop", "loop\n").ok());
  int status = 0;
  Run("loop", &status);
  EXPECT_EQ(status, 1);
  EXPECT_NE(err_.find("rc: script recursion too deep"), std::string::npos) << err_;

  // At the limit, a script that does not parse reports its parse error, not
  // the recursion error.
  ASSERT_TRUE(vfs_.WriteFile("/bin/bad", "echo 'unterminated\n").ok());
  ExecContext ctx;
  ctx.vfs = &vfs_;
  ctx.registry = &registry_;
  ctx.env = &env_;
  ctx.depth = 32;
  for (const char* tool : {"/bin/bad", "/bin/loop"}) {
    std::string out, err;
    Io io;
    io.out = &out;
    io.err = &err;
    EXPECT_EQ(shell_.RunArgv(ctx, {tool}, io), 1) << tool;
    bool deep = err.find("recursion too deep") != std::string::npos;
    EXPECT_EQ(deep, std::string(tool) == "/bin/loop") << tool << " err: " << err;
  }
}

}  // namespace
}  // namespace help
