// Cross-module integration: whole-system flows that cut across the shell,
// file server, window system, browser and tools at once.
#include <gtest/gtest.h>

#include "src/base/strings.h"
#include "src/fs/server.h"
#include "src/tools/demo.h"

namespace help {
namespace {

// A complete external application session over 9P: a "remote process"
// builds a browser-style window without ever touching the Help API.
TEST(Integration, RemoteProcessBuildsAWindowOver9P) {
  PaperSession s;
  Help& h = s.help;
  NinepServer& server = h.ninep();
  NinepClient client(server.TransportFor(server.OpenSession()));
  ASSERT_TRUE(client.Connect("remote").ok());

  // Create a window, read back its number.
  auto ctl = client.ReadFile("/mnt/help/new/ctl");
  ASSERT_TRUE(ctl.ok());
  std::string id(TrimSpace(ctl.value()));
  std::string base = "/mnt/help/" + id;

  // Title it, fill it, select a range — all through files.
  ASSERT_TRUE(client.WriteFile(base + "/ctl", "tag /usr/rob/src/help/ report Close!").ok());
  ASSERT_TRUE(client.AppendFile(base + "/bodyapp", "exec.c:213\nexec.c:252\n").ok());
  ASSERT_TRUE(client.WriteFile(base + "/ctl", "select 0 10").ok());

  Window* w = h.page().FindById(static_cast<int>(ParseInt(id)));
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->ContextDir(), "/usr/rob/src/help");
  EXPECT_EQ(w->body().sel, (Selection{0, 10}));

  // The user can now Open from the remote-built window: the context rules
  // treat it exactly like a local one.
  h.SetCurrent(&w->body());
  w->body().sel = {0, 0};  // point into "exec.c:213"
  ASSERT_TRUE(h.ExecuteText("Open", w).ok());
  Window* execc = h.WindowForFile("/usr/rob/src/help/exec.c");
  ASSERT_NE(execc, nullptr);
  Selection sel = execc->body().sel;
  EXPECT_EQ(execc->body().text->Utf8Range(sel.q0, sel.q1), "\tn = 0;\n");
}

// The paper's pipeline examples: cp and grep against window bodies.
TEST(Integration, ShellCommandsAgainstWindowBodies) {
  PaperSession s;
  Help& h = s.help;
  auto w = h.OpenFile("/usr/rob/src/help/errs.c", "/", nullptr);
  int id = w.value()->id();
  Env env;
  std::string out;
  std::string err;
  Io io;
  io.out = &out;
  io.err = &err;
  // "cp /mnt/help/7/body file"
  auto r = h.shell().Run(StrFormat("cp /mnt/help/%d/body /tmp/snapshot", id), &env,
                         "/", {}, io);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(h.vfs().ReadFile("/tmp/snapshot").value(), w.value()->body().text->Utf8());
  // "grep pattern /mnt/help/7/body"
  out.clear();
  r = h.shell().Run(StrFormat("grep -n textinsert /mnt/help/%d/body", id), &env, "/",
                    {}, io);
  ASSERT_TRUE(r.ok());
  EXPECT_NE(out.find("34: "), std::string::npos) << out;
}

// The index file reflects window lifecycle, as scripts depend on.
TEST(Integration, IndexTracksLifecycle) {
  PaperSession s;
  Help& h = s.help;
  auto before = h.vfs().ReadFile("/mnt/help/index").value();
  auto w = h.OpenFile("/usr/rob/src/help/dat.h", "/", nullptr);
  auto during = h.vfs().ReadFile("/mnt/help/index").value();
  EXPECT_EQ(before.find("dat.h"), std::string::npos);
  EXPECT_NE(during.find("dat.h"), std::string::npos);
  h.CloseWindow(w.value());
  auto after = h.vfs().ReadFile("/mnt/help/index").value();
  EXPECT_EQ(after.find("dat.h"), std::string::npos);
}

// A user-authored tool script using control flow: classify the pointed-at
// file by suffix and open a window with the verdict.
TEST(Integration, ControlFlowToolScript) {
  PaperSession s;
  Help& h = s.help;
  h.vfs().MkdirAll("/help/kind");
  h.vfs().WriteFile("/help/kind/stf", "kind\n");
  h.vfs().WriteFile(
      "/help/kind/kind",
      "eval `{help/parse -c}\n"
      "x=`{cat /mnt/help/new/ctl}\n"
      "echo tag $file^': kind Close!' > /mnt/help/$x/ctl\n"
      "switch($file){\n"
      "case *.c\n"
      "\techo C source > /mnt/help/$x/bodyapp\n"
      "case *.h\n"
      "\techo C header > /mnt/help/$x/bodyapp\n"
      "case *\n"
      "\techo something else > /mnt/help/$x/bodyapp\n"
      "}\n");
  auto w = h.OpenFile("/usr/rob/src/help/dat.h", "/", nullptr);
  w.value()->body().sel = {0, 0};
  h.SetCurrent(&w.value()->body());
  ASSERT_TRUE(h.ExecuteText("/help/kind/kind", w.value()).ok());
  Window* out = nullptr;
  for (Window* cand : h.AllWindows()) {
    if (cand->tag().text->Utf8().find(": kind") != std::string::npos) {
      out = cand;
    }
  }
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->body().text->Utf8(), "C header\n");
}

// Undo across program writes: user edits survive a Get! via Undo history
// reset (documented behaviour: program writes clear undo).
TEST(Integration, EditUndoAcrossToolRuns) {
  PaperSession s;
  Help& h = s.help;
  auto w = h.OpenFile("/usr/rob/src/help/errs.c", "/", nullptr);
  std::string original = w.value()->body().text->Utf8();
  w.value()->body().sel = {0, 0};
  h.SetCurrent(&w.value()->body());
  h.Type("EDIT");
  ASSERT_TRUE(h.ExecuteText("Undo", w.value()).ok());
  EXPECT_EQ(w.value()->body().text->Utf8(), original);
}

}  // namespace
}  // namespace help
