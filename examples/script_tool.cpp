// "We would not need to write any user interface software."
//
// This example builds a brand-new GUI application at runtime as a ten-line
// shell script — a word-count tool that opens a window reporting statistics
// about whatever window the user is pointing at — then drives it with two
// mouse gestures. It also shows a second client doing the same kind of work
// over the 9P protocol, the way an external process would.
#include <cstdio>

#include "src/base/strings.h"
#include "src/fs/server.h"
#include "src/tools/demo.h"

using namespace help;

int main() {
  PaperDemo demo;
  Help& h = demo.help();
  demo.Fig04_Boot();

  // --- 1. A new tool, no UI code: just a script over /mnt/help -------------
  h.vfs().MkdirAll("/help/stats");
  h.vfs().WriteFile("/help/stats/stf", "count\n");
  // help/parse reads $helpsel; the file named in the pointed-at window's tag
  // supplies the data; a fresh window (placed automatically) shows the result.
  h.vfs().WriteFile(
      "/help/stats/count",
      "eval `{help/parse -c}\n"
      "x=`{cat /mnt/help/new/ctl}\n"
      "{\n"
      "echo tag $file^': statistics Close!'\n"
      "} > /mnt/help/$x/ctl\n"
      "wc $file > /mnt/help/$x/bodyapp\n");

  // Load the new tool the same way boot loads the built-in ones.
  h.OpenFile("/help/stats/stf", "/", nullptr, 1);

  // --- 2. Use it: point at a file window, middle-click `count` --------------
  h.ExecuteText("Open /usr/rob/src/help/exec.c", nullptr);
  Window* execc = h.WindowForFile("/usr/rob/src/help/exec.c");
  h.MouseClick(demo.Locate(execc, "lookup"));
  Window* stats_stf = h.WindowForFile("/help/stats/stf");
  h.MouseExecWord(demo.Locate(stats_stf, "count"));

  Window* out = demo.FindWindowTagged(": statistics");
  std::printf("the new tool's window (built from a 6-line script):\n");
  std::printf("tag:  %s\n", out->tag().text->Utf8().c_str());
  std::printf("body: %s\n", out->body().text->Utf8().c_str());

  // --- 3. The same interface, from an external process over 9P --------------
  NinepServer& server = h.ninep();
  NinepClient client(server.TransportFor(server.OpenSession()));
  client.Connect("external-tool");
  // Create a window purely over the protocol...
  auto ctl = client.ReadFile("/mnt/help/new/ctl");
  std::string winid(TrimSpace(ctl.value()));
  // ...label it and fill it with data gathered over the same connection.
  client.WriteFile("/mnt/help/" + winid + "/ctl", "tag remote-report Close!");
  auto index = client.ReadFile("/mnt/help/index");
  client.AppendFile("/mnt/help/" + winid + "/bodyapp",
                    "windows on this screen:\n" + index.value());
  Window* remote = h.page().FindById(static_cast<int>(ParseInt(winid)));
  std::printf("\nwindow %s created over 9P; body:\n%s\n", winid.c_str(),
              remote->body().text->Utf8().c_str());
  std::printf("9P messages used: %llu\n",
              static_cast<unsigned long long>(client.rpcs()));

  std::printf("\nfinal screen:\n%s", h.Render().c_str());
  return 0;
}
