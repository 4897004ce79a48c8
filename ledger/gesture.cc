// gesture: the paper's debugging walkthrough (Figures 5 to 12) replayed with
// mouse gestures on a freshly booted PaperDemo each iteration. An op is one
// step: locating its targets on screen, its clicks and sweeps, and the
// render the user then sees. headers, messages, stack, uses and mk are rc
// scripts over /mnt/help, so this workload also covers the tool-script path.
//
// Walks differ in which stack-trace coordinate Figure 8 opens and which uses
// line Figure 11 opens before exec.c:213. A round walks every pair once, in
// an order the seed picks. The steps of one walk form a dependency chain
// (each needs the windows the previous one made), so their order is fixed.
#include <string>
#include <vector>

#include "ledger/ledger.h"
#include "src/proc/proc.h"
#include "src/text/address.h"
#include "src/tools/demo.h"

namespace ledger {
namespace {

using help::Help;
using help::PaperDemo;
using help::Point;
using help::Window;

constexpr const char* kSrcDir = "/usr/rob/src/help";

struct Coord {
  const char* file;
  const char* line;
  std::string Needle() const { return std::string(file) + ":" + line; }
  std::string Path() const { return std::string(kSrcDir) + "/" + file; }
};

// Coordinates in the Figure 7 trace, any of which Figure 8 may open.
const Coord kStackCoords[] = {{"text.c", "32"},  {"errs.c", "34"},
                              {"exec.c", "101"}, {"exec.c", "207"},
                              {"ctrl.c", "331"}, {"ctrl.c", "320"}};
// uses lines Figure 11 may open before exec.c:213.
const Coord kUsesCoords[] = {{"help.c", "35"}, {"dat.h", "136"}, {"exec.c", "252"}};
// The line Figure 11 finally opens and Figure 12 cuts.
const Coord kExec213{"exec.c", "213"};

const char* const kUsesBody = "./dat.h:136\nexec.c:213\nexec.c:252\nhelp.c:35\n";

thread_local int tool_depth = 0;

// Times every registered native command by wrapping its registry entry. A
// command that runs another (mk runs vc) counts once, as the outer one.
void WrapTools(Help* h, SpanSink* sink) {
  for (const char* pattern : {"/bin/*", "/bin/*/*"}) {
    for (const std::string& path : help::GlobExpand(h->vfs(), "/", pattern)) {
      const help::NativeCommand* fn = h->registry().Find(path);
      if (fn == nullptr) {
        continue;
      }
      help::NativeCommand inner = *fn;
      h->registry().Register(
          nullptr, path,
          [inner, sink](help::ExecContext& ctx, const std::vector<std::string>& argv,
                        help::Io& io) {
            if (tool_depth > 0) {
              return inner(ctx, argv, io);
            }
            tool_depth++;
            uint64_t t0 = NowNs();
            int rc = inner(ctx, argv, io);
            sink->Add(kShellRun, NowNs() - t0);
            tool_depth--;
            return rc;
          });
    }
  }
}

size_t Count(const std::string& s, const std::string& needle) {
  size_t n = 0;
  for (size_t pos = s.find(needle); pos != std::string::npos; pos = s.find(needle, pos + 1)) {
    n++;
  }
  return n;
}

// One walkthrough on one booted demo.
class Walk {
 public:
  Walk(PaperDemo* demo, PaperDemo* shadow, SpanSink* sink, Phase* ph)
      : demo_(demo), h_(demo->help()), shadow_(shadow), sink_(sink), ph_(ph) {}

  void Run(const Coord& fig8, const Coord& fig11) {
    Window* mail_stf = demo_->FindWindowTagged("/help/mail/stf");
    Window* db_stf = demo_->FindWindowTagged("/help/db/stf");
    Window* edit_stf = demo_->FindWindowTagged("/help/edit/stf");
    Window* cbr_stf = demo_->FindWindowTagged("/help/cbr/stf");

    Step([&] { Exec(demo_->Locate(mail_stf, "headers")); }, nullptr,
         [&] { return demo_->FindWindowTagged("/mail/box/rob/mbox") != nullptr; });

    Step(
        [&] {
          h_.MouseClick(demo_->Locate(demo_->FindWindowTagged("/mail/box/rob/mbox"), "2 sean"));
          Exec(demo_->Locate(mail_stf, "messages"));
        },
        nullptr, [&] { return demo_->FindWindowTagged("From sean") != nullptr; });

    Step(
        [&] {
          h_.MouseClick(demo_->Locate(demo_->FindWindowTagged("From sean"), "176153"));
          Exec(demo_->Locate(db_stf, "stack"));
        },
        nullptr,
        [&] {
          // Figure 7: the whole adb trace, verbatim.
          Window* w = demo_->FindWindowTagged("176153 stack");
          return w != nullptr &&
                 w->body().text->Utf8().find(help::AdbStack(help::MakePaperCrashImage())) !=
                     std::string::npos;
        });

    Window* stack = demo_->FindWindowTagged("176153 stack");
    Step(
        [&] {
          h_.MouseClick(demo_->Locate(stack, fig8.Needle()));
          Exec(demo_->Locate(edit_stf, "Open"));
        },
        &fig8, [&] { return LineSelected(fig8); });

    Step(
        [&] {
          Window* opened = h_.WindowForFile(fig8.Path());
          if (opened != nullptr) {
            Exec(demo_->Locate(opened, "Close!"));
          }
          h_.MouseClick(demo_->Locate(stack, "exec.c:252"));
          Exec(demo_->Locate(edit_stf, "Open"));
        },
        &kUsesCoords[2], [&] { return SelectedText("exec.c") == "\terrs((uchar*)n);\n"; });

    Step(
        [&] {
          Window* execc = h_.WindowForFile(kExec213.Path());
          Point cast = demo_->Locate(execc, "(uchar*)n");
          h_.MouseClick({cast.x + 8, cast.y});  // the n itself
          Point u = demo_->Locate(cbr_stf, "uses *.c");
          Span s(sink_, kExec);
          h_.MouseExec(u, {u.x + 8, u.y});
        },
        nullptr,
        [&] {
          // Figure 10: exactly the four uses lines.
          Window* w = demo_->FindWindowTagged(" uses Close!");
          return w != nullptr && w->body().text->Utf8() == kUsesBody;
        });

    Step(
        [&] {
          Window* uses = demo_->FindWindowTagged(" uses Close!");
          h_.MouseClick(demo_->Locate(uses, fig11.Needle()));
          Exec(demo_->Locate(edit_stf, "Open"));
          h_.MouseClick(demo_->Locate(uses, "exec.c:213"));
          Exec(demo_->Locate(edit_stf, "Open"));
        },
        &kExec213,
        [&] {
          return (std::string_view(fig11.file) == kExec213.file || LineSelected(fig11)) &&
                 SelectedText("exec.c") == "\tn = 0;\n";
        });

    Step(
        [&] {
          Window* execc = h_.WindowForFile(kExec213.Path());
          Exec(demo_->Locate(edit_stf, "Cut"));
          Exec(demo_->Locate(execc, "Put!"));
          Exec(demo_->Locate(cbr_stf, "mk"));
        },
        nullptr,
        [&] {
          // Figure 12: the line is gone from disk and mk rebuilt only exec.c.
          auto disk = h_.vfs().ReadFile(kExec213.Path());
          if (!disk.ok() ||
              disk.value().find("Xdie1(int argc, char *argv[], Page *page, Text *curt)\n{\n}") ==
                  std::string::npos) {
            return false;
          }
          for (Window* w : h_.AllWindows()) {
            std::string out = w->body().text->Utf8();
            if (out.find("vl -o help") != std::string::npos) {
              return Count(out, "vc -w ") == 1 && Count(out, "vc -w exec.c") == 1;
            }
          }
          return false;
        });
  }

  uint64_t wall_ns() const { return wall_ns_; }
  uint64_t cpu_ns() const { return cpu_ns_; }

 private:
  // Times one step (gestures, then the render), then checks its output
  // outside the timed interval and, in traced runs, probes the layers.
  template <typename Gestures, typename Check>
  void Step(Gestures gestures, const Coord* opened, Check check) {
    uint64_t c0 = ProcessCpuNs();
    uint64_t t0 = NowNs();
    {
      Span step(sink_, kStep);
      gestures();
      Span render(sink_, kRender);
      h_.Render(/*annotated=*/true);
    }
    uint64_t t1 = NowNs();
    uint64_t c1 = ProcessCpuNs();
    ph_->attempted++;
    ph_->lat_ns.push_back(static_cast<uint32_t>(std::min<uint64_t>(t1 - t0, UINT32_MAX)));
    wall_ns_ += t1 - t0;
    cpu_ns_ += c1 - c0;
    if (!check()) {
      ph_->Fail("gesture: step " + std::to_string(step_) + " output is wrong");
    }
    step_++;
    if (sink_ != nullptr) {
      Probe(opened);
    }
  }

  void Exec(Point p) {
    Span s(sink_, kExec);
    h_.MouseExecWord(p);
  }

  // The layers a step reaches inside Help, called directly on the same
  // inputs: window lookup and relayout of the newest window, and for Open
  // steps the address evaluation and (on a second demo, so this walk's
  // screen is untouched) the window placement.
  void Probe(const Coord* opened) {
    std::vector<Window*> all;
    {
      Span s(sink_, kWinLookup);
      all = h_.AllWindows();
    }
    if (!all.empty()) {
      Span s(sink_, kRelayout);
      all.back()->Relayout();
    }
    if (opened == nullptr) {
      return;
    }
    if (Window* w = h_.WindowForFile(opened->Path())) {
      Span s(sink_, kAddress);
      (void)help::EvalAddress(*w->body().text, opened->line);
      (void)help::EvalAddress(*w->body().text, "/#include/");
    }
    help::Result<Window*> placed = help::Status::Error("unplaced");
    {
      Span s(sink_, kPlace);
      placed = shadow_->help().OpenFile(opened->Needle(), kSrcDir, nullptr);
    }
    if (placed.ok()) {
      shadow_->help().CloseWindow(placed.value());
    }
  }

  std::string SelectedText(const char* file) {
    Window* w = h_.WindowForFile(std::string(kSrcDir) + "/" + file);
    if (w == nullptr) {
      return "";
    }
    help::Selection sel = w->body().sel;
    return w->body().text->Utf8Range(sel.q0, sel.q1);
  }

  bool LineSelected(const Coord& c) {
    Window* w = h_.WindowForFile(c.Path());
    if (w == nullptr || w->body().sel.null()) {
      return false;
    }
    return w->body().text->LineAt(w->body().sel.q0) == std::stoul(c.line);
  }

  PaperDemo* demo_;
  Help& h_;
  PaperDemo* shadow_;
  SpanSink* sink_;
  Phase* ph_;
  int step_ = 5;  // the figure number
  uint64_t wall_ns_ = 0;  // this walk's steps
  uint64_t cpu_ns_ = 0;
};

class Gesture : public Workload {
 public:
  explicit Gesture(uint64_t seed) : rng_(seed) {}

  // One round, checked: the first walks of a process are 10-20% slower
  // than the rest, and the round compiles every script the walks run.
  bool Setup(std::string* why) override {
    Phase warm;
    Round(nullptr, nullptr, &warm);
    if (warm.failed > 0) {
      *why = warm.first_error;
      return false;
    }
    return true;
  }

  // Whole rounds until `seconds` have passed; each round is one slice.
  Phase Run(double seconds, bool trace) override {
    Phase ph;
    SpanSink sink;
    std::unique_ptr<PaperDemo> shadow;
    if (trace) {
      shadow = std::make_unique<PaperDemo>();
    }
    Counters c0 = Counters::Read();
    const uint64_t end = NowNs() + static_cast<uint64_t>(seconds * 1e9);
    while (NowNs() < end) {
      Round(trace ? &sink : nullptr, shadow.get(), &ph);
    }
    ph.delta = Counters::Read() - c0;
    ph.layers = sink.table();
    ph.traced_ops = trace ? ph.attempted : 0;
    return ph;
  }

  int Parent(Layer l) const override {
    switch (l) {
      case kExec:
      case kRender:
        return kStep;
      case kShellRun:
        return kExec;
      default:
        return -1;
    }
  }

 private:
  // One walk for every pair of Figure 8 and Figure 11 coordinates, in seeded
  // order, so every round does the same work and its median is steady.
  void Round(SpanSink* sink, PaperDemo* shadow, Phase* ph) {
    std::vector<std::pair<const Coord*, const Coord*>> pairs;
    for (const Coord& fig8 : kStackCoords) {
      for (const Coord& fig11 : kUsesCoords) {
        pairs.emplace_back(&fig8, &fig11);
      }
    }
    for (size_t i = pairs.size() - 1; i > 0; i--) {
      std::swap(pairs[i], pairs[rng_.Below(i + 1)]);
    }
    uint64_t ops0 = ph->attempted - ph->failed;
    uint64_t wall_ns = 0;
    uint64_t cpu_ns = 0;
    for (const auto& [fig8, fig11] : pairs) {
      PaperDemo demo;
      if (sink != nullptr) {
        WrapTools(&demo.help(), sink);
      }
      ph->windows_start = demo.help().AllWindows().size();
      Walk walk(&demo, shadow, sink, ph);
      walk.Run(*fig8, *fig11);
      wall_ns += walk.wall_ns();
      cpu_ns += walk.cpu_ns();
      ph->windows_end = demo.help().AllWindows().size();
    }
    ph->EndSlice(ph->attempted - ph->failed - ops0, static_cast<double>(wall_ns) * 1e-9,
                 static_cast<double>(cpu_ns) * 1e-9, /*keep_samples=*/true);
  }

  Rng rng_;
};

}  // namespace

std::unique_ptr<Workload> MakeGesture(uint64_t seed) {
  return std::make_unique<Gesture>(seed);
}

}  // namespace ledger
