// Golden screens: what the user sees after every gesture, frozen so the
// screen layer (frame layout, the cell screen, its renderers, and locating
// text on it) can be rewritten without changing a single cell.
//
// Two sources of screens:
//  - the 18 walks of the paper's Figure 5-12 debugging session, one per pair
//    of the Figure 8 stack coordinate and the Figure 11 uses line (the same
//    walks the ledger's gesture workload times);
//  - 200 seeded random gesture scripts on a booted PaperDemo: clicks,
//    sweeps, built-in executions, scroll-bar presses, tab and column-tab
//    clicks, drags and typing.
// After each step the test digests Render(true), Render(false) and
// Render(true, true), plus every point Locate or FindOnScreen returned
// during the step. Digests are FNV-1a; on a mismatch the test prints the
// whole table as it now is.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/strings.h"
#include "src/tools/demo.h"

namespace help {
namespace {

uint64_t Fnv(std::string_view s, uint64_t h = 1469598103934665603ull) {
  for (unsigned char c : s) {
    h = (h ^ c) * 1099511628211ull;
  }
  return h;
}

// Folds one step's screens and located points into `h`.
class StepDigest {
 public:
  void Add(Point p) { points_ += StrFormat("%d,%d;", p.x, p.y); }
  uint64_t Finish(Help& h) {
    uint64_t d = Fnv(h.Render(/*annotated=*/true));
    d = Fnv(h.Render(/*annotated=*/false), d);
    d = Fnv(h.Render(/*annotated=*/true, /*show_last_exec=*/true), d);
    d = Fnv(points_, d);
    points_.clear();
    return d;
  }

 private:
  std::string points_;
};

// --- The Figure 5-12 walks ----------------------------------------------------

constexpr int kWalkSteps = 9;  // the boot screen, then Figures 5 to 12

struct WalkGolden {
  const char* fig8;
  const char* fig11;
  uint64_t steps[kWalkSteps];
};

// clang-format off
const WalkGolden kWalks[] = {
    {"text.c:32", "help.c:35", {
        0x6ce83669a946cf69ull, 0x56e1089415980472ull, 0xa806cff279798853ull,
        0xe365690848f98a41ull, 0x3905894aef198439ull, 0x3f732e1544e4f369ull,
        0x8c69c2192886059aull, 0x19a70634141b3298ull, 0x19ccd439b71afbc7ull}},
    {"text.c:32", "dat.h:136", {
        0x6ce83669a946cf69ull, 0x56e1089415980472ull, 0xa806cff279798853ull,
        0xe365690848f98a41ull, 0x3905894aef198439ull, 0x3f732e1544e4f369ull,
        0x8c69c2192886059aull, 0x9529795d3c38619full, 0x924da462cf31caf2ull}},
    {"text.c:32", "exec.c:252", {
        0x6ce83669a946cf69ull, 0x56e1089415980472ull, 0xa806cff279798853ull,
        0xe365690848f98a41ull, 0x3905894aef198439ull, 0x3f732e1544e4f369ull,
        0x8c69c2192886059aull, 0x25cc0e105236e44full, 0xb572972bd03f8222ull}},
    {"errs.c:34", "help.c:35", {
        0x6ce83669a946cf69ull, 0x56e1089415980472ull, 0xa806cff279798853ull,
        0xe365690848f98a41ull, 0x68a169c646e985d4ull, 0x3f732e1544e4f369ull,
        0x8c69c2192886059aull, 0x19a70634141b3298ull, 0x19ccd439b71afbc7ull}},
    {"errs.c:34", "dat.h:136", {
        0x6ce83669a946cf69ull, 0x56e1089415980472ull, 0xa806cff279798853ull,
        0xe365690848f98a41ull, 0x68a169c646e985d4ull, 0x3f732e1544e4f369ull,
        0x8c69c2192886059aull, 0x9529795d3c38619full, 0x924da462cf31caf2ull}},
    {"errs.c:34", "exec.c:252", {
        0x6ce83669a946cf69ull, 0x56e1089415980472ull, 0xa806cff279798853ull,
        0xe365690848f98a41ull, 0x68a169c646e985d4ull, 0x3f732e1544e4f369ull,
        0x8c69c2192886059aull, 0x25cc0e105236e44full, 0xb572972bd03f8222ull}},
    {"exec.c:101", "help.c:35", {
        0x6ce83669a946cf69ull, 0x56e1089415980472ull, 0xa806cff279798853ull,
        0xe365690848f98a41ull, 0x9f677418fb06023bull, 0x3f732e1544e4f369ull,
        0x8c69c2192886059aull, 0x19a70634141b3298ull, 0x19ccd439b71afbc7ull}},
    {"exec.c:101", "dat.h:136", {
        0x6ce83669a946cf69ull, 0x56e1089415980472ull, 0xa806cff279798853ull,
        0xe365690848f98a41ull, 0x9f677418fb06023bull, 0x3f732e1544e4f369ull,
        0x8c69c2192886059aull, 0x9529795d3c38619full, 0x924da462cf31caf2ull}},
    {"exec.c:101", "exec.c:252", {
        0x6ce83669a946cf69ull, 0x56e1089415980472ull, 0xa806cff279798853ull,
        0xe365690848f98a41ull, 0x9f677418fb06023bull, 0x3f732e1544e4f369ull,
        0x8c69c2192886059aull, 0x25cc0e105236e44full, 0xb572972bd03f8222ull}},
    {"exec.c:207", "help.c:35", {
        0x6ce83669a946cf69ull, 0x56e1089415980472ull, 0xa806cff279798853ull,
        0xe365690848f98a41ull, 0xde9261478fd3d507ull, 0x3f732e1544e4f369ull,
        0x8c69c2192886059aull, 0x19a70634141b3298ull, 0x19ccd439b71afbc7ull}},
    {"exec.c:207", "dat.h:136", {
        0x6ce83669a946cf69ull, 0x56e1089415980472ull, 0xa806cff279798853ull,
        0xe365690848f98a41ull, 0xde9261478fd3d507ull, 0x3f732e1544e4f369ull,
        0x8c69c2192886059aull, 0x9529795d3c38619full, 0x924da462cf31caf2ull}},
    {"exec.c:207", "exec.c:252", {
        0x6ce83669a946cf69ull, 0x56e1089415980472ull, 0xa806cff279798853ull,
        0xe365690848f98a41ull, 0xde9261478fd3d507ull, 0x3f732e1544e4f369ull,
        0x8c69c2192886059aull, 0x25cc0e105236e44full, 0xb572972bd03f8222ull}},
    {"ctrl.c:331", "help.c:35", {
        0x6ce83669a946cf69ull, 0x56e1089415980472ull, 0xa806cff279798853ull,
        0xe365690848f98a41ull, 0x94fd26abb4cd95c7ull, 0x3f732e1544e4f369ull,
        0x8c69c2192886059aull, 0x19a70634141b3298ull, 0x19ccd439b71afbc7ull}},
    {"ctrl.c:331", "dat.h:136", {
        0x6ce83669a946cf69ull, 0x56e1089415980472ull, 0xa806cff279798853ull,
        0xe365690848f98a41ull, 0x94fd26abb4cd95c7ull, 0x3f732e1544e4f369ull,
        0x8c69c2192886059aull, 0x9529795d3c38619full, 0x924da462cf31caf2ull}},
    {"ctrl.c:331", "exec.c:252", {
        0x6ce83669a946cf69ull, 0x56e1089415980472ull, 0xa806cff279798853ull,
        0xe365690848f98a41ull, 0x94fd26abb4cd95c7ull, 0x3f732e1544e4f369ull,
        0x8c69c2192886059aull, 0x25cc0e105236e44full, 0xb572972bd03f8222ull}},
    {"ctrl.c:320", "help.c:35", {
        0x6ce83669a946cf69ull, 0x56e1089415980472ull, 0xa806cff279798853ull,
        0xe365690848f98a41ull, 0xd8cdb1bea299ad7eull, 0x3f732e1544e4f369ull,
        0x8c69c2192886059aull, 0x19a70634141b3298ull, 0x19ccd439b71afbc7ull}},
    {"ctrl.c:320", "dat.h:136", {
        0x6ce83669a946cf69ull, 0x56e1089415980472ull, 0xa806cff279798853ull,
        0xe365690848f98a41ull, 0xd8cdb1bea299ad7eull, 0x3f732e1544e4f369ull,
        0x8c69c2192886059aull, 0x9529795d3c38619full, 0x924da462cf31caf2ull}},
    {"ctrl.c:320", "exec.c:252", {
        0x6ce83669a946cf69ull, 0x56e1089415980472ull, 0xa806cff279798853ull,
        0xe365690848f98a41ull, 0xd8cdb1bea299ad7eull, 0x3f732e1544e4f369ull,
        0x8c69c2192886059aull, 0x25cc0e105236e44full, 0xb572972bd03f8222ull}},
};
// clang-format on

const char* const kFig8[] = {"text.c:32",  "errs.c:34",  "exec.c:101",
                             "exec.c:207", "ctrl.c:331", "ctrl.c:320"};
const char* const kFig11[] = {"help.c:35", "dat.h:136", "exec.c:252"};
constexpr char kSrcDir[] = "/usr/rob/src/help";

std::string FileOf(const char* coord) {
  std::string s(coord);
  return std::string(kSrcDir) + "/" + s.substr(0, s.find(':'));
}

std::vector<uint64_t> RunWalk(const char* fig8, const char* fig11) {
  PaperDemo demo;
  Help& h = demo.help();
  StepDigest step;
  std::vector<uint64_t> out;
  auto locate = [&](Window* w, std::string_view needle) {
    Point p = demo.Locate(w, needle);
    step.Add(p);
    return p;
  };
  Window* mail_stf = demo.FindWindowTagged("/help/mail/stf");
  Window* db_stf = demo.FindWindowTagged("/help/db/stf");
  Window* edit_stf = demo.FindWindowTagged("/help/edit/stf");
  Window* cbr_stf = demo.FindWindowTagged("/help/cbr/stf");
  out.push_back(step.Finish(h));

  h.MouseExecWord(locate(mail_stf, "headers"));
  out.push_back(step.Finish(h));

  h.MouseClick(locate(demo.FindWindowTagged("/mail/box/rob/mbox"), "2 sean"));
  h.MouseExecWord(locate(mail_stf, "messages"));
  out.push_back(step.Finish(h));

  h.MouseClick(locate(demo.FindWindowTagged("From sean"), "176153"));
  h.MouseExecWord(locate(db_stf, "stack"));
  out.push_back(step.Finish(h));

  Window* stack = demo.FindWindowTagged("176153 stack");
  h.MouseClick(locate(stack, fig8));
  h.MouseExecWord(locate(edit_stf, "Open"));
  out.push_back(step.Finish(h));

  if (Window* opened = h.WindowForFile(FileOf(fig8))) {
    h.MouseExecWord(locate(opened, "Close!"));
  }
  h.MouseClick(locate(stack, "exec.c:252"));
  h.MouseExecWord(locate(edit_stf, "Open"));
  out.push_back(step.Finish(h));

  Window* execc = h.WindowForFile(FileOf("exec.c:213"));
  Point cast = locate(execc, "(uchar*)n");
  h.MouseClick({cast.x + 8, cast.y});
  Point u = locate(cbr_stf, "uses *.c");
  h.MouseExec(u, {u.x + 8, u.y});
  out.push_back(step.Finish(h));

  Window* uses = demo.FindWindowTagged(" uses Close!");
  h.MouseClick(locate(uses, fig11));
  h.MouseExecWord(locate(edit_stf, "Open"));
  h.MouseClick(locate(uses, "exec.c:213"));
  h.MouseExecWord(locate(edit_stf, "Open"));
  out.push_back(step.Finish(h));

  execc = h.WindowForFile(FileOf("exec.c:213"));
  h.MouseExecWord(locate(edit_stf, "Cut"));
  h.MouseExecWord(locate(execc, "Put!"));
  h.MouseExecWord(locate(cbr_stf, "mk"));
  out.push_back(step.Finish(h));
  return out;
}

TEST(ScreenGolden, PaperWalks) {
  std::string table;
  std::vector<std::vector<uint64_t>> got;
  for (const char* fig8 : kFig8) {
    for (const char* fig11 : kFig11) {
      got.push_back(RunWalk(fig8, fig11));
      table += StrFormat("    {\"%s\", \"%s\", {", fig8, fig11);
      for (size_t i = 0; i < got.back().size(); i++) {
        table += StrFormat("%s0x%016llxull", i % 3 == 0 ? "\n        " : " ",
                           static_cast<unsigned long long>(got.back()[i]));
        table += i + 1 < got.back().size() ? "," : "}},\n";
      }
    }
  }
  SCOPED_TRACE("current table:\n" + table);
  ASSERT_EQ(std::size(kWalks), got.size());
  for (size_t w = 0; w < got.size(); w++) {
    const WalkGolden& want = kWalks[w];
    ASSERT_EQ(got[w].size(), static_cast<size_t>(kWalkSteps));
    for (int s = 0; s < kWalkSteps; s++) {
      EXPECT_EQ(want.steps[s], got[w][static_cast<size_t>(s)])
          << want.fig8 << " then " << want.fig11 << ": step " << s + 4;
    }
  }
}

// --- Random gesture scripts ---------------------------------------------------

constexpr int kScripts = 200;
constexpr int kScriptSteps = 40;

// clang-format off
const uint64_t kScriptDigests[] = {
    0xe931ad78f2135a46ull, 0x7789630a5afe5199ull, 0xa3ff5102f5876c44ull, 0x3f7051019ac98da6ull,
    0x8f1af969c5bb93c5ull, 0x28edf996fbc8e986ull, 0x504e92a066fbc6f1ull, 0x3a0eaa1df3dd63c2ull,
    0xdc31d5dfc4ddf488ull, 0xee1b566f77987459ull, 0x9baaea9febef7c39ull, 0x51e17aa72bccbc8aull,
    0xc425cfcfa3d6197aull, 0x770f5b2823797693ull, 0x04a63472322ccd83ull, 0x24c0e6f9b873594eull,
    0x1d0ec3762d196c1full, 0x325808055a136edeull, 0x7adef3ed445389c7ull, 0x33211f336577efafull,
    0x69f80fd04d94c08dull, 0xc9a32f9059473c9cull, 0xbd504ff157936be7ull, 0xe6340bf85b45ca41ull,
    0x0684daf09b7a1324ull, 0xec6145cb023ef60eull, 0xd55807b2719d0a31ull, 0x1c1366a0769e7779ull,
    0xd0c023901f05b7f7ull, 0x0ff061416b0fbbafull, 0xad0a4dc40295e138ull, 0xc6c42477f63bc953ull,
    0x0aa6901bc949be54ull, 0x3a1901fb32e34ab3ull, 0x603029577f07d44cull, 0x4e6cb9ee80439580ull,
    0x9c26b583fe4d2bf9ull, 0xec1b86f7d415ded7ull, 0xeddede942fb5c82cull, 0xa986be8b96ead378ull,
    0x73db62b92d0a8179ull, 0x3ca708e08501a48cull, 0xc2a395d6434046f6ull, 0x2d7649ee996dfef4ull,
    0x2fb6e2294a835e7aull, 0x7720c069463e31c7ull, 0x17797badcf72a914ull, 0xbeecb9cfa2a0c1bbull,
    0xc77ed4b51e7e9449ull, 0xb5681ca8246c0b01ull, 0x5e5477fc76e1066full, 0x1d852db21998abd8ull,
    0x8d34e1e7fb7d76e3ull, 0x8736417d24bab5c3ull, 0xa3e27edfa3ddd320ull, 0x5ffcb253fc4029eaull,
    0xecd845d05cd6d9b9ull, 0x8a378229f966ec88ull, 0x2617703bdbe941eaull, 0xc1e5423f72d843f0ull,
    0xc7fc770dd42e29f4ull, 0x0faf2e1bf3559e3cull, 0xed549bd5aec00271ull, 0x8657a57d06d1138eull,
    0x6418f681f6b0b083ull, 0xfff37eaf593329e2ull, 0xc1c4ff9e90299d2cull, 0x7fcf071de87fabe5ull,
    0x98cc18015089f24cull, 0x782065fc703367abull, 0xaec44bf2aaec6b17ull, 0x75c637219bd991a2ull,
    0xaccddb1f6e742be8ull, 0x2810bdd4d30f7efdull, 0x568d01251df808a3ull, 0xeb336bc38336c75full,
    0x3482cc2732d8d309ull, 0xfd505a61e9555210ull, 0x93ad5c4b50a999bcull, 0xa5c80b2e12d2c8dfull,
    0x7d792703e62eef09ull, 0x23c9dc78c74ae7aaull, 0x972f884aee9352e7ull, 0xcdfee5d467d407f3ull,
    0xdc2118dcf466b5e5ull, 0xab05c871cab9c93dull, 0xc6deb4d68ca88228ull, 0xb0054ecebafdd5eeull,
    0xc1991fb803d13a64ull, 0xd38249eb321406daull, 0x982776c39d2eb9c5ull, 0xf092feaaa31af6f5ull,
    0x693517f7c53b478eull, 0x1d7298d8799f7b70ull, 0xa6b9156993f444c5ull, 0xac73e3de0bfe6ef0ull,
    0x19d140d1ec597827ull, 0x7a88008cff4d613full, 0x3797062f2716fe2eull, 0x8146a9b0bbef1429ull,
    0xc1fc8642743647ecull, 0x6f2062f2a68844a2ull, 0xebb75257211947d7ull, 0xdb20a9081390c1e5ull,
    0x6efdba69d550a666ull, 0x2ccd3e8207ae2e20ull, 0x447b7dc5266bf920ull, 0x8ff6a97bf40e978aull,
    0xeef1fa86c996877eull, 0x0240b364932ad845ull, 0x3a6d2046752f3e3full, 0x51b627377312af5dull,
    0xa8031d6cd974b926ull, 0xecce3ee514de7e48ull, 0x5f075306110ac8fcull, 0x13464e1fda054846ull,
    0xb119fd379d06f776ull, 0x18b557a29575ebebull, 0xd0e30549789be230ull, 0x2edd132a326a4104ull,
    0x7617b87c0bfb8d2aull, 0xb7eb7fdd685476ccull, 0x398c1ff295409dc7ull, 0x1bf567f9d590a6c2ull,
    0x09a7d9fd0692348cull, 0xfbd96bb9444c57e1ull, 0x39408fb59698cab7ull, 0x42ddbc8efa94fa7eull,
    0xdebd42992681d2a4ull, 0x7efa4aa1748d2037ull, 0x05809ba641af128full, 0x8b6cd97172e68bcdull,
    0x408c629b3b28aca6ull, 0xb4b33b36a1730c59ull, 0xc2a763291a4cb34bull, 0xc8c22b7dcf240a25ull,
    0xaec38a4ede7a4b17ull, 0xdd6f126bcc99636bull, 0xfd6aa62ea8ea9864ull, 0xb91b9de4f8284339ull,
    0x531e3e3084573eeaull, 0x8a6fd27a927c1964ull, 0x0656fac4e940255cull, 0xf5d8e01822c2cdd3ull,
    0xea284edff38c05a2ull, 0x9a1c4060e6fc1082ull, 0x0d931e6035c168e5ull, 0xc7ad6a4f4db77f20ull,
    0xc6ff183c8f701f9bull, 0x7a87c64d647ae355ull, 0xde1ec2f42abc335full, 0x442031c6e174827cull,
    0xc4c81a4f7a586aeaull, 0x589704e348c14da1ull, 0x988108a7938b3085ull, 0x6e5cb2c0fb520946ull,
    0x6e06ec45d685159bull, 0x547a5c863679172aull, 0xfc173f653e36e328ull, 0xf685d4fae312aef9ull,
    0x1b57813d3028b440ull, 0xbb853284ba21d003ull, 0x523d58baae9ebb33ull, 0x289214cbc7f82435ull,
    0xebf575ef39d64a93ull, 0x37a8f56e0b351d2eull, 0xaaa2c705fe01edffull, 0x06265beaa35c9486ull,
    0x33a806f1d176364aull, 0x10785d1954929c16ull, 0x394437e222880adeull, 0xbcdb1aee89d96f17ull,
    0x6db67a4dc8462e45ull, 0x99470bda0ce6baceull, 0x7bb00d9e9ab64caeull, 0xc2286f150001b1e6ull,
    0x93134c5ded3f2c7dull, 0x275129cb3d2d3c80ull, 0x11006abbe855a01aull, 0x166d4fb3a32047dcull,
    0x4d42bb3bacca96f6ull, 0xc4812d30cc6700f2ull, 0x0887f8008600dcb4ull, 0x42907be45726d18cull,
    0xc39bbfd68cb4d2e8ull, 0x1f614a718ff6a47eull, 0xa60f69f77b41a4f1ull, 0xdca78769341c493dull,
    0x7b04d697d0f7e543ull, 0x6d51e65f7cc3b822ull, 0xfc9b049e0ed04fedull, 0x5dbd210b34068989ull,
    0x3ef456fa16b50565ull, 0x2b70577bf74339cbull, 0xbbb882cd7b27121dull, 0xc37da3ffeab84b7aull,
    0xa101dacaf420ea51ull, 0xe4698e01a30ddc71ull, 0xb0cac049a7a5b826ull, 0x294c82d032e94c6full,
};
// clang-format on

// splitmix64: the same sequence on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  int Below(int n) { return static_cast<int>(Next() % static_cast<uint64_t>(n)); }

 private:
  uint64_t s_;
};

std::vector<Window*> VisibleWindows(Help& h) {
  std::vector<Window*> out;
  for (Window* w : h.AllWindows()) {
    if (!w->hidden()) {
      out.push_back(w);
    }
  }
  return out;
}

// One random gesture on `h`; points it locates go into `step`.
void RandomGesture(Help& h, Rng& rng, StepDigest& step) {
  const Screen& screen = h.page().screen();
  auto any_point = [&] { return Point{rng.Below(screen.width()), rng.Below(screen.height())}; };
  switch (rng.Below(10)) {
    case 0:
    case 1:
      h.MouseClick(any_point());
      break;
    case 2: {
      Point from = any_point();
      Point to{std::min(screen.width() - 1, from.x + rng.Below(30)),
               std::min(screen.height() - 1, from.y + rng.Below(3))};
      h.MouseSelect(from, to);
      break;
    }
    case 3: {
      static const char* const kWords[] = {"Cut", "Paste", "Snarf", "Close!", "Open"};
      const char* word = kWords[rng.Below(5)];
      Point p = h.FindOnScreen(word, rng.Below(3));
      step.Add(p);
      if (p.x >= 0) {
        h.MouseExecWord(p);
      }
      break;
    }
    case 4: {
      std::vector<Window*> vis = VisibleWindows(h);
      if (vis.empty()) {
        break;
      }
      Window* w = vis[static_cast<size_t>(rng.Below(static_cast<int>(vis.size())))];
      Rect sb = w->ScrollbarRect();
      if (sb.empty()) {
        break;
      }
      Point p{sb.x0, sb.y0 + rng.Below(sb.height())};
      switch (rng.Below(3)) {
        case 0:
          h.MouseClick(p);
          break;
        case 1:
          h.MouseExecWord(p);
          break;
        default:
          h.MouseDrag(p, p);
          break;
      }
      break;
    }
    case 5: {
      int col = rng.Below(h.page().ncols());
      int n = static_cast<int>(h.page().col(col).windows().size());
      h.ClickWindowTab(col, n == 0 ? 0 : rng.Below(n));
      break;
    }
    case 6:
      h.ClickColumnTab(rng.Below(h.page().ncols()));
      break;
    case 7: {
      std::vector<Window*> vis = VisibleWindows(h);
      if (vis.empty()) {
        break;
      }
      Window* w = vis[static_cast<size_t>(rng.Below(static_cast<int>(vis.size())))];
      Point from{w->rect().x0 + rng.Below(w->rect().width()), w->rect().y0};
      h.MouseDrag(from, any_point());
      break;
    }
    default: {
      static const char* const kTyped[] = {"x", "foo bar", "\n", "\tq", "h\xC3\xA9llo",
                                           "\xE6\x97\xA5\xE6\x9C\xAC", "line\nnext "};
      h.Type(kTyped[rng.Below(7)]);
      break;
    }
  }
}

uint64_t RunScript(int seed) {
  PaperDemo demo;
  Help& h = demo.help();
  Rng rng(static_cast<uint64_t>(seed) * 7919u + 1);
  StepDigest step;
  uint64_t d = Fnv("");
  for (int i = 0; i < kScriptSteps; i++) {
    RandomGesture(h, rng, step);
    d = Fnv(StrFormat("%016llx", static_cast<unsigned long long>(step.Finish(h))), d);
  }
  return d;
}

TEST(ScreenGolden, RandomGestureScripts) {
  std::string table;
  std::vector<uint64_t> got;
  for (int seed = 0; seed < kScripts; seed++) {
    got.push_back(RunScript(seed));
    table += StrFormat("%s0x%016llxull,", seed % 4 == 0 ? "\n    " : " ",
                       static_cast<unsigned long long>(got.back()));
  }
  SCOPED_TRACE("current table:" + table);
  ASSERT_EQ(std::size(kScriptDigests), got.size());
  for (size_t i = 0; i < got.size(); i++) {
    EXPECT_EQ(kScriptDigests[i], got[i]) << "script seed " << i;
  }
}

}  // namespace
}  // namespace help
