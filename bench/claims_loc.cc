// Claim C-5: "It is also smaller: 4300 lines of C." — an accounting of this
// reproduction's size, broken down by subsystem, with the help-proper core
// (the analogue of the paper's 4300 lines: editor + window system + UI +
// file server, excluding the substrates Plan 9 provided for free) called out.
// Exits 1 if a directory under src/ with .cc or .h files has no row, so that
// TOTAL always counts the whole tree.
#include <filesystem>
#include <fstream>
#include <set>

#include "bench/figutil.h"

#ifndef HELP_SOURCE_DIR
#define HELP_SOURCE_DIR "."
#endif

namespace {

long CountLines(const std::filesystem::path& dir) {
  namespace fs = std::filesystem;
  long lines = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    auto ext = entry.path().extension();
    if (ext != ".cc" && ext != ".h") {
      continue;
    }
    std::ifstream in(entry.path());
    std::string line;
    while (std::getline(in, line)) {
      lines++;
    }
  }
  return lines;
}

}  // namespace

int main() {
  help::PrintHeader("Claims: size accounting", "paper: help was 4300 lines of C");
  std::filesystem::path src = std::filesystem::path(HELP_SOURCE_DIR) / "src";
  if (!std::filesystem::exists(src)) {
    std::printf("source tree not found at %s; run from the repository\n",
                HELP_SOURCE_DIR);
    return 1;
  }
  long core = 0;
  long total = 0;
  std::set<std::string> counted;
  static const char* kCore[] = {"core", "wm", "draw"};  // help proper
  std::printf("%-12s %8s  %s\n", "subsystem", "lines", "role");
  struct RowInfo {
    const char* name;
    const char* role;
  };
  for (const RowInfo& row : std::initializer_list<RowInfo>{
           {"core", "help itself: UI semantics + /mnt/help file server"},
           {"wm", "help itself: columns, windows, placement"},
           {"draw", "help itself: frames and the cell screen"},
           {"text", "substrate: buffers, undo, addresses (libframe-era C had this)"},
           {"regexp", "substrate: Plan 9 libregexp equivalent"},
           {"fs", "substrate: the Plan 9 kernel namespace + 9P"},
           {"shell", "substrate: rc + userland + mk"},
           {"cc", "substrate: rcc, the code-generator-less compiler"},
           {"proc", "substrate: processes + adb"},
           {"tools", "the /help tool suites + paper corpus + demo driver"},
           {"obs", "substrate: spans, counters and histograms behind /mnt/help"},
           {"base", "runes, strings, status"},
           {"baseline", "the conventional-UI comparison model"}}) {
    long n = CountLines(src / row.name);
    total += n;
    counted.insert(row.name);
    for (const char* c : kCore) {
      if (std::string(c) == row.name) {
        core += n;
      }
    }
    std::printf("%-12s %8ld  %s\n", row.name, n, row.role);
  }
  std::printf("%-12s %8ld\n", "TOTAL src/", total);
  int missing = 0;
  for (const auto& entry : std::filesystem::directory_iterator(src)) {
    std::string name = entry.path().filename().string();
    if (entry.is_directory() && CountLines(entry.path()) > 0 && counted.count(name) == 0) {
      std::printf("no row for src/%s: TOTAL leaves it out\n", name.c_str());
      missing++;
    }
  }
  if (missing > 0) {
    return 1;
  }
  std::printf("\nhelp proper (core+wm+draw): %ld lines of C++ vs the paper's 4300 of C\n",
              core);
  std::printf("the rest reimplements what Plan 9 gave the original for free.\n");
  return 0;
}
