// Help: the combined editor / window system / shell / user interface — the
// paper's primary contribution. One Help instance owns the whole world: the
// virtual file system (with /mnt/help mounted), the command registry and
// shell, the process table, and the tiled screen.
//
// The user interface is exactly the paper's:
//   button 1  selects text (each subwindow has its own selection; the most
//             recent one is "the current selection", drawn reverse-video)
//   button 2  executes the swept text — a click anywhere in a word executes
//             the whole word; a null sweep expands by context
//   button 3  rearranges windows (drag by the tag) and reveals them (tabs)
//   chords    B1 held + B2 = Cut, B1 held + B3 = Paste, B2 then B3 = snarf
//   typing    replaces the selection in the subwindow under the mouse;
//             newline is just a character — typing never executes
//
// Built-in commands are capitalized words bound to actions wherever they
// appear (Cut, Paste, Snarf, Open, New, Write, Pattern, Text, Exit, and the
// extensions Undo/Redo); commands ending in '!' are window operations that
// take no arguments and apply to the window they are executed in (Close!,
// Put!, Get!). Anything else is an external command run by the shell in the
// directory derived from the window's tag, with output appended to the
// Errors window.
#ifndef SRC_CORE_HELP_H_
#define SRC_CORE_HELP_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/fs/ninep.h"
#include "src/fs/vfs.h"
#include "src/proc/env.h"
#include "src/proc/proc.h"
#include "src/shell/shell.h"
#include "src/wm/wm.h"

namespace help {

class NinepServer;

class Help {
 public:
  struct Options {
    int width = 100;
    int height = 40;
    bool install_userland = true;  // coreutils + compiler tools + mk
  };

  Help() : Help(Options{}) {}
  explicit Help(const Options& options);
  ~Help();

  Help(const Help&) = delete;
  Help& operator=(const Help&) = delete;

  // --- the world --------------------------------------------------------------
  Vfs& vfs() { return vfs_; }
  // The 9P service for this instance's tree. External clients open sessions
  // here; the /mnt/help handlers serialize through its dispatch lock, and
  // /mnt/help/stats renders its metrics.
  NinepServer& ninep() { return *ninep_; }
  Shell& shell() { return *shell_; }
  CommandRegistry& registry() { return registry_; }
  ProcTable& procs() { return procs_; }
  Env& env() { return env_; }
  Page& page() { return *page_; }

  // --- user gestures (these are what the interaction counters count) ----------

  // Button 1: select from `from` to `to` (same point = click, null selection).
  void MouseSelect(Point from, Point to);
  void MouseClick(Point p) { MouseSelect(p, p); }

  // Button 2: execute. A click (from == to) executes the whole word under
  // the point; a sweep executes exactly the swept text.
  void MouseExec(Point from, Point to);
  void MouseExecWord(Point p) { MouseExec(p, p); }

  // Chords while button 1 is held after a selection.
  void ChordCut();
  void ChordPaste();
  // B2 then B3 while B1 held: remember in cut buffer, then put it back —
  // a copy with no net edit.
  void ChordSnarf();

  // Button 3 on a tag: drag the window.
  void MouseDrag(Point from, Point to);
  // Button 1 on a window tab (the black squares) or a column tab.
  void ClickWindowTab(int column, int index);
  void ClickColumnTab(int column);

  // Keyboard: typed text replaces the selection in the subwindow under the
  // mouse (the last place the mouse touched).
  void Type(std::string_view utf8);

  // --- programmatic interface (used by built-ins, the file server, tests) -----

  // Opens a file or directory. `name` may carry an address suffix
  // (help.c:27). Relative names resolve against `context_dir`. Creates a
  // window (placed automatically, in `col_hint` if non-negative) or reveals
  // an existing one.
  Result<Window*> OpenFile(std::string_view name, std::string_view context_dir,
                           Window* near, int col_hint = -1);

  // Executes command text as if swept with button 2 in `window`.
  Status ExecuteText(std::string_view text, Window* window);

  // Creates an empty window near the current selection (the file-server
  // new/ctl path and the New command).
  Window* CreateWindow(std::string_view tagline, int col_hint = -1);

  // Closes a window (Close!, or a ctl message).
  void CloseWindow(Window* w);

  // Clone! — a second window on the same body (multiple windows per file).
  Status CloneWindow(Window* w);

  // Writes a window's body back to its tag file (Put!). Clears the dirty
  // marker on every window sharing the body.
  Status PutWindow(Window* w);
  // Reloads the body from the tag file (Get!).
  Status GetWindow(Window* w);

  Window* WindowForFile(std::string_view fullpath);
  Window* errors_window() { return errors_; }
  // Appends to the Errors window, creating it on first need.
  void AppendErrors(std::string_view text);

  const std::string& snarf() const { return snarf_; }
  void set_snarf(std::string s) { snarf_ = std::move(s); }

  Subwindow* current_sub() { return current_; }
  void SetCurrent(Subwindow* sub) { current_ = sub; }
  Window* WindowOf(Subwindow* sub) { return sub == nullptr ? nullptr : sub->window; }

  bool exited() const { return exited_; }

  // --- rendering & inspection --------------------------------------------------

  // Redraws every window into the page screen and returns the rendering.
  // With show_last_exec, the most recent button-2 sweep is underlined (the
  // way Figure 2 shows an execution in progress).
  std::string Render(bool annotated = false, bool show_last_exec = false);
  // Redraws the screen and searches its cells for `needle`; returns the
  // position of its first character. occurrence selects among multiple hits
  // (top-to-bottom). Returns {-1,-1} if absent.
  Point FindOnScreen(std::string_view needle, int occurrence = 0);
  // Like FindOnScreen but restricted to one window's rectangle, and paints
  // only that window.
  Point FindInWindow(const Window* w, std::string_view needle, int occurrence = 0);

  struct Counters {
    int button_presses = 0;   // every mouse button press (clicks and sweeps)
    int keystrokes = 0;       // runes typed
    int commands_executed = 0;
    int windows_created = 0;
  };
  const Counters& counters() const { return counters_; }
  void ResetCounters() { counters_ = Counters(); }

  // All live windows, in id order.
  std::vector<Window*> AllWindows();
  // The live window with this id, or nullptr.
  Window* FindWindow(int id);
  // Number of bodies shown by at least one live window.
  size_t TrackedBodies() const { return body_windows_.size(); }

  // Marks `w`'s tag dirty/clean (adds/removes the Put! word). Public so the
  // ctl file handler can invoke it.
  void UpdateDirtyTag(Window* w);

  // --- file-server surface (the /mnt/help handlers call these) ----------------

  // Handles a write to a window's ctl file: newline-separated messages.
  //   tag <text>         set the tag line
  //   show <addr>        reveal the window and select the address
  //   select <q0> <q1>   set the body selection
  //   insert <q> <text>  insert text (rest of line) at rune offset q
  //   delete <q0> <q1>   delete a rune range
  //   clean              clear the dirty marker
  Status HandleCtl(Window* w, std::string_view commands);
  // Byte-level writes from clients (window body/tag files).
  Status SetBodyBytes(Window* w, uint64_t offset, std::string_view data, bool truncate);
  Status AppendBody(Window* w, std::string_view data);
  Status SetTagBytes(Window* w, uint64_t offset, std::string_view data, bool truncate);

 private:
  friend class HelpFsInstaller;

  struct WinState {
    Window* window = nullptr;
    std::string filename;  // full path, empty for unnamed windows
  };

  // Gesture plumbing.
  Subwindow* SubAt(Point p);
  Selection SweepIn(Subwindow* sub, Point from, Point to);

  // Execution.
  Status ExecBuiltin(const std::string& cmd, const std::vector<std::string>& args,
                     Window* exec_win);
  Status ExecExternal(std::string_view text, Window* exec_win);
  bool IsBuiltin(std::string_view word) const;

  // Built-ins.
  Status CmdOpen(const std::vector<std::string>& args, Window* exec_win);
  Status CmdCut();
  Status CmdPaste();
  Status CmdSnarf();
  Status CmdNew(const std::vector<std::string>& args);
  Status CmdWrite(const std::vector<std::string>& args);
  Status CmdSearch(const std::vector<std::string>& args, bool literal, Window* exec_win);
  Status CmdUndo(bool redo);
  Status CmdSend(Window* exec_win);

  // Context helpers.
  std::string ContextDirForSelection(Window* fallback);
  std::string DefaultFileArg();
  void SetHelpselEnv(Env* env);
  void SelectAddress(Window* w, std::string_view addr);

  int NextWindowId() { return next_id_++; }
  // Track registers a window Page::Create just built: its id entry, its
  // /mnt/help files and its place in the list of windows on its body.
  // Untrack undoes all three before the Window is destroyed.
  void Track(Window* w, std::string filename);
  void Untrack(Window* w);
  void RegisterWindowFiles(Window* w);
  void UnregisterWindowFiles(Window* w);
  void TouchBody(Window* w);  // post-edit bookkeeping (dirty tags, relayout)

  std::shared_ptr<Text> BodyForFile(const std::string& fullpath);

  Vfs vfs_;
  std::unique_ptr<NinepServer> ninep_;
  CommandRegistry registry_;
  ProcTable procs_;
  Env env_;
  std::unique_ptr<Shell> shell_;
  std::unique_ptr<Page> page_;

  std::map<int, WinState> wins_;
  // body -> the live windows showing it, in creation order. A window's body
  // is fixed when the Window is built, so Track/Untrack keep this exact.
  std::unordered_map<const Text*, std::vector<Window*>> body_windows_;
  // filename -> shared body text (multiple windows per file).
  std::map<std::string, std::weak_ptr<Text>> bodies_;

  Subwindow* current_ = nullptr;
  Window* errors_ = nullptr;
  std::string snarf_;
  bool exited_ = false;
  int next_id_ = 1;
  Counters counters_;

  // Where the last B2 sweep happened (for tag '!' commands and drawing).
  Window* last_exec_win_ = nullptr;
  Selection last_exec_sel_;
  Subwindow* last_exec_sub_ = nullptr;
};

}  // namespace help

#endif  // SRC_CORE_HELP_H_
