#include "src/core/help.h"

#include <algorithm>

#include "src/base/strings.h"
#include "src/cc/ctools.h"
#include "src/core/fileserver.h"
#include "src/fs/server.h"
#include "src/obs/trace.h"
#include "src/regexp/cache.h"
#include "src/regexp/regexp.h"
#include "src/shell/coreutils.h"
#include "src/shell/mk.h"
#include "src/text/address.h"
#include "src/text/search.h"

namespace help {

Help::Help(const Options& options) {
  ninep_ = std::make_unique<NinepServer>(&vfs_);
  shell_ = std::make_unique<Shell>(&vfs_, &registry_, &procs_);
  page_ = std::make_unique<Page>(options.width, options.height, 2);
  vfs_.MkdirAll("/mnt/help");
  vfs_.MkdirAll("/tmp");
  if (options.install_userland) {
    RegisterCoreutils(&vfs_, &registry_);
    RegisterCompilerTools(&vfs_, &registry_);
    RegisterMk(&vfs_, &registry_);
  }
  InstallHelpFs(this);
  // Trace events carry the logical tick of this instance's clock; the last
  // Help constructed wins (tests build several; only one is ever "the" UI).
  obs::Tracer::Global().BindClock(vfs_.clock());
}

Help::~Help() { obs::Tracer::Global().UnbindClock(vfs_.clock()); }

// ---------------------------------------------------------------------------
// Gesture plumbing.

Subwindow* Help::SubAt(Point p) {
  Page::Hit hit = page_->HitTest(p);
  return hit.sub;
}

Selection Help::SweepIn(Subwindow* sub, Point from, Point to) {
  size_t q0 = sub->frame.PointToOffset(from);
  size_t q1 = sub->frame.PointToOffset(to);
  if (q1 < q0) {
    std::swap(q0, q1);
  }
  return {q0, q1};
}

void Help::MouseSelect(Point from, Point to) {
  counters_.button_presses++;
  Page::Hit hit = page_->HitTest(from);
  if (hit.tab_index >= 0) {
    // Button 1 on a window tab reveals the window.
    Column& col = page_->col(hit.column);
    Window* w = col.windows()[static_cast<size_t>(hit.tab_index)];
    col.MakeVisible(w);
    return;
  }
  if (hit.on_column_tab) {
    page_->ToggleExpand(hit.column);
    return;
  }
  if (hit.on_scrollbar) {
    // Button 1 in the scroll bar scrolls backward, proportionally to how far
    // down the bar the click landed (the 8½ convention).
    int lines = from.y - hit.window->ScrollbarRect().y0 + 1;
    hit.window->ScrollLines(-lines);
    return;
  }
  if (hit.sub == nullptr) {
    return;
  }
  hit.sub->sel = SweepIn(hit.sub, from, to);
  current_ = hit.sub;
}

void Help::MouseExec(Point from, Point to) {
  counters_.button_presses++;
  Page::Hit hit = page_->HitTest(from);
  if (hit.on_scrollbar) {
    // Button 2 in the scroll bar jumps to the absolute position.
    Rect sb = hit.window->ScrollbarRect();
    hit.window->ScrollTo(static_cast<double>(from.y - sb.y0) /
                         static_cast<double>(std::max(1, sb.height())));
    return;
  }
  if (hit.sub == nullptr) {
    return;
  }
  Selection sel = SweepIn(hit.sub, from, to);
  if (sel.null()) {
    // A click anywhere in a word executes the whole word (rule of defaults).
    sel = hit.sub->text->ExpandWord(sel.q0);
  }
  if (sel.null()) {
    return;
  }
  std::string text = hit.sub->text->Utf8Range(sel.q0, sel.q1);
  last_exec_win_ = hit.window;
  last_exec_sel_ = sel;
  last_exec_sub_ = hit.sub;
  counters_.commands_executed++;
  Status s = ExecuteText(text, hit.window);
  if (!s.ok()) {
    AppendErrors(s.message() + "\n");
  }
}

void Help::ChordCut() {
  counters_.button_presses++;
  Status s = CmdCut();
  if (!s.ok()) {
    AppendErrors(s.message() + "\n");
  }
}

void Help::ChordPaste() {
  counters_.button_presses++;
  Status s = CmdPaste();
  if (!s.ok()) {
    AppendErrors(s.message() + "\n");
  }
}

void Help::ChordSnarf() {
  counters_.button_presses++;
  CmdSnarf();
}

void Help::MouseDrag(Point from, Point to) {
  counters_.button_presses++;
  Page::Hit hit = page_->HitTest(from);
  if (hit.window == nullptr) {
    return;
  }
  if (hit.on_scrollbar) {
    // Button 3 in the scroll bar scrolls forward.
    int lines = from.y - hit.window->ScrollbarRect().y0 + 1;
    hit.window->ScrollLines(lines);
    return;
  }
  if (hit.sub != &hit.window->tag()) {
    return;  // only tags are drag handles
  }
  page_->Drag(hit.window, to);
}

void Help::ClickWindowTab(int column, int index) {
  counters_.button_presses++;
  if (column < 0 || column >= page_->ncols()) {
    return;
  }
  Column& col = page_->col(column);
  if (index < 0 || index >= static_cast<int>(col.windows().size())) {
    return;
  }
  col.MakeVisible(col.windows()[static_cast<size_t>(index)]);
}

void Help::ClickColumnTab(int column) {
  counters_.button_presses++;
  page_->ToggleExpand(column);
}

void Help::Type(std::string_view utf8) {
  RuneString runes = RunesFromUtf8(utf8);
  counters_.keystrokes += static_cast<int>(runes.size());
  OBS_INSTANT("events.type", runes.size());
  Subwindow* sub = current_;
  if (sub == nullptr) {
    return;
  }
  Text& t = *sub->text;
  t.BeginChange();
  t.Replace(sub->sel.q0, sub->sel.q1, runes);
  sub->sel = {sub->sel.q0 + runes.size(), sub->sel.q0 + runes.size()};
  current_ = sub;
  if (sub->window != nullptr && !sub->is_tag) {
    TouchBody(sub->window);
  } else if (sub->window != nullptr) {
    sub->Relayout();
  }
}

// ---------------------------------------------------------------------------
// Execution.

bool Help::IsBuiltin(std::string_view word) const {
  static const char* kBuiltins[] = {"Open",    "Cut",  "Paste", "Snarf", "New",
                                    "Write",   "Pattern", "Text", "Exit", "Undo",
                                    "Redo",    "Send"};
  for (const char* b : kBuiltins) {
    if (word == b) {
      return true;
    }
  }
  return false;
}

Status Help::ExecuteText(std::string_view text, Window* window) {
  OBS_SPAN("help.exec");
  std::vector<std::string> words = Tokenize(text);
  if (words.empty()) {
    return Status::Ok();
  }
  const std::string& cmd = words[0];
  if (IsBuiltin(cmd)) {
    OBS_COUNT("help.exec.builtin", 1);
    std::vector<std::string> args(words.begin() + 1, words.end());
    return ExecBuiltin(cmd, args, window);
  }
  if (HasSuffix(cmd, "!")) {
    OBS_COUNT("help.exec.window_op", 1);
    // Window operations: no arguments, apply to the window they are
    // executed in.
    if (window == nullptr) {
      return Status::Error(cmd + ": no window");
    }
    if (cmd == "Close!") {
      CloseWindow(window);
      return Status::Ok();
    }
    if (cmd == "Put!") {
      return PutWindow(window);
    }
    if (cmd == "Get!") {
      return GetWindow(window);
    }
    if (cmd == "Clone!") {
      // Extension ("multiple windows per file"): another window on the very
      // same body. Edits appear in both; Put! cleans every tag.
      return CloneWindow(window);
    }
    return Status::Error(cmd + ": unknown window command");
  }
  OBS_COUNT("help.exec.external", 1);
  return ExecExternal(text, window);
}

Status Help::ExecBuiltin(const std::string& cmd, const std::vector<std::string>& args,
                         Window* exec_win) {
  if (cmd == "Open") {
    return CmdOpen(args, exec_win);
  }
  if (cmd == "Cut") {
    return CmdCut();
  }
  if (cmd == "Paste") {
    return CmdPaste();
  }
  if (cmd == "Snarf") {
    return CmdSnarf();
  }
  if (cmd == "New") {
    return CmdNew(args);
  }
  if (cmd == "Write") {
    return CmdWrite(args);
  }
  if (cmd == "Pattern") {
    return CmdSearch(args, /*literal=*/false, exec_win);
  }
  if (cmd == "Text") {
    return CmdSearch(args, /*literal=*/true, exec_win);
  }
  if (cmd == "Exit") {
    exited_ = true;
    return Status::Ok();
  }
  if (cmd == "Undo") {
    return CmdUndo(false);
  }
  if (cmd == "Redo") {
    return CmdUndo(true);
  }
  if (cmd == "Send") {
    return CmdSend(exec_win);
  }
  return Status::Error(cmd + ": unknown builtin");
}

Status Help::ExecExternal(std::string_view text, Window* exec_win) {
  OBS_SPAN("help.exec.external");
  // The directory context comes from the tag of the window the command was
  // executed in; commands with no leading slash resolve there first, then in
  // /bin (the shell implements that search order).
  std::string cwd = exec_win != nullptr ? exec_win->ContextDir() : "/";
  Env child = env_.Clone();
  SetHelpselEnv(&child);
  std::string out;
  std::string err;
  Io io;
  io.out = &out;
  io.err = &err;
  auto r = shell_->Run(text, &child, cwd, {}, io);
  if (!r.ok()) {
    AppendErrors(r.message() + "\n");
    return Status::Ok();
  }
  // Standard and error output go to the Errors window.
  if (!out.empty()) {
    AppendErrors(out);
  }
  if (!err.empty()) {
    AppendErrors(err);
  }
  return Status::Ok();
}

void Help::SetHelpselEnv(Env* env) {
  if (current_ != nullptr && current_->window != nullptr) {
    env->SetString("helpsel", StrFormat("%d %zu %zu", current_->window->id(),
                                        current_->sel.q0, current_->sel.q1));
  }
}

// ---------------------------------------------------------------------------
// Built-in commands.

std::string Help::ContextDirForSelection(Window* fallback) {
  Window* w = current_ != nullptr ? current_->window : nullptr;
  if (w == nullptr) {
    w = fallback;
  }
  return w != nullptr ? w->ContextDir() : "/";
}

std::string Help::DefaultFileArg() {
  if (current_ == nullptr) {
    return std::string();
  }
  if (!current_->sel.null()) {
    // A non-null selection disables automatic expansion: taken literally.
    return current_->text->Utf8Range(current_->sel.q0, current_->sel.q1);
  }
  Selection fn = current_->text->ExpandFilename(current_->sel.q0);
  return current_->text->Utf8Range(fn.q0, fn.q1);
}

Status Help::CmdOpen(const std::vector<std::string>& args, Window* exec_win) {
  std::vector<std::string> targets = args;
  if (targets.empty()) {
    std::string def = DefaultFileArg();
    if (def.empty()) {
      return Status::Error("Open: no file name");
    }
    targets.push_back(def);
  }
  std::string context = ContextDirForSelection(exec_win);
  Window* near = current_ != nullptr ? current_->window : exec_win;
  Status last = Status::Ok();
  for (const std::string& t : targets) {
    auto r = OpenFile(t, context, near);
    if (!r.ok()) {
      last = r.status();
    }
  }
  return last;
}

Status Help::CmdCut() {
  if (current_ == nullptr || current_->sel.null()) {
    return Status::Ok();
  }
  Text& t = *current_->text;
  snarf_ = t.Utf8Range(current_->sel.q0, current_->sel.q1);
  t.BeginChange();
  t.Delete(current_->sel.q0, current_->sel.len());
  current_->sel = {current_->sel.q0, current_->sel.q0};
  if (current_->window != nullptr) {
    if (current_->is_tag) {
      current_->Relayout();
    } else {
      TouchBody(current_->window);
    }
  }
  return Status::Ok();
}

Status Help::CmdSnarf() {
  if (current_ == nullptr || current_->sel.null()) {
    return Status::Ok();
  }
  snarf_ = current_->text->Utf8Range(current_->sel.q0, current_->sel.q1);
  return Status::Ok();
}

Status Help::CmdPaste() {
  if (current_ == nullptr) {
    return Status::Ok();
  }
  Text& t = *current_->text;
  RuneString runes = RunesFromUtf8(snarf_);
  t.BeginChange();
  t.Replace(current_->sel.q0, current_->sel.q1, runes);
  current_->sel = {current_->sel.q0, current_->sel.q0 + runes.size()};
  if (current_->window != nullptr) {
    if (current_->is_tag) {
      current_->Relayout();
    } else {
      TouchBody(current_->window);
    }
  }
  return Status::Ok();
}

Status Help::CmdNew(const std::vector<std::string>& args) {
  std::string tagline = Join(args, " ");
  CreateWindow(tagline);
  return Status::Ok();
}

Status Help::CmdWrite(const std::vector<std::string>& args) {
  Window* w = current_ != nullptr ? current_->window : nullptr;
  if (w == nullptr) {
    return Status::Error("Write: no window");
  }
  if (args.empty()) {
    return PutWindow(w);
  }
  std::string path = JoinPath(w->ContextDir(), args[0]);
  Status s = vfs_.WriteFile(path, w->body().text->Utf8());
  if (!s.ok()) {
    return s;
  }
  return Status::Ok();
}

Status Help::CmdSearch(const std::vector<std::string>& args, bool literal,
                       Window* exec_win) {
  Window* w = current_ != nullptr ? current_->window : exec_win;
  if (w == nullptr) {
    return Status::Error("Pattern: no window");
  }
  std::string pattern = args.empty() ? snarf_ : Join(args, " ");
  if (pattern.empty()) {
    return Status::Error("Pattern: no pattern");
  }
  Subwindow& body = w->body();
  const Text& t = *body.text;
  size_t start = body.sel.q1;
  Selection found;
  bool ok = false;
  if (literal) {
    // Streaming Boyer-Moore-Horspool over the gap-buffer spans: no document
    // copy, no O(n·m) RuneString::find.
    RuneString needle = RunesFromUtf8(pattern);
    size_t pos = StreamFindLiteral(t, needle, start);
    if (pos == RuneString::npos && start > 0) {
      pos = StreamFindLiteral(t, needle, 0);  // wrap around
    }
    if (pos != RuneString::npos) {
      found = {pos, pos + needle.size()};
      ok = true;
    }
  } else {
    auto re = RegexpCache::Global().Get(pattern);
    if (!re.ok()) {
      return re.status();
    }
    auto m = StreamSearchWrap(t, *re.value(), start);
    if (m) {
      found = {m->begin, m->end};
      ok = true;
    }
  }
  if (!ok) {
    return Status::Error((literal ? "Text: " : "Pattern: ") + pattern + ": not found");
  }
  body.sel = found;
  current_ = &body;
  body.ShowOffset(found.q0);
  return Status::Ok();
}

Status Help::CmdUndo(bool redo) {
  Window* w = current_ != nullptr ? current_->window : nullptr;
  if (w == nullptr) {
    return Status::Ok();
  }
  size_t touched = 0;
  bool did = redo ? w->body().text->Redo(&touched) : w->body().text->Undo(&touched);
  if (did) {
    TouchBody(w);
    w->body().sel = {std::min(touched, w->body().text->size()),
                     std::min(touched, w->body().text->size())};
  }
  return Status::Ok();
}

// Send: the "traditional shell window" extension the paper lists as future
// work. Takes the current selection (or its whole line when null), runs it
// as a shell command in the window's directory context, and appends the
// output to the same window — so a New window plus typed commands behaves
// like a typescript.
Status Help::CmdSend(Window* exec_win) {
  Window* w = current_ != nullptr ? current_->window : exec_win;
  if (w == nullptr || current_ == nullptr) {
    return Status::Error("Send: no selection");
  }
  Text& body = *current_->text;
  std::string command;
  if (!current_->sel.null()) {
    command = body.Utf8Range(current_->sel.q0, current_->sel.q1);
  } else {
    Selection line = body.LineRange(body.LineAt(current_->sel.q0));
    command = body.Utf8Range(line.q0, line.q1);
  }
  std::string_view trimmed = TrimSpace(command);
  if (trimmed.empty()) {
    return Status::Error("Send: empty command");
  }
  Env child = env_.Clone();
  SetHelpselEnv(&child);
  std::string out;
  std::string err;
  Io io;
  io.out = &out;
  io.err = &err;
  auto r = shell_->Run(trimmed, &child, w->ContextDir(), {}, io);
  std::string result = out + err;
  if (!r.ok()) {
    result += r.message() + "\n";
  }
  Text& target = *w->body().text;
  if (target.size() > 0 && target.At(target.size() - 1) != '\n') {
    target.InsertNoUndo(target.size(), U"\n");
  }
  target.InsertNoUndo(target.size(), RunesFromUtf8(result));
  w->body().sel = {target.size(), target.size()};
  current_ = &w->body();
  w->body().ShowOffset(target.size() > 0 ? target.size() - 1 : 0);
  TouchBody(w);
  return Status::Ok();
}

Status Help::CloneWindow(Window* w) {
  int id = NextWindowId();
  auto tag = std::make_shared<Text>(w->tag().text->Utf8());
  Window* clone = page_->Create(id, tag, w->body().text, -1, w);
  auto it = wins_.find(w->id());
  Track(clone, it != wins_.end() ? it->second.filename : std::string());
  UpdateDirtyTag(clone);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Windows and files.

std::shared_ptr<Text> Help::BodyForFile(const std::string& fullpath) {
  auto it = bodies_.find(fullpath);
  if (it != bodies_.end()) {
    if (auto live = it->second.lock()) {
      return live;
    }
    bodies_.erase(it);
  }
  auto body = std::make_shared<Text>();
  auto data = vfs_.ReadFile(fullpath);
  if (data.ok()) {
    body->SetAll(data.value());
  }
  bodies_[fullpath] = body;
  return body;
}

Window* Help::WindowForFile(std::string_view fullpath) {
  for (auto& [id, st] : wins_) {
    if (st.filename == fullpath) {
      return st.window;
    }
  }
  return nullptr;
}

Result<Window*> Help::OpenFile(std::string_view name, std::string_view context_dir,
                               Window* near, int col_hint) {
  OBS_SPAN("help.open");
  FileAddress fa = SplitFileAddress(name);
  if (fa.file.empty()) {
    return Status::Error("Open: empty file name");
  }
  std::string full = JoinPath(context_dir, fa.file);
  auto node = vfs_.Walk(full);
  if (!node.ok()) {
    return node.status();
  }
  bool is_dir = node.value()->dir();
  std::string key = is_dir && full != "/" ? full + "/" : full;

  if (Window* existing = WindowForFile(key)) {
    // "the command just guarantees that its window is visible"
    int col = page_->ColumnOf(existing);
    if (col >= 0) {
      page_->col(col).MakeVisible(existing);
    }
    if (!fa.addr.empty()) {
      SelectAddress(existing, fa.addr);
    } else {
      current_ = &existing->body();
    }
    return existing;
  }

  std::shared_ptr<Text> body;
  std::string display = key;
  if (is_dir) {
    // "help puts its name, including a final slash, in the tag and just
    // lists the contents in the body"
    body = std::make_shared<Text>();
    auto entries = vfs_.ReadDir(full);
    std::string listing;
    if (entries.ok()) {
      for (const StatInfo& e : entries.value()) {
        listing += e.name + (e.dir ? "/" : "") + "\n";
      }
    }
    body->SetAll(listing);
  } else {
    body = BodyForFile(full);
  }
  int id = NextWindowId();
  auto tag = std::make_shared<Text>(display + " Close! Get!");
  Window* w = page_->Create(id, tag, body, col_hint, near);
  Track(w, key);
  if (!fa.addr.empty()) {
    SelectAddress(w, fa.addr);
  } else {
    current_ = &w->body();
    w->body().sel = {0, 0};
  }
  return w;
}

void Help::SelectAddress(Window* w, std::string_view addr) {
  OBS_SPAN("help.address");
  OBS_COUNT("help.address.resolves", 1);
  auto sel = EvalAddress(*w->body().text, addr);
  if (!sel.ok()) {
    AppendErrors(sel.message() + "\n");
    return;
  }
  w->body().sel = sel.value();
  current_ = &w->body();
  w->body().ShowOffset(sel.value().q0);
}

Window* Help::CreateWindow(std::string_view tagline, int col_hint) {
  int id = NextWindowId();
  std::string tagtext(tagline);
  if (tagtext.empty()) {
    tagtext = "Close!";
  }
  auto tag = std::make_shared<Text>(tagtext);
  auto body = std::make_shared<Text>();
  Window* near = current_ != nullptr ? current_->window : nullptr;
  Window* w = page_->Create(id, tag, body, col_hint, near);
  Track(w, std::string());
  return w;
}

void Help::CloseWindow(Window* w) {
  if (w == nullptr) {
    return;
  }
  Untrack(w);
  if (errors_ == w) {
    errors_ = nullptr;
  }
  if (current_ == &w->tag() || current_ == &w->body()) {
    current_ = nullptr;
  }
  if (last_exec_win_ == w) {
    last_exec_win_ = nullptr;
    last_exec_sub_ = nullptr;
  }
  page_->Remove(w);  // destroys the Window
}

void Help::Track(Window* w, std::string filename) {
  wins_[w->id()] = {w, std::move(filename)};
  body_windows_[w->body().text.get()].push_back(w);
  counters_.windows_created++;
  RegisterWindowFiles(w);
}

void Help::Untrack(Window* w) {
  UnregisterWindowFiles(w);
  wins_.erase(w->id());
  auto it = body_windows_.find(w->body().text.get());
  std::erase(it->second, w);
  if (it->second.empty()) {
    body_windows_.erase(it);
  }
}

Status Help::PutWindow(Window* w) {
  std::string name = w->TagFilename();
  if (name.empty() || HasSuffix(name, "/")) {
    return Status::Error("Put!: no file name in tag");
  }
  Status s = vfs_.WriteFile(name, w->body().text->Utf8());
  if (!s.ok()) {
    return s;
  }
  w->body().text->set_dirty(false);
  // Every window on this body becomes clean.
  for (Window* v : body_windows_.at(w->body().text.get())) {
    UpdateDirtyTag(v);
  }
  return Status::Ok();
}

Status Help::GetWindow(Window* w) {
  std::string name = w->TagFilename();
  if (name.empty()) {
    return Status::Error("Get!: no file name in tag");
  }
  if (HasSuffix(name, "/")) {
    // Re-list the directory.
    auto entries = vfs_.ReadDir(CleanPath(name));
    if (!entries.ok()) {
      return entries.status();
    }
    std::string listing;
    for (const StatInfo& e : entries.value()) {
      listing += e.name + (e.dir ? "/" : "") + "\n";
    }
    w->body().text->SetAll(listing);
  } else {
    auto data = vfs_.ReadFile(name);
    if (!data.ok()) {
      return data.status();
    }
    w->body().text->SetAll(data.value());
  }
  TouchBody(w);
  return Status::Ok();
}

void Help::AppendErrors(std::string_view text) {
  if (text.empty()) {
    return;
  }
  OBS_COUNT("help.errors.appends", 1);
  if (errors_ == nullptr) {
    int id = NextWindowId();
    auto tag = std::make_shared<Text>("Errors Close!");
    auto body = std::make_shared<Text>();
    Window* near = current_ != nullptr ? current_->window : nullptr;
    errors_ = page_->Create(id, tag, body, -1, near);
    Track(errors_, std::string());
  }
  Text& body = *errors_->body().text;
  body.InsertNoUndo(body.size(), RunesFromUtf8(text));
  errors_->body().ShowOffset(body.size() > 0 ? body.size() - 1 : 0);
  errors_->Relayout();
}

void Help::UpdateDirtyTag(Window* w) {
  std::string name = w->TagFilename();
  bool should = w->body().text->dirty() && !name.empty() && !HasSuffix(name, "/") &&
                name != "Errors";
  Text& tag = *w->tag().text;
  std::string cur = tag.Utf8();
  bool has = cur.find("Put!") != std::string::npos;
  if (should && !has) {
    tag.InsertNoUndo(tag.size(), RunesFromUtf8(" Put!"));
  } else if (!should && has) {
    size_t pos = cur.find(" Put!");
    size_t len = 5;
    if (pos == std::string::npos) {
      pos = cur.find("Put!");
      len = 4;
    }
    // Tag text is ASCII here, so byte offsets equal rune offsets.
    tag.DeleteNoUndo(pos, len);
  }
  w->tag().Relayout();
}

void Help::TouchBody(Window* w) {
  for (Window* v : body_windows_.at(w->body().text.get())) {
    size_t n = v->body().text->size();
    v->body().sel.q0 = std::min(v->body().sel.q0, n);
    v->body().sel.q1 = std::min(v->body().sel.q1, n);
    UpdateDirtyTag(v);
    v->Relayout();
  }
}

std::vector<Window*> Help::AllWindows() {
  std::vector<Window*> out;
  for (auto& [id, st] : wins_) {
    out.push_back(st.window);
  }
  return out;
}

Window* Help::FindWindow(int id) {
  auto it = wins_.find(id);
  return it == wins_.end() ? nullptr : it->second.window;
}

// ---------------------------------------------------------------------------
// Rendering & inspection.

std::string Help::Render(bool annotated, bool show_last_exec) {
  if (show_last_exec && last_exec_sub_ != nullptr) {
    page_->Draw(current_, &last_exec_sel_, last_exec_sub_);
  } else {
    page_->Draw(current_);
  }
  return annotated ? page_->screen().RenderAnnotated() : page_->screen().Render();
}

Point Help::FindOnScreen(std::string_view needle, int occurrence) {
  page_->Draw(current_);
  Screen& screen = page_->screen();
  return screen.Find(screen.bounds(), RunesFromUtf8(needle), occurrence);
}

Point Help::FindInWindow(const Window* w, std::string_view needle, int occurrence) {
  if (w == nullptr || w->hidden()) {
    return {-1, -1};
  }
  // Columns tile and the windows of a column do not overlap, so painting
  // `w` alone leaves its rect exactly as a full repaint would.
  w->Draw(&page_->screen(), current_);
  return page_->screen().Find(w->rect(), RunesFromUtf8(needle), occurrence);
}

}  // namespace help
