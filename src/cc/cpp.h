// The preprocessor's source table. Within one command, each file is walked,
// read and lexed once: one CLex pass yields its tokens and its #include
// directives. A file only ever rendered as text is scanned for its includes
// and keeps no tokens. A translation unit is then the root file's tokens
// with each include's tokens read where the directive stood, include-once
// per unit: a CUnit lists those tokens in place, as runs of the files' own
// token lists, and no token is copied. #include "file" looks beside the
// including file, then in /sys/include; #include <file> looks only in
// /sys/include. Each (including directory, name, kind) is resolved once per
// table.
//
// `cpp` renders the same walk as text: every included file opens with a
// `#line 1 "file"` marker and the including file resumes after a
// `#line N "file"` marker, so the lexer keeps exact source coordinates. All
// other lines pass through untouched; the lexer skips remaining directives.
//
// A comment or a continued directive ends at the end of its file, as in C.
#ifndef SRC_CC_CPP_H_
#define SRC_CC_CPP_H_

#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/status.h"
#include "src/cc/clex.h"
#include "src/fs/vfs.h"

namespace help {

// A translation unit as the parser reads it: its tokens, in order, as runs
// that view the token lists of the files they come from, and the runs each
// header the unit expands covers.
struct CUnit {
  struct Run {
    const CToken* begin;
    const CToken* end;
    size_t at;  // the index of *begin among the unit's tokens
  };
  struct Header {
    int file;      // the header's id in its table
    size_t first;  // it covers runs[first, last)
    size_t last;
    size_t inner;  // the headers it expands are those after it, up to headers[inner]
  };
  std::vector<Run> runs;        // none empty; the last ends with the root file's kEof
  std::vector<Header> headers;  // in the order the unit enters them

  // Appends [begin, end) as a run, unless it is empty.
  void Add(const CToken* begin, const CToken* end);
  // The index, among the unit's tokens, of the first token of runs[run]
  // (of the end, for runs.size()).
  size_t At(size_t run) const {
    if (run < runs.size()) {
      return runs[run].at;
    }
    return runs.empty() ? 0 : runs.back().at + static_cast<size_t>(runs.back().end - runs.back().begin);
  }
};

class CSources {
 public:
  // With `names`, identifiers are interned there as each file is lexed.
  explicit CSources(const Vfs& vfs, CNames* names = nullptr) : vfs_(vfs), names_(names) {}
  // Not copyable or movable: the maps point into files_, and tokens view it.
  CSources(const CSources&) = delete;
  CSources& operator=(const CSources&) = delete;

  const Vfs& vfs() const { return vfs_; }

  // Replaces `*out` with the unit rooted at `path`, ending with the root
  // file's kEof. Its tokens are this table's, valid while it lives.
  // Unresolvable <system> includes are skipped (the browser treats their
  // symbols as implicit externs); unresolvable "local" includes are an
  // error.
  Status Unit(std::string_view path, CUnit* out);

  // Replaces `*out` with the unit rooted at `path` rendered as text.
  Status Text(std::string_view path, std::string* out);

 private:
  struct File {
    int id = 0;        // its index in files_
    std::string path;  // cleaned
    std::string dir;
    std::string text;  // the file's bytes and one more newline
    bool scanned = false;  // includes holds its directives
    bool lexed = false;    // toks holds its tokens, and includes their indexes
    std::vector<CToken> toks;
    std::vector<CInclude> includes;
    int unit = 0;  // the last unit that included it
  };

  // The file at `path`, read on first use; null if no file is there.
  Result<File*> Load(const std::string& path);
  // Finds f's includes, and with `tokens` its tokens too, once each.
  Status Scan(File* f, bool tokens);
  // The file `inc` in `from` names; null if no candidate exists.
  Result<File*> Resolve(const File& from, const CInclude& inc);
  // Appends `f`, its includes expanded, to whichever of `unit` and `text`
  // is set.
  Status Expand(File* f, CUnit* unit, std::string* text, int depth);
  Status Walk(std::string_view path, CUnit* unit, std::string* text);

  const Vfs& vfs_;
  CNames* names_;
  std::deque<File> files_;  // a deque: tokens view its strings, which must not move
  std::unordered_map<std::string, File*> by_path_;
  std::unordered_map<std::string, File*> resolved_;  // kind, directory and name -> file
  std::string key_;  // Resolve's lookup key, a member so its buffer is reused
  int unit_ = 0;      // the serial number of the unit being walked
};

// Preprocesses `path` from `vfs` into one text with #line markers.
Result<std::string> Preprocess(const Vfs& vfs, std::string_view path);

}  // namespace help

#endif  // SRC_CC_CPP_H_
