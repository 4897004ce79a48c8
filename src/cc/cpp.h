// The preprocessor's source table. Within one command, each file is walked,
// read and lexed once: one CLex pass yields its tokens and its #include
// directives. A file only ever rendered as text is scanned for its includes
// and keeps no tokens. A translation unit is then the root file's tokens with each
// include's tokens spliced in where the directive stood, include-once per
// unit. #include "file" looks beside the including file, then in
// /sys/include; #include <file> looks only in /sys/include. Each
// (including directory, name, kind) is resolved once per table.
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

class CSources {
 public:
  // With `names`, identifiers are interned there as each file is lexed.
  explicit CSources(const Vfs& vfs, CNames* names = nullptr) : vfs_(vfs), names_(names) {}
  // Not copyable or movable: the maps point into files_, and tokens view it.
  CSources(const CSources&) = delete;
  CSources& operator=(const CSources&) = delete;

  const Vfs& vfs() const { return vfs_; }

  // Replaces `*out` with the tokens of the unit rooted at `path`, ending
  // with the root file's kEof. They view strings this table owns, so they
  // are valid while it lives. Unresolvable <system> includes are skipped
  // (the browser treats their symbols as implicit externs); unresolvable
  // "local" includes are an error.
  Status Tokens(std::string_view path, std::vector<CToken>* out);

  // Replaces `*out` with the unit rooted at `path` rendered as text.
  Status Text(std::string_view path, std::string* out);

 private:
  struct File {
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
  // Appends `f`, its includes expanded, to whichever of `toks` and `text`
  // is set.
  Status Expand(File* f, std::vector<CToken>* toks, std::string* text, int depth);
  Status Walk(std::string_view path, std::vector<CToken>* toks, std::string* text);

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
