// Path algebra for the Plan 9-style namespace: absolute, slash-separated,
// case-sensitive paths. Cleaning resolves "." and ".." lexically (the VFS has
// no symlinks, so lexical resolution is exact).
#ifndef SRC_FS_PATH_H_
#define SRC_FS_PATH_H_

#include <string>
#include <string_view>

namespace help {

// Lexically canonicalizes: collapses //, resolves . and .., strips trailing
// slash (except for "/"). A cleaned relative path stays relative. A path
// that is already clean is copied as it is.
std::string CleanPath(std::string_view path);

// Whether CleanPath(path) == path.
bool IsCleanPath(std::string_view path);

// Joins and cleans. If `name` is absolute it wins outright — this is exactly
// help's context rule: relative names get the window's directory prepended,
// absolute names are taken literally. Joining a clean name to a clean
// directory cleans nothing.
std::string JoinPath(std::string_view dir, std::string_view name);

// Final element ("base name") of a cleaned path.
std::string BasePath(std::string_view path);

// Everything but the final element; "/" for top-level names. This is the
// "directory from the tag" used for command and file-name context.
std::string DirPath(std::string_view path);

bool IsAbsPath(std::string_view path);

// The elements of CleanPath(path): "/a//b/../c/" yields "a" then "c", and
// "/" yields none. As in the cleaned form, a relative path keeps its leading
// ".."s, and one that cleans to "." yields ".". A path with no ".." in it
// is split in place in one pass, dropping "" and "." elements as it goes;
// any other is cleaned once into the reader first. The views are valid
// while both the reader and `path` live.
class CleanElements {
 public:
  explicit CleanElements(std::string_view path);
  CleanElements(const CleanElements&) = delete;
  CleanElements& operator=(const CleanElements&) = delete;
  // Sets *elem to the next element; false when there are no more.
  bool Next(std::string_view* elem);

 private:
  std::string clean_;      // CleanPath(path) when path has a ".."
  std::string_view path_;  // path, or clean_
  size_t pos_ = 0;         // start of the next element
  bool yielded_ = false;   // an element was handed out
};

}  // namespace help

#endif  // SRC_FS_PATH_H_
