// Debug-build lock-order checking for the dispatch lock. The order is
// strict:
//
//   level 10  dispatch lock     (NinepServer::dispatch_mu_)
//   level 20  leaf locks        (fid_mu_, tag_mu_, state_mu_, ...)
//
// A thread may only acquire a lock whose level is strictly greater than the
// highest level it already holds; leaves never nest with each other. A leaf
// held across a call that takes the dispatch lock deadlocks in production
// but only under the right timing — so debug builds (cmake
// -DHELP_LOCK_ASSERT=ON, wired into the CI sanitizer matrix) record a
// thread-local stack of held levels and abort on the first out-of-order
// acquisition instead.
//
// The order is per NinepServer INSTANCE. A handler dispatched by one server
// may serialize against a different server over the same Vfs (the
// SerializedHandler wrappers take Help's own server's LockDispatch even when
// the bytes arrived through a test- or tool-owned NinepServer). That nested
// acquire starts a fresh *frame*: ordering is enforced within a frame, and a
// frame boundary resets the comparison point, because locks from different
// server instances are different hierarchies. Frames are opened explicitly
// by the one caller that can tell (NinepServer::LockDispatch sees a foreign
// server's dispatch already on this thread).
//
// Usage: declare a LockOrderScope on the stack immediately after (or while)
// taking the lock it describes. When HELP_LOCK_ASSERT is not defined the
// type is an empty no-op and costs nothing.
#ifndef SRC_FS_LOCKORDER_H_
#define SRC_FS_LOCKORDER_H_

#ifdef HELP_LOCK_ASSERT
#include <cstdio>
#include <cstdlib>
#endif

namespace help {

// Lock levels, in required acquisition order.
enum LockLevel : int {
  kLockLevelDispatch = 10,
  kLockLevelLeaf = 20,
};

#ifdef HELP_LOCK_ASSERT

namespace lockorder_internal {
// The per-thread stack of held lock levels. Depth 16 covers two full nested
// frames with slack; overflowing it is itself a bug. A negative entry marks
// a frame base: it holds -level, and ordering is only checked against
// entries above the most recent base.
struct HeldStack {
  int levels[16];
  int depth = 0;
};
inline thread_local HeldStack tls_held;

[[noreturn]] inline void LockOrderViolation(int held, int acquiring) {
  std::fprintf(stderr,
               "help: lock-order violation: acquiring level %d while holding "
               "level %d (required order: dispatch=10 < leaf=20, strictly "
               "increasing)\n",
               acquiring, held);
  std::abort();
}
}  // namespace lockorder_internal

// Record an acquisition/release directly — for locks whose hold outlives a
// lexical scope (NinepServer::DispatchGuard). Releases must stay LIFO per
// thread, which every caller in this codebase satisfies by construction.
// `new_frame` marks the acquisition as entering a different server
// instance's hierarchy (see the header comment): it is exempt from the
// ordering check and becomes the floor for subsequent checks until released.
inline void LockOrderAcquired(int level, bool new_frame = false) {
  auto& held = lockorder_internal::tls_held;
  if (!new_frame && held.depth > 0) {
    int top = held.levels[held.depth - 1];
    if (top > 0 && level <= top) {
      lockorder_internal::LockOrderViolation(top, level);
    }
  }
  if (held.depth < 16) held.levels[held.depth] = new_frame ? -level : level;
  held.depth++;
}
inline void LockOrderReleased() { lockorder_internal::tls_held.depth--; }

// RAII witness that this thread holds a lock of the given level. Push-time
// checks enforce the strictly-increasing rule; leaves additionally may not
// nest with other leaves.
class LockOrderScope {
 public:
  explicit LockOrderScope(int level) { LockOrderAcquired(level); }
  ~LockOrderScope() { LockOrderReleased(); }
  LockOrderScope(const LockOrderScope&) = delete;
  LockOrderScope& operator=(const LockOrderScope&) = delete;
};

#else  // !HELP_LOCK_ASSERT

inline void LockOrderAcquired(int, bool = false) {}
inline void LockOrderReleased() {}

class LockOrderScope {
 public:
  explicit LockOrderScope(int) {}
  LockOrderScope(const LockOrderScope&) = delete;
  LockOrderScope& operator=(const LockOrderScope&) = delete;
};

#endif  // HELP_LOCK_ASSERT

}  // namespace help

#endif  // SRC_FS_LOCKORDER_H_
