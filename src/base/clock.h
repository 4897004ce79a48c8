// Deterministic clock: the whole system (file mtimes, mail timestamps, mk's
// out-of-date checks) runs on a logical tick counter so that tests and the
// figure benches are exactly reproducible. One tick ~ one second.
#ifndef SRC_BASE_CLOCK_H_
#define SRC_BASE_CLOCK_H_

#include <atomic>
#include <cstdint>

namespace help {

class Clock {
 public:
  // Returns the current logical time without advancing it. Internally a
  // relaxed atomic: trace events are stamped with the tick from other
  // threads (the socket listener's loop) while the owning thread advances
  // it, and no ordering beyond the tick value itself is implied (trace
  // readers order by sequence number).
  uint64_t Now() const { return now_.load(std::memory_order_relaxed); }
  // Advances the clock and returns the new time. Every mutating file
  // operation calls Tick() so that "modified after" relations are total.
  uint64_t Tick() { return now_.fetch_add(1, std::memory_order_relaxed) + 1; }
  void Set(uint64_t t) { now_.store(t, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> now_{671803200};  // Tue Apr 16 1991, Sean's mail
};

}  // namespace help

#endif  // SRC_BASE_CLOCK_H_
