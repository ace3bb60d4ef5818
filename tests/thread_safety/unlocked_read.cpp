// Must NOT compile under clang -Wthread-safety -Werror=thread-safety with
// libc++'s annotations (the CI clang-tidy job's thread-safety step): it
// reads a SIMTY_GUARDED_BY member without holding its mutex. The step
// requires this file to fail, proving the lock gate fires. Not part of the
// CMake build.
#include <mutex>

#include "common/annotations.hpp"

class Counter {
 public:
  void add() {
    std::lock_guard<std::mutex> lock(mutex_);
    ++value_;
  }
  int unlocked_read() const { return value_; }

 private:
  mutable std::mutex mutex_;
  int value_ SIMTY_GUARDED_BY(mutex_) = 0;
};

int main() {
  Counter c;
  c.add();
  return c.unlocked_read();
}
