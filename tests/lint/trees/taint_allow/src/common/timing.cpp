#include "common/timing.hpp"
#include <chrono>
namespace fx::common {
long now_ms() {
  // Feeds a report timestamp only, never simulation state.
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now()  // simty-lint: allow(taint)
                 .time_since_epoch())
      .count();
}
}
