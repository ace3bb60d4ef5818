#include "common/util.hpp"
#include <time.h>
namespace fx::common {
long now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return ts.tv_sec * 1000000000L + ts.tv_nsec;
}
}
