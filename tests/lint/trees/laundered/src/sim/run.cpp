// Deterministic core laundering a POSIX clock read through src/common: the
// helper's file is outside the deterministic paths, so only the taint pass
// sees that run_step() reads the host clock.
#include "common/util.hpp"
namespace fx::sim {
long run_step() { return fx::common::now_ns(); }
}
