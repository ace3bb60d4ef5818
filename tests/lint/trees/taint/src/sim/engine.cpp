// Deterministic core laundering nondeterminism through src/common: the
// checker must report tick() (where taint enters the core) with the full
// chain, and must NOT also report step() (core-internal caller).
#include "common/timing.hpp"
namespace fx::sim {
long tick() { return fx::common::now_ms(); }
long step() { return tick() + 1; }
}
