// Same core as the taint tree, but the helper's seed line carries
// allow(taint): the hatch stops the seed, so neither tick() nor step()
// is reported.
#include "common/timing.hpp"
namespace fx::sim {
long tick() { return fx::common::now_ms(); }
long step() { return tick() + 1; }
}
