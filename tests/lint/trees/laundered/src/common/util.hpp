#pragma once
// Innocent-looking helper: the POSIX clock read hides in the .cpp.
namespace fx::common {
long now_ns();
}
