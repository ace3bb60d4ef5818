#pragma once
// Minimal leveled logger.
//
// The simulator is mostly silent; logging exists for the trace hooks the
// paper inserted into AlarmManager/WakeLock ("to profile each app's behavior
// ... log every alarm's time attributes and hardware usage at runtime") and
// for debugging experiment harnesses. Output goes to an injectable sink so
// tests can capture it.
//
// The macros are lazy: a message is evaluated only at an enabled level, so a
// SIMTY_DEBUG(str_format(...)) on a hot path costs one relaxed atomic load
// while the level is above kDebug (the default).
//
// Each Simulator is single-threaded, but the parallel experiment runner
// executes many simulators at once and they all share this singleton — so
// the level is atomic and the sink is called under a mutex (which also
// keeps concurrent runs' lines from interleaving mid-message).

#include <atomic>
#include <functional>
#include <mutex>
#include <string>

#include "common/annotations.hpp"

namespace simty {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Process-wide, thread-safe logger.
class Logger {
 public:
  using Sink = std::function<void(LogLevel, const std::string&)>;

  /// The global instance used by the SIMTY_LOG macros.
  static Logger& instance();

  /// Messages below `level` are dropped. Default: kWarn (quiet benches).
  void set_level(LogLevel level) { level_.store(level, std::memory_order_relaxed); }
  LogLevel level() const { return level_.load(std::memory_order_relaxed); }

  /// True if a message at `level` would reach the sink.
  bool enabled(LogLevel level) const {
    const LogLevel threshold = this->level();
    return level >= threshold && threshold != LogLevel::kOff;
  }

  /// Replaces the output sink (default writes to stderr). Pass nullptr to
  /// restore the default sink. The sink itself is invoked under the logger
  /// mutex, so it need not be reentrant — but a sink installed while
  /// parallel runs are in flight will observe their interleaved messages.
  void set_sink(Sink sink);

  /// Sends `msg` to the sink if `level` is enabled.
  void log(LogLevel level, const std::string& msg);

 private:
  Logger();
  std::atomic<LogLevel> level_{LogLevel::kWarn};
  std::mutex mutex_;
  Sink sink_ SIMTY_GUARDED_BY(mutex_);  // replacement and invocation both lock
};

const char* to_string(LogLevel level);

}  // namespace simty

// One statement; `msg` is evaluated only when `level` is enabled.
#define SIMTY_LOG(level, msg)                                   \
  do {                                                          \
    if (::simty::Logger::instance().enabled(level)) {           \
      ::simty::Logger::instance().log((level), (msg));          \
    }                                                           \
  } while (0)
#define SIMTY_DEBUG(msg) SIMTY_LOG(::simty::LogLevel::kDebug, (msg))
#define SIMTY_INFO(msg) SIMTY_LOG(::simty::LogLevel::kInfo, (msg))
#define SIMTY_WARN(msg) SIMTY_LOG(::simty::LogLevel::kWarn, (msg))
#define SIMTY_ERROR(msg) SIMTY_LOG(::simty::LogLevel::kError, (msg))
