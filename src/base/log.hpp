// Minimal leveled logger for the simulator. Off (kWarn) by default so test
// and benchmark output stays clean; tests that diagnose protocol behaviour
// raise the level locally.
#pragma once

#include <cstdarg>
#include <cstdio>

#include "base/time.hpp"

namespace splap {

enum class LogLevel { kError = 0, kWarn = 1, kInfo = 2, kDebug = 3 };

class Log {
 public:
  static LogLevel& level() {
    static LogLevel lvl = LogLevel::kWarn;
    return lvl;
  }

  static bool enabled(LogLevel lvl) { return lvl <= level(); }

  // printf-style; `when` is the virtual time of the event being logged
  // (kNoTime when outside the simulation).
  [[gnu::format(printf, 3, 4)]]
  static void write(LogLevel lvl, Time when, const char* fmt, ...) {
    if (!enabled(lvl)) return;
    if (when == kNoTime) {
      std::fprintf(stderr, "[%s] ", tag(lvl));
    } else {
      std::fprintf(stderr, "[%s %10.3fus] ", tag(lvl), to_us(when));
    }
    va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    va_end(ap);
    std::fputc('\n', stderr);
  }

 private:
  static const char* tag(LogLevel lvl) {
    switch (lvl) {
      case LogLevel::kError: return "E";
      case LogLevel::kWarn: return "W";
      case LogLevel::kInfo: return "I";
      case LogLevel::kDebug: return "D";
    }
    return "?";
  }
};

}  // namespace splap

#define SPLAP_LOG(lvl, when, ...)                            \
  do {                                                       \
    if (::splap::Log::enabled(lvl))                          \
      ::splap::Log::write((lvl), (when), __VA_ARGS__);       \
  } while (false)

#define SPLAP_DEBUG(when, ...) \
  SPLAP_LOG(::splap::LogLevel::kDebug, (when), __VA_ARGS__)
#define SPLAP_INFO(when, ...) \
  SPLAP_LOG(::splap::LogLevel::kInfo, (when), __VA_ARGS__)
#define SPLAP_WARN(when, ...) \
  SPLAP_LOG(::splap::LogLevel::kWarn, (when), __VA_ARGS__)
