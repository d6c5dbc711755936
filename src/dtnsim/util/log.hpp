// Leveled logging to stderr. Quiet by default so bench output stays clean.
//
// The level initializes from the DTNSIM_LOG environment variable on first
// use (debug | info | warn | error | off, case-insensitive); set_level()
// overrides it. When a simulation engine is running it binds a time source
// (see bind_time_source) and every message gains a "t=1.204s" prefix, so
// debug logs line up with probe samples and trace timestamps.
#pragma once

#include <functional>
#include <string>

#include "dtnsim/units/units.hpp"

namespace dtnsim::log {

enum class Level { Debug = 0, Info = 1, Warn = 2, Error = 3, Off = 4 };

void set_level(Level level);
Level level();

// Parse a DTNSIM_LOG-style name; returns false on garbage (level untouched).
bool parse_level(const std::string& name, Level* out);

// Bind/unbind the simulated-clock source used to prefix messages. The
// engine binds itself for the duration of run()/run_until(); nested runs
// restore the previous source. Returns the previously bound source.
// The binding is thread-local: each sweep worker's engine stamps only the
// messages emitted from its own thread, so concurrent runs never cross
// clocks (and never race on the binding).
using TimeSource = std::function<Nanos()>;
TimeSource bind_time_source(TimeSource source);

void write(Level level, const std::string& msg);

#if defined(__GNUC__)
__attribute__((format(printf, 1, 2)))
#endif
void debug(const char* fmt, ...);
#if defined(__GNUC__)
__attribute__((format(printf, 1, 2)))
#endif
void info(const char* fmt, ...);
#if defined(__GNUC__)
__attribute__((format(printf, 1, 2)))
#endif
void warn(const char* fmt, ...);
#if defined(__GNUC__)
__attribute__((format(printf, 1, 2)))
#endif
void error(const char* fmt, ...);

// RAII helper: binds a time source for a scope, restores the previous one.
class ScopedTimeSource {
 public:
  explicit ScopedTimeSource(TimeSource source)
      : previous_(bind_time_source(std::move(source))) {}
  ~ScopedTimeSource() { bind_time_source(std::move(previous_)); }
  ScopedTimeSource(const ScopedTimeSource&) = delete;
  ScopedTimeSource& operator=(const ScopedTimeSource&) = delete;

 private:
  TimeSource previous_;
};

}  // namespace dtnsim::log
