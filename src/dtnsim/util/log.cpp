#include "dtnsim/util/log.hpp"

#include <atomic>
#include <cctype>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "dtnsim/util/strfmt.hpp"

namespace dtnsim::log {
namespace {

// The level is process-wide and may be read from any pool thread while the
// main thread (or DTNSIM_LOG pickup) writes it; relaxed atomics suffice — a
// message racing a level change may use either level, never torn state.
std::atomic<Level> g_level{Level::Warn};
std::atomic<bool> g_env_checked{false};
std::once_flag g_env_once;
// Each engine binds the clock of the run *it* is driving; on the shared
// fork-join pool several engines run concurrently, so the binding is
// per-thread.
thread_local TimeSource g_time_source;

// One-time DTNSIM_LOG pickup; an explicit set_level() also marks the env as
// consumed so callers always win over the environment.
void ensure_env_level() {
  if (g_env_checked.load(std::memory_order_relaxed)) return;
  std::call_once(g_env_once, [] {
    if (g_env_checked.exchange(true)) return;  // set_level() beat us to it
    const char* env = std::getenv("DTNSIM_LOG");
    if (!env || !*env) return;
    Level parsed;
    if (parse_level(env, &parsed)) {
      g_level.store(parsed, std::memory_order_relaxed);
    } else {
      std::fprintf(stderr, "[dtnsim WARN] DTNSIM_LOG=%s not recognized "
                           "(debug|info|warn|error|off)\n", env);
    }
  });
}

const char* level_name(Level level) {
  switch (level) {
    case Level::Debug:
      return "DEBUG";
    case Level::Info:
      return "INFO";
    case Level::Warn:
      return "WARN";
    case Level::Error:
      return "ERROR";
    case Level::Off:
      return "OFF";
  }
  return "?";
}

}  // namespace

bool parse_level(const std::string& name, Level* out) {
  std::string lower;
  lower.reserve(name.size());
  for (char c : name) lower += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  if (lower == "debug") *out = Level::Debug;
  else if (lower == "info") *out = Level::Info;
  else if (lower == "warn" || lower == "warning") *out = Level::Warn;
  else if (lower == "error") *out = Level::Error;
  else if (lower == "off" || lower == "none") *out = Level::Off;
  else return false;
  return true;
}

void set_level(Level level) {
  g_env_checked.store(true, std::memory_order_relaxed);
  g_level.store(level, std::memory_order_relaxed);
}

Level level() {
  ensure_env_level();
  return g_level.load(std::memory_order_relaxed);
}

TimeSource bind_time_source(TimeSource source) {
  TimeSource previous = std::move(g_time_source);
  g_time_source = std::move(source);
  return previous;
}

void write(Level lvl, const std::string& msg) {
  if (lvl < level()) return;
  if (g_time_source) {
    std::fprintf(stderr, "[dtnsim %s t=%.6fs] %s\n", level_name(lvl),
                 units::to_seconds(g_time_source()), msg.c_str());
  } else {
    std::fprintf(stderr, "[dtnsim %s] %s\n", level_name(lvl), msg.c_str());
  }
}

#define DTNSIM_LOG_IMPL(fn, lvl)                 \
  void fn(const char* fmt, ...) {                \
    if (lvl < level()) return;                   \
    std::va_list args;                           \
    va_start(args, fmt);                         \
    write(lvl, vstrfmt(fmt, args));              \
    va_end(args);                                \
  }

DTNSIM_LOG_IMPL(debug, Level::Debug)
DTNSIM_LOG_IMPL(info, Level::Info)
DTNSIM_LOG_IMPL(warn, Level::Warn)
DTNSIM_LOG_IMPL(error, Level::Error)

#undef DTNSIM_LOG_IMPL

}  // namespace dtnsim::log
