#include "dtnsim/util/strfmt.hpp"

#include <cstdio>
#include <vector>

namespace dtnsim {

std::string vstrfmt(const char* fmt, std::va_list args) {
  std::va_list copy;
  va_copy(copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  if (n <= 0) return {};
  std::string out(static_cast<std::size_t>(n), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  return out;
}

std::string strfmt(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::string out = vstrfmt(fmt, args);
  va_end(args);
  return out;
}

void append_g(std::string& out, double v, int precision) {
  // "-2.2250738585072014e-308" is 24 chars, the longest %.17g text.
  char buf[32];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general,
                                precision).ptr);
}

}  // namespace dtnsim
