// Minimal printf-style formatting into std::string, and the two number
// writers the canonical spec text and Json::dump share.
#pragma once

#include <charconv>
#include <cstdarg>
#include <string>

namespace dtnsim {

#if defined(__GNUC__)
__attribute__((format(printf, 1, 2)))
#endif
std::string strfmt(const char* fmt, ...);

std::string vstrfmt(const char* fmt, std::va_list args);

// Appends `v` exactly as printf("%.<precision>g", v) writes it: std::to_chars'
// general format with a precision is specified as that conversion, and skips
// printf's format parsing and locale.
void append_g(std::string& out, double v, int precision);

// Appends an integer in decimal, as printf's %d / %lld / %llu write it.
template <class Int>
void append_int(std::string& out, Int v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

}  // namespace dtnsim
