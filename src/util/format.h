// printf-style appending to a std::string, for the text reports
// (dcolor-trace's critical-path and attribution tables, the bench
// record report). Never truncates.
#pragma once

#include <cstdarg>
#include <cstdio>
#include <string>

namespace dcolor {

inline void appendf(std::string& out, const char* fmt, ...) __attribute__((format(printf, 2, 3)));
inline void appendf(std::string& out, const char* fmt, ...) {
  va_list ap, again;
  va_start(ap, fmt);
  va_copy(again, ap);
  const std::size_t at = out.size();
  const std::size_t len = static_cast<std::size_t>(std::vsnprintf(nullptr, 0, fmt, ap));
  va_end(ap);
  out.resize(at + len + 1);
  std::vsnprintf(out.data() + at, len + 1, fmt, again);
  va_end(again);
  out.resize(at + len);
}

}  // namespace dcolor
