#include "util/string_util.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cerrno>

namespace cextend {

std::vector<std::string> StrSplit(std::string_view s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string_view StrTrim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t' || s[b] == '\r' || s[b] == '\n'))
    ++b;
  while (e > b &&
         (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r' ||
          s[e - 1] == '\n'))
    --e;
  return s.substr(b, e - b);
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int n = vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n) + 1);
    vsnprintf(out.data(), out.size(), fmt, args_copy);
    out.resize(static_cast<size_t>(n));
  }
  va_end(args_copy);
  return out;
}

std::optional<int64_t> ParseInt64(std::string_view s) {
  s = StrTrim(s);
  if (s.empty()) return std::nullopt;
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  long long v = strtoll(buf.c_str(), &end, 10);
  if (errno != 0 || end != buf.c_str() + buf.size()) return std::nullopt;
  return static_cast<int64_t>(v);
}

std::optional<double> ParseDouble(std::string_view s) {
  s = StrTrim(s);
  if (s.empty()) return std::nullopt;
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  double v = strtod(buf.c_str(), &end);
  if (errno != 0 || end != buf.c_str() + buf.size()) return std::nullopt;
  return v;
}

std::string FormatDuration(double seconds) {
  if (seconds < 0) return FormatDuration(-seconds).insert(0, 1, '-');
  if (seconds < 1e-3) return StrFormat("%.0fus", seconds * 1e6);
  if (seconds < 1.0) return StrFormat("%.0fms", seconds * 1e3);
  if (seconds < 120.0) return StrFormat("%.2fs", seconds);
  if (seconds < 7200.0) return StrFormat("%.2fm", seconds / 60.0);
  return StrFormat("%.2fh", seconds / 3600.0);
}

}  // namespace cextend
