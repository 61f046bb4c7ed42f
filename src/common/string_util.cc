#include "common/string_util.h"

#include <cstdarg>
#include <cstdio>

namespace ultrawiki {

std::vector<std::string> SplitString(std::string_view text, char delimiter) {
  std::vector<std::string> pieces;
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find(delimiter, start);
    if (end == std::string_view::npos) end = text.size();
    if (end > start) pieces.emplace_back(text.substr(start, end - start));
    start = end + 1;
  }
  return pieces;
}

std::vector<std::string> SplitStringKeepEmpty(std::string_view text,
                                              char delimiter) {
  std::vector<std::string> pieces;
  size_t start = 0;
  while (true) {
    size_t end = text.find(delimiter, start);
    if (end == std::string_view::npos) {
      pieces.emplace_back(text.substr(start));
      break;
    }
    pieces.emplace_back(text.substr(start, end - start));
    start = end + 1;
  }
  return pieces;
}

std::string JoinStrings(const std::vector<std::string>& pieces,
                        std::string_view separator) {
  std::string result;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) result += separator;
    result += pieces[i];
  }
  return result;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

std::string StrFormat(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, format, args);
  va_end(args);
  if (needed <= 0) {
    va_end(args_copy);
    return std::string();
  }
  std::string result(static_cast<size_t>(needed), '\0');
  std::vsnprintf(result.data(), result.size() + 1, format, args_copy);
  va_end(args_copy);
  return result;
}

std::string FormatDouble(double value, int digits) {
  return StrFormat("%.*f", digits, value);
}

}  // namespace ultrawiki
