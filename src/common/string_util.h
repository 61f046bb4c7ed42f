#ifndef ULTRAWIKI_COMMON_STRING_UTIL_H_
#define ULTRAWIKI_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace ultrawiki {

/// Splits `text` on `delimiter`, dropping empty pieces.
std::vector<std::string> SplitString(std::string_view text, char delimiter);

/// Splits `text` on `delimiter`, keeping empty pieces.
std::vector<std::string> SplitStringKeepEmpty(std::string_view text,
                                              char delimiter);

/// Joins `pieces` with `separator`.
std::string JoinStrings(const std::vector<std::string>& pieces,
                        std::string_view separator);

bool StartsWith(std::string_view text, std::string_view prefix);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

/// Formats a double with `digits` decimal places (fixed notation).
std::string FormatDouble(double value, int digits);

}  // namespace ultrawiki

#endif  // ULTRAWIKI_COMMON_STRING_UTIL_H_
