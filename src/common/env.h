#ifndef ULTRAWIKI_COMMON_ENV_H_
#define ULTRAWIKI_COMMON_ENV_H_

#include <optional>
#include <string_view>

namespace ultrawiki {

/// Strictly parses `text` as a base-10 integer: optional sign, digits,
/// nothing else. Trailing garbage ("64k"), empty strings, and values
/// outside int range all return nullopt — unlike atoi, which silently
/// truncates "64k" to 64 and maps garbage to 0.
std::optional<int> ParseIntStrict(std::string_view text);

/// ParseIntStrict restricted to a TCP port, 0..65535 (0 = ephemeral).
/// "80x" and "70000" both return nullopt instead of binding some port.
std::optional<int> ParsePortStrict(std::string_view text);

/// Resolves an integer knob from the environment. Returns `fallback`
/// when `name` is unset; warns and returns `fallback` when the value
/// does not parse strictly or is below `min_value`, so a typo like
/// UW_SERVE_QUEUE=64k is loud instead of silently becoming 64.
int EnvInt(const char* name, int fallback, int min_value);

}  // namespace ultrawiki

#endif  // ULTRAWIKI_COMMON_ENV_H_
