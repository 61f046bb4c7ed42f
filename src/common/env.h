#ifndef ULTRAWIKI_COMMON_ENV_H_
#define ULTRAWIKI_COMMON_ENV_H_

#include <optional>
#include <string>
#include <string_view>

namespace ultrawiki {

/// Strictly parses `text` as a base-10 integer: optional sign, digits,
/// nothing else. Trailing garbage ("64k"), empty strings, and values
/// outside int range all return nullopt — unlike atoi, which silently
/// truncates "64k" to 64 and maps garbage to 0.
std::optional<int> ParseIntStrict(std::string_view text);

/// Strictly parses `text` as a finite decimal floating-point number: the
/// whole string must be consumed, so "0.12x", "", "abc", "inf" and "nan"
/// all return nullopt — unlike atof, which reads "0.12x" as 0.12 and
/// garbage as 0.0.
std::optional<double> ParseDoubleStrict(std::string_view text);

/// ParseIntStrict restricted to a TCP port, 0..65535 (0 = ephemeral).
/// "80x" and "70000" both return nullopt instead of binding some port.
std::optional<int> ParsePortStrict(std::string_view text);

/// Resolves an integer knob from the environment. Returns `fallback`
/// when `name` is unset; warns and returns `fallback` when the value
/// does not parse strictly or is below `min_value`, so a typo like
/// UW_SERVE_QUEUE=64k is loud instead of silently becoming 64.
int EnvInt(const char* name, int fallback, int min_value);

/// Resolves a boolean knob from the environment: unset, "" and "0" are
/// off, anything else is on. A non-empty value other than "0" or "1"
/// also warns, naming the knob, so UW_ANN_ENABLE=false (which turns the
/// knob on) is loud instead of silent.
bool EnvFlag(const char* name);

/// Value of the first `--name=VALUE` in argv[1..argc), or `fallback`
/// when there is none. A bare `--name` (no '=') does not match.
std::string FlagValue(int argc, char** argv, std::string_view name,
                      std::string_view fallback);

/// When the environment variable `env_name` is set, writes `port` and a
/// newline to the path it names, for scripts waiting on a bound port. A
/// path that cannot be opened is reported on stderr as
/// "[<tag>] cannot write <env_name> <path>"; the caller goes on serving.
void WritePortFile(const char* env_name, int port, const char* tag);

}  // namespace ultrawiki

#endif  // ULTRAWIKI_COMMON_ENV_H_
