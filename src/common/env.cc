#include "common/env.h"

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "common/logging.h"

namespace ultrawiki {

std::optional<int> ParseIntStrict(std::string_view text) {
  if (text.empty()) return std::nullopt;
  size_t i = 0;
  bool negative = false;
  if (text[0] == '+' || text[0] == '-') {
    negative = text[0] == '-';
    i = 1;
  }
  if (i == text.size()) return std::nullopt;
  long long value = 0;
  for (; i < text.size(); ++i) {
    const char c = text[i];
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + (c - '0');
    if (value > static_cast<long long>(std::numeric_limits<int>::max()) + 1) {
      return std::nullopt;
    }
  }
  if (negative) value = -value;
  if (value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    return std::nullopt;
  }
  return static_cast<int>(value);
}

std::optional<int> ParsePortStrict(std::string_view text) {
  const std::optional<int> port = ParseIntStrict(text);
  if (!port.has_value() || *port < 0 || *port > 65535) return std::nullopt;
  return port;
}

int EnvInt(const char* name, int fallback, int min_value) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  const std::optional<int> parsed = ParseIntStrict(env);
  if (!parsed.has_value()) {
    UW_LOG(Warning) << name << "=" << env
                    << " is not an integer; using " << fallback;
    return fallback;
  }
  if (*parsed < min_value) {
    UW_LOG(Warning) << name << "=" << env << " out of range; using "
                    << fallback;
    return fallback;
  }
  return *parsed;
}

bool EnvFlag(const char* name) {
  const char* env = std::getenv(name);
  if (env == nullptr) return false;
  const std::string_view value = env;
  if (!value.empty() && value != "0" && value != "1") {
    UW_LOG(Warning) << name << "=" << value
                    << " is not 0 or 1; treating it as 1";
  }
  return !value.empty() && value != "0";
}

std::string FlagValue(int argc, char** argv, std::string_view name,
                      std::string_view fallback) {
  const std::string prefix = "--" + std::string(name) + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with(prefix)) return std::string(arg.substr(prefix.size()));
  }
  return std::string(fallback);
}

void WritePortFile(const char* env_name, int port, const char* tag) {
  const char* path = std::getenv(env_name);
  if (path == nullptr) return;
  std::FILE* file = std::fopen(path, "w");
  if (file == nullptr) {
    std::fprintf(stderr, "[%s] cannot write %s %s\n", tag, env_name, path);
    return;
  }
  std::fprintf(file, "%d\n", port);
  std::fclose(file);
}

}  // namespace ultrawiki
