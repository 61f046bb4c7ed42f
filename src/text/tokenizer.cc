#include "text/tokenizer.h"

#include <cctype>

namespace ultrawiki {
namespace {

bool IsPunct(char c) {
  switch (c) {
    case '.':
    case ',':
    case ';':
    case ':':
    case '!':
    case '?':
    case '(':
    case ')':
    case '"':
      return true;
    default:
      return false;
  }
}

}  // namespace

std::vector<std::string> Tokenizer::Tokenize(std::string_view text) const {
  std::vector<std::string> tokens;
  std::string current;
  auto flush = [&tokens, &current]() {
    if (!current.empty()) {
      tokens.push_back(current);
      current.clear();
    }
  };
  for (char raw : text) {
    const char c =
        static_cast<char>(std::tolower(static_cast<unsigned char>(raw)));
    if (std::isspace(static_cast<unsigned char>(c))) {
      flush();
    } else if (IsPunct(c)) {
      flush();
      tokens.push_back(std::string(1, c));
    } else {
      current.push_back(c);
    }
  }
  flush();
  return tokens;
}

}  // namespace ultrawiki
