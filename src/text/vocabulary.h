#ifndef ULTRAWIKI_TEXT_VOCABULARY_H_
#define ULTRAWIKI_TEXT_VOCABULARY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace ultrawiki {

/// Token identifier. kInvalidTokenId marks "not interned".
using TokenId = int32_t;
inline constexpr TokenId kInvalidTokenId = -1;

/// Bidirectional string↔id interning table with frequency counts. One
/// instance serves as the token vocabulary of the corpus; another as the
/// candidate-entity vocabulary `V` of the task formulation.
class Vocabulary {
 public:
  Vocabulary() = default;

  /// Interns `token`, returning its id (existing or fresh) and bumping its
  /// frequency by `count`.
  TokenId AddToken(std::string_view token, int64_t count = 1);

  /// Returns the id of `token` or kInvalidTokenId if absent (no insertion).
  TokenId Lookup(std::string_view token) const;

  /// Returns the string of `id`; id must be valid.
  const std::string& TokenOf(TokenId id) const;

  /// Occurrence count accumulated through AddToken.
  int64_t CountOf(TokenId id) const;

  size_t size() const { return tokens_.size(); }

 private:
  std::unordered_map<std::string, TokenId> index_;
  std::vector<std::string> tokens_;
  std::vector<int64_t> counts_;
};

}  // namespace ultrawiki

#endif  // ULTRAWIKI_TEXT_VOCABULARY_H_
