#include "text/vocabulary.h"

#include "common/logging.h"

namespace ultrawiki {

TokenId Vocabulary::AddToken(std::string_view token, int64_t count) {
  auto it = index_.find(std::string(token));
  if (it != index_.end()) {
    counts_[it->second] += count;
    return it->second;
  }
  const TokenId id = static_cast<TokenId>(tokens_.size());
  tokens_.emplace_back(token);
  counts_.push_back(count);
  index_.emplace(tokens_.back(), id);
  return id;
}

TokenId Vocabulary::Lookup(std::string_view token) const {
  auto it = index_.find(std::string(token));
  if (it == index_.end()) return kInvalidTokenId;
  return it->second;
}

const std::string& Vocabulary::TokenOf(TokenId id) const {
  UW_CHECK_GE(id, 0);
  UW_CHECK_LT(static_cast<size_t>(id), tokens_.size());
  return tokens_[static_cast<size_t>(id)];
}

int64_t Vocabulary::CountOf(TokenId id) const {
  UW_CHECK_GE(id, 0);
  UW_CHECK_LT(static_cast<size_t>(id), counts_.size());
  return counts_[static_cast<size_t>(id)];
}

}  // namespace ultrawiki
