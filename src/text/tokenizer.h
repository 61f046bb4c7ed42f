#ifndef ULTRAWIKI_TEXT_TOKENIZER_H_
#define ULTRAWIKI_TEXT_TOKENIZER_H_

#include <string>
#include <string_view>
#include <vector>

namespace ultrawiki {

/// Rule-based word tokenizer: lower-cases ASCII, splits on whitespace, and
/// detaches punctuation into separate tokens. The WordPiece machinery of the
/// paper's BERT is unnecessary here because the synthetic corpus has a
/// closed vocabulary; word-level tokens play the same role.
class Tokenizer {
 public:
  Tokenizer() = default;

  /// Tokenizes `text` into lower-case word/punctuation tokens.
  std::vector<std::string> Tokenize(std::string_view text) const;
};

}  // namespace ultrawiki

#endif  // ULTRAWIKI_TEXT_TOKENIZER_H_
