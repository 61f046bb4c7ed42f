#ifndef ULTRAWIKI_LM_ASSOCIATION_H_
#define ULTRAWIKI_LM_ASSOCIATION_H_

#include <memory>
#include <memory_resource>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "lm/count_rows.h"
#include "text/vocabulary.h"

namespace ultrawiki {

/// Sentence-level token co-occurrence model: P(target | context-token).
/// This is the long-range channel of the hybrid LM — it lets a prompt
/// condition generation on *all* of its tokens (entity names, inferred
/// class names, attribute clues), the role self-attention plays in the
/// paper's LLaMA. Rows can be truncated to their top-k entries, which is
/// the "model capacity" axis of the Fig. 8 scaling study.
///
/// Two phases: AddSentence and TruncateRows work on per-row hash maps,
/// then Freeze turns them into one dense CountRows table indexed by
/// context token id and frees the maps. Only a frozen model scores.
class AssociationModel {
 public:
  explicit AssociationModel(size_t vocab_size);

  /// Counts all ordered co-occurring pairs within `sentence` (excluding
  /// self-pairs). Training phase only.
  void AddSentence(std::span<const TokenId> sentence);

  /// Keeps only the `top_k` strongest targets per row (capacity knob);
  /// no-op when top_k <= 0. Training phase only.
  void TruncateRows(int top_k);

  /// Ends training: builds the flat rows and frees the training maps.
  void Freeze();

  /// A frozen model from its rows (a snapshot load). Fails closed unless
  /// there is one row per vocabulary token and the rows pass
  /// CountRows::Validate.
  static StatusOr<AssociationModel> Restore(size_t vocab_size,
                                            CountRows rows);

  /// P(next | context) = count(context, next) / row_total with additive
  /// smoothing; returns the uniform floor for unseen rows. Frozen models
  /// only.
  double Probability(TokenId context, TokenId next) const;

  bool frozen() const { return training_ == nullptr; }
  size_t vocab_size() const { return vocab_size_; }
  /// Row t holds the targets co-occurring with token t (frozen models).
  const CountRows& rows() const { return rows_; }

 private:
  /// One training row: target token -> count.
  using TargetCounts = std::pmr::unordered_map<TokenId, int32_t>;

  /// Training counts, one map per context token, all allocated from
  /// `arena`, so freeing the ~1M nodes of a Bench model at the end of
  /// training is a few block frees.
  struct Training {
    explicit Training(size_t vocab_size);
    std::pmr::monotonic_buffer_resource arena;
    std::vector<TargetCounts> rows;
  };

  size_t vocab_size_;
  std::unique_ptr<Training> training_;
  CountRows rows_;
};

}  // namespace ultrawiki

#endif  // ULTRAWIKI_LM_ASSOCIATION_H_
