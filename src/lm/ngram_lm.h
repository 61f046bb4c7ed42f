#ifndef ULTRAWIKI_LM_NGRAM_LM_H_
#define ULTRAWIKI_LM_NGRAM_LM_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "lm/count_rows.h"
#include "text/vocabulary.h"

namespace ultrawiki {

/// Hyper-parameters of the backoff n-gram model.
struct NgramLmConfig {
  /// Maximum n-gram order (5 lets the model condition on a 1–2-token
  /// entity name plus template glue, which is what constrained generation
  /// needs).
  int order = 5;
  /// Absolute discount mass moved to the lower order.
  double discount = 0.4;
  /// Additive smoothing of the unigram floor.
  double unigram_alpha = 0.5;
};

/// Count-based n-gram language model with interpolated absolute
/// discounting (Kneser–Ney style backoff chain). Contexts are stored by
/// 64-bit hash; with the corpus sizes this library targets, collisions are
/// statistically negligible and the approximation is standard for
/// hash-based LMs.
///
/// Two phases: AddSentence counts into hash maps, then Freeze turns them
/// into one flat table per backoff level (CountRows keyed by the sorted
/// context hashes) and frees the maps. Only a frozen model scores.
class NgramLm {
 public:
  /// One frozen backoff level: context hashes strictly ascending, and
  /// `rows.row(i)` holding the continuations of the context `keys[i]`.
  struct Level {
    std::vector<uint64_t> keys;
    CountRows rows;
  };

  NgramLm(size_t vocab_size, NgramLmConfig config = {});
  ~NgramLm();
  NgramLm(NgramLm&&) noexcept;
  NgramLm& operator=(NgramLm&&) noexcept;

  /// Accumulates counts for every n-gram (orders 1..order) of `sentence`.
  /// A virtual begin-of-sentence context is implicit: n-grams are only
  /// counted inside the sentence (no padding tokens are introduced).
  /// Training phase only.
  void AddSentence(std::span<const TokenId> sentence);

  /// Ends training: builds the flat per-level tables and frees the
  /// training maps. Scores are unchanged by construction — same counts,
  /// same arithmetic.
  void Freeze();

  /// A frozen model from its arrays (a snapshot load). Fails closed unless
  /// there are vocab_size non-negative unigram counts, order-1 levels,
  /// strictly ascending keys, and rows that pass CountRows::Validate.
  static StatusOr<NgramLm> Restore(size_t vocab_size, NgramLmConfig config,
                                   std::vector<int64_t> unigram_counts,
                                   std::vector<Level> levels);

  /// A context's backoff chain resolved once: one row lookup per backoff
  /// level (suffix lengths 1..order-1), after which any number of next
  /// tokens can be scored without re-hashing the context. Probability
  /// values are bit-identical to `NgramLm::Probability` on the same
  /// context. Holds pointers into the model's tables — the model must
  /// outlive the ScoringContext.
  class ScoringContext {
   public:
    ScoringContext() = default;

    /// P(next | resolved context); 0 for out-of-vocabulary tokens.
    double Probability(TokenId next) const;

   private:
    friend class NgramLm;
    const NgramLm* lm_ = nullptr;
    /// chain_[k] = the row of the context suffix of length k+1; a row
    /// with total 0 marks a level that backs off (unseen context).
    std::vector<CountRows::Row> chain_;
  };

  /// Resolves the backoff chain for `context` (at most the last order-1
  /// tokens are consulted). Frozen models only.
  ScoringContext ResolveContext(std::span<const TokenId> context) const;

  /// P(next | context) via the interpolated backoff chain. Uses at most
  /// the last (order-1) tokens of `context`. Single-probe convenience
  /// over ResolveContext.
  double Probability(std::span<const TokenId> context, TokenId next) const;

  /// Sum of log P over `tokens` given `context`, extending the context
  /// with each consumed token. Natural log. Implemented on the resolved
  /// ScoringContext chain — only the rolling (order-1)-token suffix is
  /// maintained per step, never a full context rebuild.
  double SequenceLogProbability(std::span<const TokenId> context,
                                std::span<const TokenId> tokens) const;

  bool frozen() const { return training_ == nullptr; }
  int64_t total_tokens() const { return total_tokens_; }
  size_t vocab_size() const { return vocab_size_; }
  const NgramLmConfig& config() const { return config_; }
  const std::vector<int64_t>& unigram_counts() const {
    return unigram_counts_;
  }
  /// levels()[k] is the table of contexts of length k+1 (frozen models).
  const std::vector<Level>& levels() const { return levels_; }

 private:
  /// Training counts, one open-addressed (context hash, next token) ->
  /// count table per backoff level (defined in ngram_lm.cc).
  struct Training;

  static uint64_t HashContext(std::span<const TokenId> context);

  NgramLmConfig config_;
  size_t vocab_size_;
  int64_t total_tokens_ = 0;
  std::vector<int64_t> unigram_counts_;
  std::unique_ptr<Training> training_;
  std::vector<Level> levels_;
};

}  // namespace ultrawiki

#endif  // ULTRAWIKI_LM_NGRAM_LM_H_
