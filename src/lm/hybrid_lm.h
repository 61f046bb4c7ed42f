#ifndef ULTRAWIKI_LM_HYBRID_LM_H_
#define ULTRAWIKI_LM_HYBRID_LM_H_

#include <memory>
#include <span>
#include <unordered_set>
#include <vector>

#include "lm/association.h"
#include "lm/ngram_lm.h"

namespace ultrawiki {

/// Hybrid LM configuration. `association_weight` is the mixing coefficient
/// μ of the long-range channel; 0 degrades the model to a pure n-gram LM.
struct HybridLmConfig {
  NgramLmConfig ngram;
  double association_weight = 0.9;
  /// Capacity knob for the association rows (<=0 keeps all). Smaller
  /// values emulate smaller model sizes (Fig. 8).
  int association_top_k = 0;
};

class HybridLm;

/// Per-prompt association evidence, resolved once and shared by every
/// scoring state derived from the same prompt: the prompt and its
/// informative tokens. Immutable once built. Holds references into the
/// LM, which must outlive it and must not be mutated while it is alive.
class LmPromptContext {
 public:
  std::span<const TokenId> prompt() const { return prompt_; }
  /// Number of informative (non-stop, in-vocabulary) prompt tokens.
  int informative_count() const {
    return static_cast<int>(informative_.size());
  }
  /// Association sum of `next` against the informative prompt tokens, in
  /// prompt order — the same accumulation order (and therefore the same
  /// floating-point result) as a fresh left-to-right pass.
  double AssocPrefixSum(TokenId next) const;

 private:
  friend class HybridLm;
  const HybridLm* lm_ = nullptr;
  std::vector<TokenId> prompt_;
  std::vector<TokenId> informative_;  // informative prompt tokens, in order
};

/// Incremental scoring state for one hypothesis: the n-gram backoff chain
/// resolved once per context (one row lookup per level), plus the
/// additive association sum split into the prompt prefix and the
/// at-most-max-name-length generated extension. Scoring a next token is
/// O(order + generated) instead of O(context) — and produces bit-identical
/// probabilities to HybridLm::NextTokenProbability on the rebuilt context.
/// Copyable: beam branches copy the parent state and Extend by one token.
class LmScoringState {
 public:
  /// State for `prompt` alone (no generated tokens yet). `prompt_context`
  /// must outlive the state and every copy of it.
  LmScoringState(const HybridLm& lm, const LmPromptContext& prompt_context);

  /// Appends one generated token to the hypothesis context.
  void Extend(TokenId token);

  /// P(next | prompt + generated): bit-identical to
  /// HybridLm::NextTokenProbability(prompt + generated, next).
  double NextTokenProbability(TokenId next) const;

  /// Scores a hypothesis's full child set in one call:
  /// out[i] = NextTokenProbability(nexts[i]). `out.size()` must equal
  /// `nexts.size()`.
  void NextTokenProbabilityBatch(std::span<const TokenId> nexts,
                                 std::span<double> out) const;

 private:
  const HybridLm* lm_ = nullptr;
  const LmPromptContext* prompt_ = nullptr;
  /// Informative generated tokens, in generation order (the association
  /// delta on top of the prompt prefix sum).
  std::vector<TokenId> generated_informative_;
  size_t generated_ = 0;
  /// Rolling (order-1)-token suffix of prompt + generated, and its
  /// resolved backoff chain.
  std::vector<TokenId> suffix_;
  NgramLm::ScoringContext ngram_;
};

/// The LLaMA-7B stand-in: a local n-gram channel (syntax; what follows the
/// template glue) interpolated with a sentence co-occurrence channel
/// (topicality; which entities/clues belong with the prompt's tokens).
/// Prompts therefore condition on their full content, including class
/// names and attribute phrases injected by chain-of-thought reasoning,
/// which is the property the paper relies on LLaMA for.
class HybridLm {
 public:
  explicit HybridLm(size_t vocab_size, HybridLmConfig config = {});

  HybridLm(HybridLm&&) = default;
  HybridLm& operator=(HybridLm&&) = default;
  HybridLm(const HybridLm&) = delete;
  HybridLm& operator=(const HybridLm&) = delete;

  /// "Further pretraining" on one sentence: feeds both channels.
  void AddSentence(std::span<const TokenId> sentence);

  /// Marks tokens (template glue, punctuation) that the association
  /// channel ignores as conditioning evidence.
  void SetStopTokens(std::unordered_set<TokenId> stop_tokens);

  /// P(next | context): interpolation of the n-gram probability on the
  /// context suffix and the mean association probability over the
  /// informative context tokens. Reference (rebuild-per-call) evaluation;
  /// hot paths use MakePromptContext + LmScoringState, which is proven
  /// bit-identical to this.
  double NextTokenProbability(std::span<const TokenId> context,
                              TokenId next) const;

  /// Natural-log probability of `tokens` continuing `context`.
  double SequenceLogProbability(std::span<const TokenId> context,
                                std::span<const TokenId> tokens) const;

  /// Resolves the shared per-prompt association evidence for incremental
  /// scoring (see LmPromptContext / LmScoringState).
  LmPromptContext MakePromptContext(std::span<const TokenId> prompt) const;

  /// Ends training: truncates the association rows to
  /// `association_top_k`, then freezes both channels into their flat
  /// serving form and frees the training maps. Call once after the last
  /// AddSentence; only a finalized LM scores.
  void Finalize();

  /// A finalized LM from frozen channels (a snapshot load). Fails closed
  /// unless both channels share one vocabulary and the n-gram channel was
  /// built with `config.ngram`'s order.
  static StatusOr<HybridLm> Restore(HybridLmConfig config, NgramLm ngram,
                                    AssociationModel association,
                                    std::unordered_set<TokenId> stop_tokens);

  const HybridLmConfig& config() const { return config_; }
  /// The stop tokens in ascending id order.
  std::vector<TokenId> SortedStopTokens() const;
  const NgramLm& ngram() const { return ngram_; }
  const AssociationModel& association() const { return association_; }
  size_t vocab_size() const { return ngram_.vocab_size(); }

 private:
  friend class LmPromptContext;
  friend class LmScoringState;

  bool IsInformative(TokenId token) const {
    return token >= 0 && !stop_tokens_.contains(token);
  }

  HybridLmConfig config_;
  NgramLm ngram_;
  AssociationModel association_;
  std::unordered_set<TokenId> stop_tokens_;
};

}  // namespace ultrawiki

#endif  // ULTRAWIKI_LM_HYBRID_LM_H_
