#include "lm/hybrid_lm.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace ultrawiki {

HybridLm::HybridLm(size_t vocab_size, HybridLmConfig config)
    : config_(config),
      ngram_(vocab_size, config.ngram),
      association_(vocab_size) {
  UW_CHECK_GE(config.association_weight, 0.0);
  UW_CHECK_LE(config.association_weight, 1.0);
}

void HybridLm::AddSentence(std::span<const TokenId> sentence) {
  ngram_.AddSentence(sentence);
  association_.AddSentence(sentence);
}

void HybridLm::SetStopTokens(std::unordered_set<TokenId> stop_tokens) {
  stop_tokens_ = std::move(stop_tokens);
}

double HybridLm::NextTokenProbability(std::span<const TokenId> context,
                                      TokenId next) const {
  const double ngram_p = ngram_.Probability(context, next);
  const double mu = config_.association_weight;
  if (mu <= 0.0) return ngram_p;
  double assoc_sum = 0.0;
  int informative = 0;
  for (TokenId token : context) {
    if (!IsInformative(token)) continue;
    assoc_sum += association_.Probability(token, next);
    ++informative;
  }
  if (informative == 0) return ngram_p;
  const double assoc_p = assoc_sum / static_cast<double>(informative);
  return (1.0 - mu) * ngram_p + mu * assoc_p;
}

double HybridLm::SequenceLogProbability(
    std::span<const TokenId> context,
    std::span<const TokenId> tokens) const {
  LmPromptContext prompt = MakePromptContext(context);
  LmScoringState state(*this, prompt);
  double log_prob = 0.0;
  for (TokenId token : tokens) {
    const double p = state.NextTokenProbability(token);
    log_prob += std::log(std::max(p, 1e-12));
    state.Extend(token);
  }
  return log_prob;
}

LmPromptContext HybridLm::MakePromptContext(
    std::span<const TokenId> prompt) const {
  LmPromptContext context;
  context.lm_ = this;
  context.prompt_.assign(prompt.begin(), prompt.end());
  for (TokenId token : prompt) {
    if (IsInformative(token)) context.informative_.push_back(token);
  }
  return context;
}

void HybridLm::Finalize() {
  association_.TruncateRows(config_.association_top_k);
}

double LmPromptContext::AssocPrefixSum(TokenId next) const {
  // Left-to-right over the informative prompt tokens: the same
  // accumulation order as a fresh full-context pass, so extending this
  // sum with the generated tokens reproduces that pass's floating-point
  // result exactly.
  double sum = 0.0;
  for (TokenId token : informative_) {
    sum += lm_->association_.Probability(token, next);
  }
  return sum;
}

LmScoringState::LmScoringState(const HybridLm& lm,
                               const LmPromptContext& prompt_context)
    : lm_(&lm), prompt_(&prompt_context) {
  const std::span<const TokenId> prompt = prompt_context.prompt();
  const size_t window =
      static_cast<size_t>(std::max(lm.config_.ngram.order - 1, 0));
  if (prompt.size() > window) {
    suffix_.assign(prompt.end() - static_cast<ptrdiff_t>(window),
                   prompt.end());
  } else {
    suffix_.assign(prompt.begin(), prompt.end());
  }
  ngram_ = lm.ngram_.ResolveContext(suffix_);
}

void LmScoringState::Extend(TokenId token) {
  ++generated_;
  if (lm_->IsInformative(token)) generated_informative_.push_back(token);
  const size_t window =
      static_cast<size_t>(std::max(lm_->config_.ngram.order - 1, 0));
  suffix_.push_back(token);
  if (suffix_.size() > window) suffix_.erase(suffix_.begin());
  ngram_ = lm_->ngram_.ResolveContext(suffix_);
}

double LmScoringState::NextTokenProbability(TokenId next) const {
  const double ngram_p = ngram_.Probability(next);
  const double mu = lm_->config_.association_weight;
  if (mu <= 0.0) return ngram_p;
  double assoc_sum = prompt_->AssocPrefixSum(next);
  for (TokenId token : generated_informative_) {
    assoc_sum += lm_->association_.Probability(token, next);
  }
  const int informative =
      prompt_->informative_count() +
      static_cast<int>(generated_informative_.size());
  if (informative == 0) return ngram_p;
  const double assoc_p = assoc_sum / static_cast<double>(informative);
  return (1.0 - mu) * ngram_p + mu * assoc_p;
}

void LmScoringState::NextTokenProbabilityBatch(
    std::span<const TokenId> nexts, std::span<double> out) const {
  UW_CHECK_EQ(nexts.size(), out.size());
  for (size_t i = 0; i < nexts.size(); ++i) {
    out[i] = NextTokenProbability(nexts[i]);
  }
}

}  // namespace ultrawiki
