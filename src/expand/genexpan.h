#ifndef ULTRAWIKI_EXPAND_GENEXPAN_H_
#define ULTRAWIKI_EXPAND_GENEXPAN_H_

#include <string>
#include <utility>
#include <vector>

#include "expand/expander.h"
#include "expand/retrieval_augmentation.h"
#include "llm_oracle/oracle.h"
#include "lm/beam_search.h"
#include "lm/similarity.h"

namespace ultrawiki {

/// Chain-of-thought configurations of paper Table 9. "Gt" variants take
/// the manually-labelled class name / attributes; "Gen" variants take the
/// LM oracle's (LLaMA-grade) inference, which is reliable for class names,
/// decent for positive attributes and poor for negative attributes.
enum class CotMode {
  kNone,
  kGtClassName,
  kGenClassName,
  kGenClassNameGenPos,
  kGenClassNameGtPos,
  kGenClassNameGenPosGenNeg,
  kGenClassNameGtPosGtNeg,
};

const char* CotModeName(CotMode mode);

/// GenExpan hyper-parameters (paper §5.2 and appendix C).
struct GenExpanConfig {
  uint64_t seed = 21;
  /// Beam size = entities generated per round (paper: 40).
  int beam_width = 40;
  /// Fraction of newly generated entities admitted per round by positive
  /// similarity (paper top-p = 0.7).
  double top_p_fraction = 0.7;
  int max_rounds = 25;
  /// Generation stops after this many rounds without a new entity
  /// (paper: 20; smaller by default to bound bench latency).
  int stale_rounds_to_stop = 5;
  int rerank_segment_length = 20;
  bool use_negative_rerank = true;
  /// Ablation "- Prefix constrain": without the trie, beam search roams
  /// the open token space and most decoded strings are not candidate
  /// entities. We keep the trie walk for the valid fraction and emit
  /// hallucinated entries for the invalid fraction — the measured effect
  /// (wasted rank slots, collapsed precision) matches Table 3; see
  /// DESIGN.md on this substitution.
  bool use_prefix_constraint = true;
  double unconstrained_invalid_rate = 0.45;
  CotMode cot = CotMode::kNone;
  /// +RA (paper §5.2.3): prepend the prompt entities' external knowledge
  /// at generation time only. `ra_source` picks the Table-8 variant.
  bool retrieval_augmentation = false;
  RaSource ra_source = RaSource::kIntroduction;
  /// Standing per-query anytime budgets, combined (min) with any
  /// per-request ExpandBudget. Resolved from UW_GENEXPAN_TIME_BUDGET_MS /
  /// UW_GENEXPAN_MAX_EXPANSIONS by Pipeline::MakeGenExpan. <= 0 = none.
  int64_t time_budget_ms = 0;
  int64_t max_expansions = 0;
};

/// The per-query RNG-stream fingerprint (seed sampling, ablation coin
/// flips). Pos and neg seed lists are length-tagged so queries differing
/// only in how seeds split across the two sides never share a stream.
/// Exposed for the collision regression test.
uint64_t GenExpanQueryFingerprint(const Query& query);

/// Prefix trie over the surface forms of `ids` (in order), the
/// constraint of GenExpan's beam search. Entities with no in-vocabulary
/// name token cannot be generated and are left out.
PrefixTrie BuildNameTrie(const Corpus& corpus,
                         const std::vector<EntityId>& ids);

/// The generation-based framework (paper §5.2): iterative entity
/// generation with prefix-constrained beam search → entity selection by
/// LM similarity (Eq. 7) → segmented re-ranking against the negative
/// seeds. Chain-of-thought prepends inferred class/attribute text to the
/// generation prompt and (for negative attributes) sharpens the
/// re-ranking signal.
class GenExpan : public Expander {
 public:
  GenExpan(const GeneratedWorld* world, const HybridLm* lm,
           const PrefixTrie* trie, const LmEntitySimilarity* similarity,
           const LlmOracle* oracle, GenExpanConfig config = {},
           std::string name = "GenExpan");

  std::vector<EntityId> Expand(const Query& query, size_t k) override;

  /// Anytime expansion: threads the combined deadline/expansion budget
  /// into every beam-search round and stops the rounds loop once a budget
  /// trips, returning the (still fully ranked + reranked) best-so-far
  /// with `degraded` set. Bit-identical to `Expand` when nothing trips.
  ExpandOutcome ExpandWithBudget(const Query& query, size_t k,
                                 const ExpandBudget& budget) override;

  std::string name() const override { return name_; }

  const GenExpanConfig& config() const { return config_; }

 private:
  std::vector<TokenId> NameTokensOf(EntityId id) const;

  /// The Prompt_g analogue: `cot_prefix` (computed once per query — the
  /// oracle is deterministic) + optional RA intros + "e1 , e2 , e3 and".
  std::vector<TokenId> BuildPrompt(const std::vector<TokenId>& cot_prefix,
                                   const std::vector<EntityId>& prompt_seeds)
      const;

  /// Class-name + positive-attribute prefix tokens for the CoT mode.
  std::vector<TokenId> CotPrefix(const Query& query) const;

  /// Negative-attribute clue tokens used to sharpen re-ranking (empty
  /// unless the CoT mode carries negative attributes).
  std::vector<TokenId> CotNegativeClues(const Query& query) const;

  /// Association-channel match between an entity name and clue tokens.
  double ClueMatchScore(EntityId id,
                        const std::vector<TokenId>& clues) const;

  const GeneratedWorld* world_;
  const HybridLm* lm_;
  const PrefixTrie* trie_;
  const LmEntitySimilarity* similarity_;
  const LlmOracle* oracle_;
  GenExpanConfig config_;
  std::string name_;
  TokenId comma_ = kInvalidTokenId;
  TokenId and_token_ = kInvalidTokenId;
  TokenId with_token_ = kInvalidTokenId;
};

}  // namespace ultrawiki

#endif  // ULTRAWIKI_EXPAND_GENEXPAN_H_
