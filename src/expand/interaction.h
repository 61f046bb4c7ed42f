#ifndef ULTRAWIKI_EXPAND_INTERACTION_H_
#define ULTRAWIKI_EXPAND_INTERACTION_H_

#include <memory>
#include <string>

#include "embedding/entity_store.h"
#include "expand/genexpan.h"
#include "expand/retexpan.h"

namespace ultrawiki {

/// Order of the two-stage framework interaction (paper §6.5, Table 10):
/// model A produces a high-recall candidate subset, model B re-expands
/// restricted to it.
enum class InteractionOrder { kRetThenGen, kGenThenRet };

struct InteractionConfig {
  /// Size of the high-recall subset A hands to B. The paper uses 1000 of
  /// 51K candidates; this default scales the same "far larger than any
  /// target set, far smaller than the vocabulary" ratio down to the bench
  /// corpus.
  int recall_size = 350;
  RetExpanConfig retexpan;
  GenExpanConfig genexpan;
};

/// RetExpan+GenExpan / GenExpan+RetExpan pipelines. Stage B operates on a
/// per-query restriction of the candidate vocabulary: a query-local prefix
/// trie (Ret→Gen) or a query-local candidate list (Gen→Ret). Gen→Ret's
/// stage A generates over `candidate_trie`, the name trie of `candidates`
/// (Pipeline::trie()).
class InteractionExpander : public Expander {
 public:
  InteractionExpander(InteractionOrder order, const GeneratedWorld* world,
                      const EntityStore* store,
                      const std::vector<EntityId>* candidates,
                      const PrefixTrie* candidate_trie, const HybridLm* lm,
                      const LmEntitySimilarity* similarity,
                      const LlmOracle* oracle,
                      InteractionConfig config = {});

  std::vector<EntityId> Expand(const Query& query, size_t k) override;
  std::string name() const override;

 private:
  std::vector<EntityId> ExpandRetThenGen(const Query& query, size_t k);
  std::vector<EntityId> ExpandGenThenRet(const Query& query, size_t k);

  InteractionOrder order_;
  const GeneratedWorld* world_;
  const EntityStore* store_;
  const std::vector<EntityId>* candidates_;
  const PrefixTrie* candidate_trie_;
  const HybridLm* lm_;
  const LmEntitySimilarity* similarity_;
  const LlmOracle* oracle_;
  InteractionConfig config_;
};

}  // namespace ultrawiki

#endif  // ULTRAWIKI_EXPAND_INTERACTION_H_
