#ifndef ULTRAWIKI_LM_BEAM_SEARCH_H_
#define ULTRAWIKI_LM_BEAM_SEARCH_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "corpus/types.h"
#include "lm/hybrid_lm.h"
#include "lm/prefix_trie.h"

namespace ultrawiki {

/// Prefix-constrained beam search configuration. `beam_width` matches the
/// paper's beam size of 40, which also bounds the number of entities
/// generated per round.
struct BeamSearchConfig {
  int beam_width = 40;
  int max_name_length = 8;
  /// Length normalization: completed names are ranked by the geometric
  /// mean of their per-token probabilities (exp(logp / len)), balancing
  /// different token counts exactly as paper Eq. 7 does.
  bool length_normalize = true;
  /// Anytime budgets. When either trips, the search stops early and
  /// returns the completions found so far with `truncated` set — rankings
  /// are only guaranteed identical to an unbudgeted run when neither
  /// triggers. <= 0 means unlimited expansions; nullopt means no deadline.
  int64_t max_expansions = 0;
  std::optional<std::chrono::steady_clock::time_point> deadline;
};

/// A completed generation: the entity and its (length-normalized) log
/// probability.
struct GeneratedEntity {
  EntityId entity = kInvalidEntityId;
  double score = 0.0;

  friend bool operator==(const GeneratedEntity& a, const GeneratedEntity& b) {
    return a.entity == b.entity && a.score == b.score;
  }
};

/// Outcome of one budgeted search. `truncated` marks a search that hit a
/// budget and returned best-so-far; `expansions` is the number of
/// (hypothesis × trie-child) scorings actually performed.
struct BeamSearchResult {
  std::vector<GeneratedEntity> entities;
  bool truncated = false;
  int64_t expansions = 0;
};

/// Generates up to `beam_width` candidate entities continuing `prompt`
/// under `lm`, constrained to the root→leaf paths of `trie` (paper Fig. 6:
/// "for a certain node, its child nodes represent subsequent tokens that
/// are allowed to be generated"). Results are sorted by descending score;
/// ties break by ascending entity id for determinism. When a budget in
/// `config` trips, the result carries the best-so-far completions with
/// `truncated` set; budget polls never fire before the first chunk of the
/// first hypothesis, so even a pre-expired deadline deterministically
/// scores the root's children.
BeamSearchResult ConstrainedBeamSearch(const HybridLm& lm,
                                       const PrefixTrie& trie,
                                       std::span<const TokenId> prompt,
                                       const BeamSearchConfig& config = {});

}  // namespace ultrawiki

#endif  // ULTRAWIKI_LM_BEAM_SEARCH_H_
