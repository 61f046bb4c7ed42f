#ifndef ULTRAWIKI_EXPAND_EXPANDER_H_
#define ULTRAWIKI_EXPAND_EXPANDER_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

#include "dataset/dataset.h"

namespace ultrawiki {

class EntityStore;

/// Per-query anytime budget. Methods that honor it (GenExpan) degrade to
/// a best-so-far ranking when a budget trips instead of blowing the
/// latency tail; methods that don't simply ignore it.
struct ExpandBudget {
  /// Absolute wall-clock deadline (the serving layer derives it from the
  /// request timeout). nullopt = none.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Cap on beam expansions across the whole query. <= 0 = unlimited.
  int64_t max_expansions = 0;
};

/// A ranking plus whether any budget truncated the work that produced it.
/// A degraded ranking is still a valid (sorted, seed-free) ranking — just
/// computed from fewer generation rounds/expansions.
struct ExpandOutcome {
  std::vector<EntityId> ranking;
  bool degraded = false;
};

/// Interface every expansion method implements: given a query (positive +
/// negative seeds), return a ranked entity list of up to `k` entries.
/// Implementations must never return the query's own seed entities.
/// Entries may include kHallucinatedEntityId (generative baselines).
///
/// Concurrency contract: the evaluator and the bench harness call
/// `Expand` from multiple threads at once (one query per task), so
/// implementations must keep `Expand` logically const — precompute
/// indices in the constructor and derive any randomness per call (e.g.
/// an Rng seeded from the query), never from shared mutable state.
class Expander {
 public:
  virtual ~Expander() = default;

  /// Ranks candidates for `query`, best first.
  virtual std::vector<EntityId> Expand(const Query& query, size_t k) = 0;

  /// Budget-aware variant. The default ignores the budget (correct for
  /// methods with flat per-query cost); anytime methods override it and
  /// must return a ranking bit-identical to `Expand` whenever no budget
  /// triggers.
  virtual ExpandOutcome ExpandWithBudget(const Query& query, size_t k,
                                         const ExpandBudget& budget) {
    (void)budget;
    return ExpandOutcome{Expand(query, k), /*degraded=*/false};
  }

  /// Human-readable method name (used by the benchmark harness).
  virtual std::string name() const = 0;
};

/// Utility: the union of a query's positive and negative seeds, sorted —
/// the set expansion must exclude.
std::vector<EntityId> SortedSeedsOf(const Query& query);

/// Mean cosine of each of `candidates` to `pos_seeds` (0 when there are no
/// seeds): each candidate's per-seed similarities are summed as doubles in
/// seed order, each term byte-identical to `store.Similarity(id, seed)`.
std::vector<float> MeanSeedCosine(const EntityStore& store,
                                  const std::vector<EntityId>& candidates,
                                  const std::vector<EntityId>& pos_seeds);

/// Rank fusion of two per-candidate score channels, as CaSE and CGExpan
/// use it: blends the channels' RankPositions as (1 - w) * rank(a) +
/// w * rank(b), skips the query's seeds, and returns the `k` candidates
/// with the lowest blend, best first.
std::vector<EntityId> FuseRanksTopK(const Query& query,
                                    const std::vector<EntityId>& candidates,
                                    const std::vector<float>& a,
                                    const std::vector<float>& b, double w,
                                    size_t k);

}  // namespace ultrawiki

#endif  // ULTRAWIKI_EXPAND_EXPANDER_H_
