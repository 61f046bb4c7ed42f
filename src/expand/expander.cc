#include "expand/expander.h"

#include <algorithm>

#include "embedding/entity_store.h"
#include "math/simd_kernels.h"
#include "math/topk.h"

namespace ultrawiki {

std::vector<EntityId> SortedSeedsOf(const Query& query) {
  std::vector<EntityId> seeds = query.pos_seeds;
  seeds.insert(seeds.end(), query.neg_seeds.begin(), query.neg_seeds.end());
  std::sort(seeds.begin(), seeds.end());
  seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
  return seeds;
}

std::vector<float> MeanSeedCosine(const EntityStore& store,
                                  const std::vector<EntityId>& candidates,
                                  const std::vector<EntityId>& pos_seeds) {
  // One gather per seed over the candidates' unit rows; DotGather's
  // output is float(DotBlocked(row, seed)), i.e. Similarity(id, seed).
  std::vector<const float*> rows;
  rows.reserve(candidates.size());
  for (EntityId id : candidates) rows.push_back(store.UnitOf(id).data());
  std::vector<double> sum(candidates.size(), 0.0);
  std::vector<float> out(candidates.size(), 0.0f);
  for (EntityId seed : pos_seeds) {
    DotGather(rows, store.UnitOf(seed), out);
    for (size_t i = 0; i < out.size(); ++i) sum[i] += out[i];
  }
  if (pos_seeds.empty()) return out;
  const double n = static_cast<double>(pos_seeds.size());
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<float>(sum[i] / n);
  }
  return out;
}

std::vector<EntityId> FuseRanksTopK(const Query& query,
                                    const std::vector<EntityId>& candidates,
                                    const std::vector<float>& a,
                                    const std::vector<float>& b, double w,
                                    size_t k) {
  const std::vector<EntityId> seeds = SortedSeedsOf(query);
  const std::vector<double> a_rank = RankPositions(a);
  const std::vector<double> b_rank = RankPositions(b);
  std::vector<ScoredIndex> fused;
  fused.reserve(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (std::binary_search(seeds.begin(), seeds.end(), candidates[i])) {
      continue;
    }
    const double blended = (1.0 - w) * a_rank[i] + w * b_rank[i];
    fused.push_back(ScoredIndex{-static_cast<float>(blended), i});
  }
  fused = TopKOfPairs(std::move(fused), k);
  std::vector<EntityId> result;
  result.reserve(fused.size());
  for (const ScoredIndex& s : fused) result.push_back(candidates[s.index]);
  return result;
}

}  // namespace ultrawiki
