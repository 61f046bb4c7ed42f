#include "expand/interaction.h"

#include <algorithm>
#include <set>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ultrawiki {

InteractionExpander::InteractionExpander(
    InteractionOrder order, const GeneratedWorld* world,
    const EntityStore* store, const std::vector<EntityId>* candidates,
    const PrefixTrie* candidate_trie, const HybridLm* lm,
    const LmEntitySimilarity* similarity, const LlmOracle* oracle,
    InteractionConfig config)
    : order_(order),
      world_(world),
      store_(store),
      candidates_(candidates),
      candidate_trie_(candidate_trie),
      lm_(lm),
      similarity_(similarity),
      oracle_(oracle),
      config_(config) {
  UW_CHECK_NE(world, nullptr);
  UW_CHECK_NE(store, nullptr);
  UW_CHECK_NE(candidates, nullptr);
  UW_CHECK_NE(candidate_trie, nullptr);
  UW_CHECK_NE(lm, nullptr);
  UW_CHECK_NE(similarity, nullptr);
  UW_CHECK_NE(oracle, nullptr);
}

std::string InteractionExpander::name() const {
  return order_ == InteractionOrder::kRetThenGen ? "RetExpan+GenExpan"
                                                 : "GenExpan+RetExpan";
}

namespace {

/// Ensembles stage A's and stage B's rankings of the shared subset by
/// mean rank position: the two paradigms vote, so an entity must rank
/// well under both the feature-similarity view and the generative view to
/// stay on top. Entities absent from one list take that list's end rank.
std::vector<EntityId> FuseRankings(const std::vector<EntityId>& a,
                                   const std::vector<EntityId>& b,
                                   size_t k) {
  std::unordered_map<EntityId, double> position_a;
  std::unordered_map<EntityId, double> position_b;
  for (size_t i = 0; i < a.size(); ++i) {
    position_a.emplace(a[i], static_cast<double>(i));
  }
  for (size_t i = 0; i < b.size(); ++i) {
    position_b.emplace(b[i], static_cast<double>(i));
  }
  std::vector<std::pair<double, EntityId>> fused;
  fused.reserve(position_a.size());
  for (const auto& [id, pos_a] : position_a) {
    const auto it = position_b.find(id);
    const double pos_b = it != position_b.end()
                             ? it->second
                             : static_cast<double>(b.size());
    fused.emplace_back(pos_a + pos_b, id);
  }
  std::sort(fused.begin(), fused.end(), [](const auto& x, const auto& y) {
    if (x.first != y.first) return x.first < y.first;
    return x.second < y.second;
  });
  std::vector<EntityId> out;
  out.reserve(std::min(k, fused.size()));
  for (size_t i = 0; i < fused.size() && out.size() < k; ++i) {
    out.push_back(fused[i].second);
  }
  return out;
}

}  // namespace

std::vector<EntityId> InteractionExpander::ExpandRetThenGen(
    const Query& query, size_t k) {
  UW_SPAN("interaction.ret_then_gen");
  obs::GetCounter("interaction.queries").Increment();
  // Stage A: RetExpan recall over the full vocabulary.
  RetExpan recall(store_, candidates_, config_.retexpan);
  const std::vector<EntityId> subset = recall.InitialExpansion(
      query, static_cast<size_t>(config_.recall_size));
  // Stage B: GenExpan constrained to a query-local trie over the subset.
  PrefixTrie trie;
  {
    UW_SPAN("interaction.build_subset_trie");
    trie = BuildNameTrie(world_->corpus, subset);
  }
  GenExpan generator(world_, lm_, &trie, similarity_, oracle_,
                     config_.genexpan, "GenExpan(stage B)");
  const std::vector<EntityId> reranked = generator.Expand(query, k);
  return FuseRankings(reranked, subset, k);
}

std::vector<EntityId> InteractionExpander::ExpandGenThenRet(
    const Query& query, size_t k) {
  UW_SPAN("interaction.gen_then_ret");
  obs::GetCounter("interaction.queries").Increment();
  // Stage A: GenExpan recall over the full candidate trie.
  GenExpanConfig recall_config = config_.genexpan;
  recall_config.use_negative_rerank = false;  // recall stage only
  GenExpan recall(world_, lm_, candidate_trie_, similarity_, oracle_,
                  recall_config, "GenExpan(stage A)");
  // Stage A's ordered list, minus hallucination sentinels and duplicates
  // (first occurrence wins, preserving the generative ranking).
  std::vector<EntityId> ordered;
  {
    std::set<EntityId> seen;
    for (EntityId id :
         recall.Expand(query, static_cast<size_t>(config_.recall_size))) {
      if (id == kHallucinatedEntityId) continue;
      if (seen.insert(id).second) ordered.push_back(id);
    }
  }
  if (ordered.empty()) return {};
  // Stage B: RetExpan over the subset, ensembled with stage A's order.
  std::vector<EntityId> subset = ordered;
  std::sort(subset.begin(), subset.end());
  RetExpan reranker(store_, &subset, config_.retexpan);
  const std::vector<EntityId> stage_b = reranker.Expand(query, k);
  return FuseRankings(stage_b, ordered, k);
}

std::vector<EntityId> InteractionExpander::Expand(const Query& query,
                                                  size_t k) {
  return order_ == InteractionOrder::kRetThenGen
             ? ExpandRetThenGen(query, k)
             : ExpandGenThenRet(query, k);
}

}  // namespace ultrawiki
