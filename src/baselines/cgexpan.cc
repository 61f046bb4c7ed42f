#include "baselines/cgexpan.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/trace.h"
#include "math/topk.h"

namespace ultrawiki {

CgExpan::CgExpan(const GeneratedWorld* world, const EntityStore* store,
                 const AssociationModel* association,
                 const std::vector<EntityId>* candidates,
                 CgExpanConfig config)
    : world_(world),
      store_(store),
      association_(association),
      candidates_(candidates),
      config_(config) {
  UW_CHECK_NE(world, nullptr);
  UW_CHECK_NE(store, nullptr);
  UW_CHECK_NE(association, nullptr);
  UW_CHECK_NE(candidates, nullptr);
  for (const FineClassSpec& spec : world->schema) {
    class_nouns_.push_back(
        world->corpus.tokens().Lookup(spec.singular_noun));
  }
}

double CgExpan::NameAssociation(EntityId id, TokenId target) const {
  if (target == kInvalidTokenId) return 0.0;
  const Entity& entity = world_->corpus.entity(id);
  double sum = 0.0;
  int used = 0;
  for (const std::string& word : entity.name_tokens) {
    const TokenId token = world_->corpus.tokens().Lookup(word);
    if (token == kInvalidTokenId) continue;
    sum += association_->Probability(token, target);
    ++used;
  }
  return used > 0 ? sum / static_cast<double>(used) : 0.0;
}

TokenId CgExpan::InferClassNoun(const std::vector<EntityId>& seeds) const {
  TokenId best = kInvalidTokenId;
  double best_score = -1.0;
  for (TokenId noun : class_nouns_) {
    if (noun == kInvalidTokenId) continue;
    double score = 0.0;
    for (EntityId seed : seeds) score += NameAssociation(seed, noun);
    if (score > best_score) {
      best_score = score;
      best = noun;
    }
  }
  return best;
}

std::vector<EntityId> CgExpan::Expand(const Query& query, size_t k) {
  UW_SPAN("cgexpan.expand");
  const std::vector<EntityId> seeds = SortedSeedsOf(query);
  const TokenId class_noun = InferClassNoun(query.pos_seeds);

  std::vector<float> cosine(candidates_->size(), 0.0f);
  std::vector<float> class_fit(candidates_->size(), 0.0f);
  for (size_t i = 0; i < candidates_->size(); ++i) {
    const EntityId id = (*candidates_)[i];
    double sum = 0.0;
    for (EntityId seed : query.pos_seeds) {
      sum += static_cast<double>(store_->Similarity(id, seed));
    }
    cosine[i] = query.pos_seeds.empty()
                    ? 0.0f
                    : static_cast<float>(
                          sum / static_cast<double>(query.pos_seeds.size()));
    class_fit[i] = static_cast<float>(NameAssociation(id, class_noun));
  }

  const std::vector<double> cosine_rank = RankPositions(cosine);
  const std::vector<double> class_rank = RankPositions(class_fit);

  std::vector<ScoredIndex> fused;
  fused.reserve(candidates_->size());
  const double w = config_.class_name_weight;
  for (size_t i = 0; i < candidates_->size(); ++i) {
    const EntityId id = (*candidates_)[i];
    if (std::binary_search(seeds.begin(), seeds.end(), id)) continue;
    const double blended = (1.0 - w) * cosine_rank[i] + w * class_rank[i];
    fused.push_back(ScoredIndex{-static_cast<float>(blended), i});
  }
  fused = TopKOfPairs(std::move(fused), k);
  std::vector<EntityId> result;
  result.reserve(fused.size());
  for (const ScoredIndex& s : fused) {
    result.push_back((*candidates_)[s.index]);
  }
  return result;
}

}  // namespace ultrawiki
