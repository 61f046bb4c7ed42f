#include "baselines/cgexpan.h"

#include "common/logging.h"
#include "obs/trace.h"

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
  const TokenId class_noun = InferClassNoun(query.pos_seeds);
  const std::vector<float> cosine =
      MeanSeedCosine(*store_, *candidates_, query.pos_seeds);
  std::vector<float> class_fit(candidates_->size(), 0.0f);
  for (size_t i = 0; i < candidates_->size(); ++i) {
    class_fit[i] =
        static_cast<float>(NameAssociation((*candidates_)[i], class_noun));
  }
  return FuseRanksTopK(query, *candidates_, cosine, class_fit,
                       config_.class_name_weight, k);
}

}  // namespace ultrawiki
