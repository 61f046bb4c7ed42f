#include "baselines/case.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/trace.h"
#include "math/topk.h"

namespace ultrawiki {

CaSE::CaSE(const Corpus* corpus, const EntityStore* store,
           const std::vector<EntityId>* candidates, CaseConfig config)
    : corpus_(corpus),
      store_(store),
      candidates_(candidates),
      config_(config) {
  UW_CHECK_NE(corpus, nullptr);
  UW_CHECK_NE(store, nullptr);
  UW_CHECK_NE(candidates, nullptr);
  for (EntityId id : *candidates) {
    index_.AddDocument(DocumentOf(id));
  }
  // Scoring runs against the frozen block-compressed form; CaSE's rank
  // fusion consumes every candidate's score, so it stays on ScoreAll.
  index_.Freeze();
}

std::vector<TokenId> CaSE::DocumentOf(EntityId id) const {
  std::vector<TokenId> doc;
  const std::vector<int>& sentence_ids = corpus_->SentencesOf(id);
  const int limit = std::min<int>(config_.max_sentences_per_entity,
                                  static_cast<int>(sentence_ids.size()));
  for (int s = 0; s < limit; ++s) {
    const Sentence& sentence =
        corpus_->sentence(static_cast<size_t>(sentence_ids[static_cast<size_t>(s)]));
    for (size_t i = 0; i < sentence.tokens.size(); ++i) {
      const int pos = static_cast<int>(i);
      if (pos >= sentence.mention_begin &&
          pos < sentence.mention_begin + sentence.mention_len) {
        continue;  // drop the mention itself; features are contextual
      }
      doc.push_back(sentence.tokens[i]);
    }
  }
  return doc;
}

std::vector<EntityId> CaSE::Expand(const Query& query, size_t k) {
  UW_SPAN("case.expand");
  const std::vector<EntityId> seeds = SortedSeedsOf(query);

  // Lexical channel: BM25 of every candidate document against the
  // concatenated positive-seed documents.
  std::vector<TokenId> lexical_query;
  for (EntityId seed : query.pos_seeds) {
    const std::vector<TokenId> doc = DocumentOf(seed);
    lexical_query.insert(lexical_query.end(), doc.begin(), doc.end());
  }
  Bm25Scorer scorer(&index_);
  const std::vector<float> bm25 = scorer.ScoreAll(lexical_query);

  // Distributed channel: mean cosine to the positive seeds.
  std::vector<float> cosine(candidates_->size(), 0.0f);
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
  }

  // Scale-free rank fusion of the two channels.
  const std::vector<double> lexical_rank = RankPositions(bm25);
  const std::vector<double> distributed_rank = RankPositions(cosine);

  std::vector<ScoredIndex> fused;
  fused.reserve(candidates_->size());
  const double w = config_.lexical_weight;
  for (size_t i = 0; i < candidates_->size(); ++i) {
    const EntityId id = (*candidates_)[i];
    if (std::binary_search(seeds.begin(), seeds.end(), id)) continue;
    const double blended =
        w * lexical_rank[i] + (1.0 - w) * distributed_rank[i];
    fused.push_back(ScoredIndex{-static_cast<float>(blended), i});
  }
  fused = TopKOfPairs(std::move(fused), k);
  std::vector<EntityId> result;
  result.reserve(fused.size());
  for (const ScoredIndex& s : fused) result.push_back((*candidates_)[s.index]);
  return result;
}

}  // namespace ultrawiki
