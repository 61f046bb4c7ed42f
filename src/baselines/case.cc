#include "baselines/case.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/trace.h"

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
  const std::vector<float> cosine =
      MeanSeedCosine(*store_, *candidates_, query.pos_seeds);

  // Scale-free rank fusion of the two channels.
  return FuseRanksTopK(query, *candidates_, cosine, bm25,
                       config_.lexical_weight, k);
}

}  // namespace ultrawiki
