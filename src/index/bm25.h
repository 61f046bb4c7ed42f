#ifndef ULTRAWIKI_INDEX_BM25_H_
#define ULTRAWIKI_INDEX_BM25_H_

#include <vector>

#include "index/inverted_index.h"
#include "math/topk.h"

namespace ultrawiki {

/// BM25 parameters (Robertson/Okapi defaults).
struct Bm25Params {
  double k1 = 1.2;
  double b = 0.75;
};

/// BM25 ranking over a frozen InvertedIndex. Used for the dataset
/// pipeline's hard-negative mining ("employing the BM25-based search, we
/// incorporated entities highly similar to the target entities as hard
/// negative entities") and for the CaSE baseline's lexical channel.
///
/// `Search` is a MaxScore/block-max dynamic-pruning top-k over the
/// compressed posting lists: term cursors walk document-at-a-time, lists
/// whose summed score bounds cannot reach the current top-k admission
/// threshold become non-essential (consulted only for docs already
/// surfaced by essential lists), and whole blocks are skipped via their
/// last-doc / max-score metadata. Pruning is exact, not approximate: a
/// block or document is only skipped when its score bound provably cannot
/// beat the current threshold, so results are bit-identical to a full
/// dense scan restricted to documents matching at least one query term.
class Bm25Scorer {
 public:
  /// The index must be frozen and must outlive the scorer.
  explicit Bm25Scorer(const InvertedIndex* index, Bm25Params params = {});

  /// Scores every document against the bag-of-tokens `query`; returns a
  /// dense score vector indexed by DocId (0 for documents sharing no
  /// term). For callers that consume every score (e.g. CaSE's rank
  /// fusion); rankings-only callers should use Search.
  std::vector<float> ScoreAll(const std::vector<TokenId>& query) const;

  /// Top-k documents for `query`, sorted by descending score (ascending
  /// doc id on ties). Only documents matching at least one query term are
  /// candidates — fewer than `k` matches return fewer than `k` results,
  /// never score-0 padding.
  std::vector<ScoredIndex> Search(const std::vector<TokenId>& query,
                                  size_t k) const;

  /// Search for a whole query set at once, one result list per query in
  /// input order, in parallel on the global ThreadPool (deterministic at
  /// any UW_THREADS).
  std::vector<std::vector<ScoredIndex>> SearchBatch(
      const std::vector<std::vector<TokenId>>& queries, size_t k) const;

  /// Per-term IDF (Robertson–Sparck-Jones with +1 flooring).
  double Idf(TokenId term) const;

 private:
  const InvertedIndex* index_;
  Bm25Params params_;
};

}  // namespace ultrawiki

#endif  // ULTRAWIKI_INDEX_BM25_H_
