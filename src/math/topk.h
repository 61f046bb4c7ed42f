#ifndef ULTRAWIKI_MATH_TOPK_H_
#define ULTRAWIKI_MATH_TOPK_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace ultrawiki {

/// A (score, index) result of a top-k selection.
struct ScoredIndex {
  float score = 0.0f;
  size_t index = 0;

  friend bool operator==(const ScoredIndex& a, const ScoredIndex& b) {
    return a.score == b.score && a.index == b.index;
  }
};

/// Total-order "ranks strictly better" comparator: higher score first,
/// NaN after every finite score (and after ±inf), ascending index as the
/// final tie-break. Unlike a raw `a.score > b.score`, this is a strict
/// weak ordering even when scores contain NaN (possible upstream from
/// zero-norm divisions), so std::sort / std::partial_sort stay
/// well-defined and rankings stay deterministic.
bool RanksBefore(const ScoredIndex& a, const ScoredIndex& b);

/// Returns the `k` highest-scoring indices over `scores`, sorted by
/// `RanksBefore` (descending score; NaN sorts last; ties broken by
/// ascending index for determinism). Selects via a bounded streaming heap,
/// never a materialize-then-sort of the full score vector.
std::vector<ScoredIndex> TopK(const std::vector<float>& scores, size_t k);

/// Like TopK but over explicit (score, index) pairs, e.g. after masking.
std::vector<ScoredIndex> TopKOfPairs(std::vector<ScoredIndex> pairs,
                                     size_t k);

/// Sorts pairs with `RanksBefore` (descending score, NaN last,
/// ascending-index tie-break).
void SortByScoreDescending(std::vector<ScoredIndex>& pairs);

/// Each score's 0-based position in the descending order of `scores`,
/// ties broken by ascending index: the rank-fusion input of CaSE and
/// CGExpan. It compares with a raw `>`, not RanksBefore, which orders NaN
/// differently and would change those baselines' rankings.
std::vector<double> RankPositions(const std::vector<float>& scores);

/// Streaming top-k selection: a bounded min-heap (worst element on top,
/// per RanksBefore) fed one score at a time, so producers that generate
/// scores on the fly — BM25 over a posting-list scan, RetExpan over a
/// candidate sweep — keep O(k) state instead of materializing and sorting
/// a full score vector. Deterministic: the kept set and the final order
/// depend only on the pushed (score, index) multiset, not on push order.
class TopKStream {
 public:
  explicit TopKStream(size_t k);

  /// Offers one scored index; kept only while it is among the best `k`
  /// seen so far. A NaN score ranks below every real score.
  void Push(float score, size_t index);
  void Push(const ScoredIndex& pair) { Push(pair.score, pair.index); }

  size_t size() const { return heap_.size(); }
  size_t k() const { return k_; }

  /// True once `k` elements are retained — from then on `Worst()` is the
  /// admission threshold: a later push enters only if it ranks before it.
  bool AtCapacity() const { return k_ > 0 && heap_.size() == k_; }

  /// The worst-ranked retained element (heap front). Only meaningful when
  /// AtCapacity(); producers use it as a dynamic pruning bound — any
  /// candidate provably not ranking before it can be skipped without
  /// changing the final result.
  const ScoredIndex& Worst() const { return heap_.front(); }

  /// Returns the retained elements ordered by RanksBefore (best first)
  /// and resets the stream for reuse.
  std::vector<ScoredIndex> TakeSortedDescending();

 private:
  size_t k_;
  std::vector<ScoredIndex> heap_;  // min-heap: heap_.front() is the worst
};

}  // namespace ultrawiki

#endif  // ULTRAWIKI_MATH_TOPK_H_
