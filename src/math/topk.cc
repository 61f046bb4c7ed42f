#include "math/topk.h"

#include <cmath>

#include "common/logging.h"

namespace ultrawiki {

bool RanksBefore(const ScoredIndex& a, const ScoredIndex& b) {
  const bool a_nan = std::isnan(a.score);
  const bool b_nan = std::isnan(b.score);
  if (a_nan != b_nan) return b_nan;  // any real score beats NaN
  if (!a_nan && a.score != b.score) return a.score > b.score;
  return a.index < b.index;
}

void SortByScoreDescending(std::vector<ScoredIndex>& pairs) {
  std::sort(pairs.begin(), pairs.end(), RanksBefore);
}

std::vector<double> RankPositions(const std::vector<float>& scores) {
  std::vector<size_t> order(scores.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&scores](size_t a, size_t b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return a < b;
  });
  std::vector<double> position(scores.size());
  for (size_t rank = 0; rank < order.size(); ++rank) {
    position[order[rank]] = static_cast<double>(rank);
  }
  return position;
}

std::vector<ScoredIndex> TopKOfPairs(std::vector<ScoredIndex> pairs,
                                     size_t k) {
  if (k < pairs.size()) {
    std::partial_sort(pairs.begin(), pairs.begin() + k, pairs.end(),
                      RanksBefore);
    pairs.resize(k);
  } else {
    SortByScoreDescending(pairs);
  }
  UW_DCHECK(std::is_sorted(pairs.begin(), pairs.end(), RanksBefore))
      << "top-k result violates the RanksBefore total order";
  return pairs;
}

std::vector<ScoredIndex> TopK(const std::vector<float>& scores, size_t k) {
  TopKStream stream(k);
  for (size_t i = 0; i < scores.size(); ++i) stream.Push(scores[i], i);
  return stream.TakeSortedDescending();
}

TopKStream::TopKStream(size_t k) : k_(k) {
  heap_.reserve(std::min<size_t>(k, 4096));
}

void TopKStream::Push(float score, size_t index) {
  if (k_ == 0) return;
  const ScoredIndex next{score, index};
  if (heap_.size() < k_) {
    heap_.push_back(next);
    // With RanksBefore in the "less" role, the heap's maximum under that
    // order — the *worst-ranked* retained element — sits at the front.
    std::push_heap(heap_.begin(), heap_.end(), RanksBefore);
    return;
  }
  if (!RanksBefore(next, heap_.front())) return;  // not better than worst
  std::pop_heap(heap_.begin(), heap_.end(), RanksBefore);
  heap_.back() = next;
  std::push_heap(heap_.begin(), heap_.end(), RanksBefore);
}

std::vector<ScoredIndex> TopKStream::TakeSortedDescending() {
  std::sort(heap_.begin(), heap_.end(), RanksBefore);
  UW_DCHECK(std::is_sorted(heap_.begin(), heap_.end(), RanksBefore))
      << "streamed top-k result violates the RanksBefore total order";
  std::vector<ScoredIndex> result = std::move(heap_);
  heap_.clear();
  return result;
}

}  // namespace ultrawiki
