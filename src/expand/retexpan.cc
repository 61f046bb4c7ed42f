#include "expand/retexpan.h"

#include <algorithm>

#include "common/logging.h"
#include "expand/rerank.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ultrawiki {

RetExpan::RetExpan(const EntityStore* store,
                   const std::vector<EntityId>* candidates,
                   RetExpanConfig config, std::string name)
    : store_(store),
      candidates_(candidates),
      config_(config),
      name_(std::move(name)) {
  UW_CHECK_NE(store, nullptr);
  UW_CHECK_NE(candidates, nullptr);
}

double RetExpan::SeedSimilarity(const std::vector<EntityId>& seeds,
                                EntityId candidate) const {
  if (seeds.empty()) return 0.0;
  double sum = 0.0;
  for (EntityId seed : seeds) {
    sum += static_cast<double>(store_->Similarity(candidate, seed));
  }
  return sum / static_cast<double>(seeds.size());
}

void RetExpan::SetAnnIndex(const IvfIndex* ann) {
  ann_ = ann;
  position_of_.clear();
  absent_positions_.clear();
  if (ann == nullptr) return;
  EntityId max_id = -1;
  for (const EntityId id : *candidates_) max_id = std::max(max_id, id);
  position_of_.assign(static_cast<size_t>(max_id) + 1, -1);
  for (size_t i = 0; i < candidates_->size(); ++i) {
    const EntityId id = (*candidates_)[i];
    UW_CHECK_GE(id, 0);
    UW_CHECK_LT(position_of_[static_cast<size_t>(id)], 0)
        << "duplicate candidate id " << id
        << " breaks the ANN-vs-full-scan position tie-break";
    position_of_[static_cast<size_t>(id)] = static_cast<int64_t>(i);
    if (!store_->Has(id)) absent_positions_.push_back(i);
  }
}

std::vector<ScoredIndex> RetExpan::Recall(const Query& query, size_t size,
                                          const ShardSpec& slice) const {
  UW_CHECK(slice.valid()) << "bad slice " << slice.index << "/"
                          << slice.count;
  const size_t first = static_cast<size_t>(slice.index);
  const size_t stride = static_cast<size_t>(slice.count);
  const std::vector<EntityId> seeds = SortedSeedsOf(query);
  const auto is_seed = [&seeds](EntityId id) {
    return std::binary_search(seeds.begin(), seeds.end(), id);
  };
  const auto in_slice = [first, stride](size_t pos) {
    return stride == 1 || pos % stride == first;
  };
  const bool use_ann =
      ann_ != nullptr && candidates_->size() >= config_.ann_min_candidates;
  if (ann_ != nullptr && !use_ann) {
    obs::GetCounter("ann.fallback_exact").Increment();
  }
  TopKStream stream(size);
  std::vector<size_t> positions;
  std::vector<EntityId> ids;
  if (use_ann) {
    // ANN recall: probe the IVF lists nearest the seed centroid, then
    // rerank their members with the *exact* centroid kernel — the very
    // DotBlocked expression the full scan uses — so every surviving
    // candidate carries its full-scan score, and the only approximation
    // is which candidates were retrieved at all. PushCentroidTopK screens
    // the members on their int8 rows first and scores in float only those
    // that can still make the top `size`; the kept set, scores and order
    // are those of scoring every member. The probe ignores the slice, so
    // every slice retrieves the same lists and keeps only its own
    // positions of them. Members are walked list by list in probe order,
    // never sorted by id: the TopKStream result depends only on the
    // multiset of pushed (score, position) pairs, and positions are
    // unique, so the walk order cannot change a ranking.
    UW_SPAN("retexpan.initial_expansion_ann");
    const Vec centroid = store_->SeedCentroidOf(query.pos_seeds);
    const int nprobe =
        config_.ann_nprobe > 0 ? config_.ann_nprobe : ann_->config().nprobe;
    // Seeds get filtered out below, so ask the first stage for enough
    // candidates that the rerank depth never starves.
    const std::vector<size_t> probed =
        ann_->ProbeLists(centroid, nprobe, size + seeds.size());
    size_t members = 0;
    for (const size_t list : probed) members += ann_->lists()[list].size();
    positions.reserve(members);
    ids.reserve(members);
    for (const size_t list : probed) {
      for (const EntityId id : ann_->lists()[list]) {
        if (static_cast<size_t>(id) >= position_of_.size()) continue;
        const int64_t pos = position_of_[static_cast<size_t>(id)];
        if (pos < 0) continue;  // in the store but not a candidate
        if (!in_slice(static_cast<size_t>(pos)) || is_seed(id)) continue;
        positions.push_back(static_cast<size_t>(pos));
        ids.push_back(id);
      }
    }
    store_->PushCentroidTopK(centroid, ids, positions, stream);
    // Candidates absent from the store score exactly 0 in the full scan
    // (zero unit row); push that same 0 so a ranking whose tail reaches
    // them is unchanged.
    for (const size_t pos : absent_positions_) {
      if (!in_slice(pos) || is_seed((*candidates_)[pos])) continue;
      stream.Push(0.0f, pos);
    }
  } else {
    // Batched recall: one centroid fold plus one blocked dot per candidate
    // (EntityStore::SeedCentroidScores) instead of |seeds| per-pair cosines
    // with recomputed norms, streamed into a bounded top-k heap instead of
    // materialize-then-partial-sort. Candidate positions keep the original
    // index tie-break.
    UW_SPAN("retexpan.initial_expansion");
    positions.reserve(candidates_->size() / stride + 1);
    ids.reserve(positions.capacity());
    for (size_t p = first; p < candidates_->size(); p += stride) {
      const EntityId id = (*candidates_)[p];
      if (is_seed(id)) continue;
      positions.push_back(p);
      ids.push_back(id);
    }
    const std::vector<float> scores =
        store_->SeedCentroidScores(query.pos_seeds, ids);
    for (size_t i = 0; i < positions.size(); ++i) {
      stream.Push(scores[i], positions[i]);
    }
  }
  obs::GetCounter("retexpan.candidates_scored")
      .Increment(static_cast<int64_t>(ids.size()));
  return stream.TakeSortedDescending();
}

std::vector<EntityId> RetExpan::InitialExpansion(const Query& query,
                                                 size_t size) const {
  const std::vector<ScoredIndex> scored = Recall(query, size);
  std::vector<EntityId> initial;
  initial.reserve(scored.size());
  for (const ScoredIndex& s : scored) {
    initial.push_back((*candidates_)[s.index]);
  }
  return initial;
}

std::vector<EntityId> RetExpan::Expand(const Query& query, size_t k) {
  UW_SPAN("retexpan.expand");
  obs::GetCounter("retexpan.queries").Increment();
  const size_t initial_size = std::max<size_t>(
      k, static_cast<size_t>(config_.initial_list_size));
  const std::vector<ScoredIndex> recalled = Recall(query, initial_size);
  std::vector<EntityId> list;
  std::vector<float> pos_scores;
  list.reserve(recalled.size());
  pos_scores.reserve(recalled.size());
  for (const ScoredIndex& s : recalled) {
    list.push_back((*candidates_)[s.index]);
    pos_scores.push_back(s.score);
  }
  if (config_.use_negative_rerank && !query.neg_seeds.empty()) {
    UW_SPAN("retexpan.rerank");
    obs::GetCounter("retexpan.reranked_lists").Increment();
    // The positive side reuses the recall's scores: both are
    // CentroidScores over SeedCentroidOf(pos_seeds) with the same kernel,
    // so a present entity gets the same float, and an absent entity (or
    // any entity under an empty positive seed set) gets +0.0f on both
    // paths. Only the negative side needs a fresh centroid pass.
    list = NegativeSeedRerank(
        list, pos_scores, store_->SeedCentroidScores(query.neg_seeds, list),
        config_.rerank_segment_length);
  }
  if (list.size() > k) list.resize(k);
  return list;
}

std::vector<EntityId> NegativeSeedRerank(const std::vector<EntityId>& list,
                                         const std::vector<float>& pos,
                                         const std::vector<float>& neg,
                                         int segment_length) {
  UW_CHECK_EQ(pos.size(), list.size());
  UW_CHECK_EQ(neg.size(), list.size());
  std::vector<double> margins(list.size(), 0.0);
  for (size_t i = 0; i < list.size(); ++i) {
    margins[i] = std::max(
        0.0, static_cast<double>(neg[i]) - static_cast<double>(pos[i]));
  }
  return SegmentedRerankByPosition(list, margins, segment_length);
}

}  // namespace ultrawiki
