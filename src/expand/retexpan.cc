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
  UW_SPAN("retexpan.recall");
  const size_t first = static_cast<size_t>(slice.index);
  const size_t stride = static_cast<size_t>(slice.count);
  const std::vector<EntityId> seeds = SortedSeedsOf(query);
  const Vec centroid = store_->SeedCentroidOf(query.pos_seeds);
  const auto is_seed = [&seeds](EntityId id) {
    return std::binary_search(seeds.begin(), seeds.end(), id);
  };
  const auto in_slice = [first, stride](size_t pos) {
    return stride == 1 || pos % stride == first;
  };
  // Gather the slice's non-seed (id, position) pairs, then push them all
  // through PushCentroidTopK: the int8 screen, then the exact float score
  // (CentroidScores) of every candidate that can still make the top
  // `size`. Candidates absent from the store read the screen's zero row
  // and score exactly 0.
  std::vector<size_t> positions;
  std::vector<EntityId> ids;
  const bool use_ann =
      ann_ != nullptr && candidates_->size() >= config_.ann_min_candidates;
  if (ann_ != nullptr && !use_ann) {
    obs::GetCounter("ann.fallback_exact").Increment();
  }
  if (use_ann) {
    // ANN recall: the members of the IVF lists nearest the seed centroid,
    // plus the absent candidates, which no list holds. They are scored
    // exactly as the full scan scores them, so the only approximation is
    // which candidates were retrieved at all. The probe ignores the slice,
    // so every slice retrieves the same lists and keeps only its own
    // positions of them. Members are walked list by list in probe order,
    // never sorted by id: the TopKStream result depends only on the
    // multiset of pushed (score, position) pairs, and positions are
    // unique, so the walk order cannot change a ranking.
    const int nprobe =
        config_.ann_nprobe > 0 ? config_.ann_nprobe : ann_->config().nprobe;
    // Seeds get filtered out below, so ask the first stage for enough
    // candidates that the rerank depth never starves.
    const std::vector<size_t> probed =
        ann_->ProbeLists(centroid, nprobe, size + seeds.size());
    size_t members = absent_positions_.size();
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
    for (const size_t pos : absent_positions_) {
      const EntityId id = (*candidates_)[pos];
      if (!in_slice(pos) || is_seed(id)) continue;
      positions.push_back(pos);
      ids.push_back(id);
    }
  } else {
    positions.reserve(candidates_->size() / stride + 1);
    ids.reserve(positions.capacity());
    for (size_t p = first; p < candidates_->size(); p += stride) {
      const EntityId id = (*candidates_)[p];
      if (is_seed(id)) continue;
      positions.push_back(p);
      ids.push_back(id);
    }
  }
  TopKStream stream(size);
  store_->PushCentroidTopK(centroid, ids, positions, stream);
  obs::GetCounter("retexpan.candidates_scored")
      .Increment(static_cast<int64_t>(ids.size()));
  return stream.TakeSortedDescending();
}

std::vector<EntityId> RetExpan::InitialExpansion(const Query& query,
                                                 size_t size) const {
  std::vector<EntityId> initial;
  for (const RecalledEntity& e : RecallEntities(query, size)) {
    initial.push_back(e.id);
  }
  return initial;
}

std::vector<RecalledEntity> RetExpan::RecallEntities(
    const Query& query, size_t size, const ShardSpec& slice) const {
  const std::vector<ScoredIndex> recalled = Recall(query, size, slice);
  std::vector<RecalledEntity> entities;
  entities.reserve(recalled.size());
  for (const ScoredIndex& s : recalled) {
    entities.push_back(RecalledEntity{s.score, static_cast<uint64_t>(s.index),
                                      (*candidates_)[s.index]});
  }
  return entities;
}

std::vector<EntityId> RetExpan::Expand(const Query& query, size_t k) {
  UW_SPAN("retexpan.expand");
  obs::GetCounter("retexpan.queries").Increment();
  return RetExpanRank(
             config_, query, k,
             [&](size_t size) { return RecallEntities(query, size); },
             [&](const std::vector<EntityId>& list) {
               return store_->SeedCentroidScores(query.neg_seeds, list);
             })
      .value();
}

StatusOr<std::vector<EntityId>> RetExpanRank(
    const RetExpanConfig& config, const Query& query, size_t k,
    const std::function<StatusOr<std::vector<RecalledEntity>>(size_t)>&
        recall,
    const std::function<StatusOr<std::vector<float>>(
        const std::vector<EntityId>&)>& neg_scores) {
  const StatusOr<std::vector<RecalledEntity>> recalled = recall(
      std::max<size_t>(k, static_cast<size_t>(config.initial_list_size)));
  if (!recalled.ok()) return recalled.status();
  std::vector<EntityId> list(recalled->size());
  std::vector<float> pos_scores(recalled->size());
  for (size_t i = 0; i < list.size(); ++i) {
    list[i] = (*recalled)[i].id;
    pos_scores[i] = (*recalled)[i].score;
  }
  if (config.use_negative_rerank && !query.neg_seeds.empty() &&
      !list.empty()) {
    UW_SPAN("retexpan.rerank");
    obs::GetCounter("retexpan.reranked_lists").Increment();
    // The positive side is the recall's own CentroidScores floats over
    // SeedCentroidOf(pos_seeds); only the negative side is scored afresh.
    const StatusOr<std::vector<float>> neg_scored = neg_scores(list);
    if (!neg_scored.ok()) return neg_scored.status();
    list = NegativeSeedRerank(list, pos_scores, *neg_scored,
                              config.rerank_segment_length);
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
