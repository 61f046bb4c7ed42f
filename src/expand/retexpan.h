#ifndef ULTRAWIKI_EXPAND_RETEXPAN_H_
#define ULTRAWIKI_EXPAND_RETEXPAN_H_

#include <string>
#include <vector>

#include "ann/ivf_index.h"
#include "embedding/entity_store.h"
#include "expand/expander.h"
#include "math/topk.h"

namespace ultrawiki {

/// One slice of the deterministic candidate partition: global candidate
/// position p belongs to slice p % count. Position-based (not id-based)
/// so the partition is stable under any id numbering and every slice
/// keeps the global tie-break order. {0, 1} is the whole list; each shard
/// of the serving cluster recalls over its own slice.
struct ShardSpec {
  int index = 0;
  int count = 1;

  bool valid() const { return count >= 1 && index >= 0 && index < count; }
};

/// RetExpan hyper-parameters.
struct RetExpanConfig {
  /// |L0|: size of the initial expansion list (recall stage). Negative
  /// seeds are deliberately ignored here so entities of the fine-grained
  /// class are not lost (paper §5.1.1).
  int initial_list_size = 200;
  /// Segment length l of the segmented re-ranking.
  int rerank_segment_length = 20;
  /// Disable to obtain the "- Neg Rerank" ablation of Table 5.
  bool use_negative_rerank = true;
  /// IVF lists probed by the ANN first stage when an index is attached
  /// (SetAnnIndex). 0 = the index's configured default. The recall knob:
  /// nprobe == nlist reproduces the exact full scan bit for bit.
  /// Pipeline::MakeRetExpan resolves UW_ANN_NPROBE here.
  int ann_nprobe = 0;
  /// The ANN first stage only engages when the candidate vocabulary is at
  /// least this large; smaller vocabularies take the exact scan (its cost
  /// is already trivial, and the IVF adds constant overhead). Tests set 0
  /// to force the ANN path at tiny scale.
  size_t ann_min_candidates = 4096;
};

/// The retrieval-based framework (paper §5.1): entity representation →
/// entity expansion by mean cosine similarity to the positive seeds
/// (Eq. 4) → segmented re-ranking by negative-seed similarity. The entity
/// representations come from an EntityStore built over a trained context
/// encoder; swapping in a store built from a contrastively-tuned or
/// retrieval-augmented encoder yields the +Contrast / +RA variants without
/// changing this class.
class RetExpan : public Expander {
 public:
  /// `store` and `candidates` must outlive the expander.
  RetExpan(const EntityStore* store,
           const std::vector<EntityId>* candidates,
           RetExpanConfig config = {}, std::string name = "RetExpan");

  std::vector<EntityId> Expand(const Query& query, size_t k) override;
  std::string name() const override { return name_; }

  /// Mean cosine similarity of `candidate` to `seeds` (paper Eq. 4).
  /// Per-pair scalar path, kept as the reference the batched
  /// EntityStore::SeedCentroidScores ranking is validated against.
  double SeedSimilarity(const std::vector<EntityId>& seeds,
                        EntityId candidate) const;

  /// The recall stage only: top-`size` candidates by positive-seed
  /// similarity, seeds excluded (exposed for the contrastive-data miner
  /// and the framework-interaction experiments). The {0, 1} slice of
  /// Recall.
  std::vector<EntityId> InitialExpansion(const Query& query,
                                         size_t size) const;

  /// The recall stage over one slice of the candidate positions: the
  /// top-`size` (centroid score, global candidate position) pairs over
  /// positions p with p % slice.count == slice.index, seeds excluded,
  /// best first by RanksBefore. Exact scan, or — with an index attached —
  /// IVF probe plus exact rerank. Every slice probes the same IVF lists,
  /// so pushing all slices' results through one TopKStream(size)
  /// reproduces the unsliced recall bit for bit at any nprobe.
  std::vector<ScoredIndex> Recall(const Query& query, size_t size,
                                  const ShardSpec& slice = {}) const;

  /// Attaches an ANN first stage (nullptr detaches). `ann` must be built
  /// over the same EntityStore this expander ranks with and must outlive
  /// the expander. When attached — and the candidate vocabulary clears
  /// `config.ann_min_candidates` — InitialExpansion retrieves an IVF
  /// candidate superset and reranks it with the exact centroid kernel;
  /// candidates absent from the store keep their exact score of 0, so at
  /// nprobe == nlist the ranking is bit-identical to the full scan.
  void SetAnnIndex(const IvfIndex* ann);

  const RetExpanConfig& config() const { return config_; }

 private:
  const EntityStore* store_;
  const std::vector<EntityId>* candidates_;
  RetExpanConfig config_;
  std::string name_;
  const IvfIndex* ann_ = nullptr;
  /// Position of each EntityId in `candidates_` (-1 = not a candidate);
  /// built by SetAnnIndex so the ANN path keeps the full scan's
  /// position-based tie-break. Indexed by id.
  std::vector<int64_t> position_of_;
  /// Candidate positions whose entity is absent from the store. The full
  /// scan scores them exactly 0; the ANN path pushes that same 0 so the
  /// tail of a ranking that reaches zero-scored entities stays identical.
  std::vector<size_t> absent_positions_;
};

/// The negative-seed segmented re-ranking (paper §5.1.1) of a recall
/// list, given each entry's positive- and negative-seed centroid scores
/// (`pos[i]`, `neg[i]` score `list[i]`). The key is the clamped margin
/// max(0, neg - pos): the raw sco^neg is dominated by the shared
/// fine-grained class, so the margin is what isolates entities aligned
/// with the negative attributes, and clamping makes the stable segment
/// sort a pure demotion of those entities, never a reshuffle of the
/// positives.
std::vector<EntityId> NegativeSeedRerank(const std::vector<EntityId>& list,
                                         const std::vector<float>& pos,
                                         const std::vector<float>& neg,
                                         int segment_length);

}  // namespace ultrawiki

#endif  // ULTRAWIKI_EXPAND_RETEXPAN_H_
