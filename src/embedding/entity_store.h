#ifndef ULTRAWIKI_EMBEDDING_ENTITY_STORE_H_
#define ULTRAWIKI_EMBEDDING_ENTITY_STORE_H_

#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "corpus/corpus.h"
#include "embedding/encoder.h"
#include "math/topk.h"

namespace ultrawiki {

/// Returns the masked context of `sentence`: every token outside the
/// mention span, optionally preceded by an augmentation `prefix` (the
/// retrieval-augmentation strategy prepends entity introductions here).
std::vector<TokenId> MaskedContext(const Sentence& sentence,
                                   const std::vector<TokenId>* prefix);

/// Controls entity-representation extraction.
struct EntityStoreConfig {
  /// Cap on sentences averaged per entity (keeps extraction O(V · cap)).
  int max_sentences_per_entity = 16;
  /// Optional per-entity augmentation prefixes, indexed by EntityId; when
  /// set, each sentence context is prefixed before encoding (paper §5.1.3).
  const std::vector<std::vector<TokenId>>* entity_prefixes = nullptr;
  /// Softmax temperature for the distribution representations; >1
  /// flattens the distribution, emulating the limited capacity of the
  /// probability space the paper attributes to ProbExpan.
  float distribution_temperature = 1.0f;
  /// Subtract the corpus-wide mean representation ("all-but-the-top"
  /// post-processing). Shallow encoders produce anisotropic hidden
  /// spaces where a common direction hides the fine-grained signal;
  /// centering restores cosine resolution.
  bool center = true;
};

/// Holds the per-entity representations RetExpan ranks with: the mean
/// hidden state h(e) over the entity's masked sentence contexts (the
/// paper's "average of the contextual embedding at the mask position
/// across all sentences containing it").
///
/// Storage is one contiguous row-major matrix over the present entities
/// plus a per-entity L2-norm cache, a pre-normalized (unit-row) copy and
/// an int8 copy of the unit rows (one byte per element plus one float
/// scale per row, rows 64-byte aligned), all (re)built deterministically
/// by Build() and Restore(): cosine similarity is a single cached-norm
/// dot, the batched scoring paths (SeedCentroidScores) run the blocked
/// kernels of math/simd_kernels.h over the unit rows with no per-call norm
/// recomputation, and PushCentroidTopK screens candidates on the int8
/// rows before scoring the survivors in float.
class EntityStore {
 public:
  /// Encodes every entity in `entities` with `encoder`.
  static EntityStore Build(const Corpus& corpus,
                           const ContextEncoder& encoder,
                           const std::vector<EntityId>& entities,
                           const EntityStoreConfig& config = {});

  EntityStore(EntityStore&&) = default;
  EntityStore& operator=(EntityStore&&) = default;
  EntityStore(const EntityStore&) = delete;
  EntityStore& operator=(const EntityStore&) = delete;

  /// Mean hidden state of `id`; the zero vector if the entity was not in
  /// the build set or has no sentences.
  std::span<const float> HiddenOf(EntityId id) const;

  /// Unit-normalized row of `id`; the zero vector if absent or zero-norm.
  std::span<const float> UnitOf(EntityId id) const;

  /// Cached L2 norm of `id`'s representation; 0 if absent.
  float NormOf(EntityId id) const;

  bool Has(EntityId id) const;

  /// Cosine similarity between the representations of two entities,
  /// computed as a blocked dot over the pre-normalized rows (norms are
  /// cached at Build()/Restore() time, never recomputed per call).
  float Similarity(EntityId a, EntityId b) const;

  /// Batched seed–candidate scoring for the paper's sco^pos/sco^neg: for
  /// every candidate c, returns mean_{s in seeds} cosine(c, s). Because
  /// rows are pre-normalized, the per-seed average folds exactly into one
  /// dot against the seed centroid (dot is linear in its second
  /// argument), turning O(|candidates|·|seeds|·dim) per-pair work into
  /// O((|candidates| + |seeds|)·dim). Absent seeds/candidates contribute
  /// a zero vector, matching the per-pair convention that their cosine
  /// is 0. Deterministic at any UW_THREADS.
  std::vector<float> SeedCentroidScores(
      const std::vector<EntityId>& seeds,
      const std::vector<EntityId>& candidates) const;

  /// The folded seed centroid SeedCentroidScores dots candidates against:
  /// mean of the seeds' unit rows (double accumulation in argument order,
  /// rounded to float per component). Exposed so the ANN first stage
  /// (ann/ivf_index.h) can probe with the exact same vector the exact
  /// rerank scores with. Empty seed sets yield the zero vector.
  Vec SeedCentroidOf(const std::vector<EntityId>& seeds) const;

  /// out[i] = float(DotBlocked(UnitOf(ids[i]), centroid)) — the exact
  /// per-candidate expression of SeedCentroidScores, over an explicit
  /// centroid. `centroid.size()` must equal dim(). Deterministic at any
  /// UW_THREADS; absent ids score exactly 0.0f (zero unit row).
  std::vector<float> CentroidScores(std::span<const float> centroid,
                                    const std::vector<EntityId>& ids) const;

  /// Pushes `(CentroidScores(centroid, ids)[i], positions[i])` for every
  /// i into `top`, leaving it exactly as those pushes would, while scoring
  /// in float only the candidates that can still reach the top: every
  /// candidate is first scored on its int8 row, which bounds its float
  /// score to an interval, and a candidate is skipped only when at least
  /// `top.k()` others provably score strictly higher. With at most
  /// `top.k()` candidates, or a non-finite centroid, every candidate is
  /// scored in float. Returns the number of candidates scored in float.
  /// Moves `kernel.int8_rows_scored` by the candidates screened and
  /// `kernel.rows_scored` by the survivors.
  size_t PushCentroidTopK(std::span<const float> centroid,
                          const std::vector<EntityId>& ids,
                          const std::vector<size_t>& positions,
                          TopKStream& top) const;

  /// The int8 copy of `id`'s unit row: UnitOf(id) ≈ Int8ScaleOf(id) ·
  /// Int8RowOf(id), each byte in [-127, 127]. All zero with scale 0 when
  /// the entity is absent or its row is zero; a row with a non-finite
  /// element is all zero with a NaN scale.
  std::span<const int8_t> Int8RowOf(EntityId id) const;
  float Int8ScaleOf(EntityId id) const;

  size_t dim() const { return dim_; }

  /// Serialization access: number of per-EntityId slots (present or not).
  size_t slot_count() const { return row_of_.size(); }

  /// Rebuilds a store from serialized parts (the snapshot load path).
  /// Every non-empty slot of `hidden` must have exactly `dim` entries.
  /// The norm cache and unit rows are rebuilt deterministically with the
  /// same kernels Build() uses, so a restored store scores bit-identically
  /// to the freshly built one it was saved from.
  static EntityStore Restore(size_t dim, std::vector<Vec> hidden);

 private:
  explicit EntityStore(size_t dim) : dim_(dim) {}

  /// Packs per-EntityId slots (empty = absent) into the contiguous
  /// matrix, norm cache, unit rows and int8 rows. Shared by Build() and
  /// Restore() so both construction paths produce bit-identical scoring
  /// state.
  void FinalizeFromSlots(std::vector<Vec> hidden);

  /// Quantizes unit row `row` into its int8 row and scale.
  void QuantizeRow(size_t row);

  /// Row of `id` in the int8 copy; absent ids map to the trailing zero
  /// row.
  size_t Int8Row(EntityId id) const;

  struct AlignedFree {
    void operator()(int8_t* bytes) const {
      ::operator delete[](bytes, std::align_val_t{64});
    }
  };

  size_t dim_;
  std::vector<int32_t> row_of_;  // indexed by EntityId; -1 => absent
  std::vector<float> data_;      // row-major raw hiddens, one row per present entity
  std::vector<float> unit_;      // row-major L2-normalized rows (zero row if norm 0)
  std::vector<float> norms_;     // per-row cached L2 norms
  // int8 unit rows, row-major with a trailing zero row for absent ids;
  // the allocation is 64-byte aligned, so at dim 64 each row is one line.
  std::unique_ptr<int8_t[], AlignedFree> int8_;
  std::vector<float> int8_scales_;  // per int8 row, trailing 0
  Vec zero_;
};

/// Builds the probability-distribution representations ProbExpan ranks
/// with (softmax over the entity vocabulary, averaged across sentences).
/// Heavy (O(V_entities) per sentence), so it is separate from EntityStore.
std::vector<Vec> BuildDistributionRepresentations(
    const Corpus& corpus, const ContextEncoder& encoder,
    const std::vector<EntityId>& entities, const EntityStoreConfig& config);

/// Sparse probability-distribution representation: the top-k entries of
/// the softmax, index-sorted, with the norm cached for cosine. The
/// truncation embodies the "limited capacity of the probability space"
/// the paper blames for ProbExpan's coarser granularity, and keeps
/// similarity O(k).
struct SparseVec {
  std::vector<std::pair<int32_t, float>> entries;  // sorted by index
  float norm = 0.0f;
};

/// Cosine similarity between two index-sorted sparse vectors.
float SparseCosine(const SparseVec& a, const SparseVec& b);

/// Sparse (top-`top_k`) variant of BuildDistributionRepresentations,
/// indexed by EntityId.
std::vector<SparseVec> BuildSparseDistributions(
    const Corpus& corpus, const ContextEncoder& encoder,
    const std::vector<EntityId>& entities, const EntityStoreConfig& config,
    int top_k);

}  // namespace ultrawiki

#endif  // ULTRAWIKI_EMBEDDING_ENTITY_STORE_H_
