#ifndef ULTRAWIKI_ANN_IVF_INDEX_H_
#define ULTRAWIKI_ANN_IVF_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "embedding/entity_store.h"

namespace ultrawiki {

/// Controls the IVF-Flat approximate first-stage retriever.
struct IvfConfig {
  /// Number of inverted lists (k-means clusters). 0 = auto:
  /// ceil(sqrt(present rows)), clamped to [1, rows].
  int nlist = 0;
  /// Default number of lists probed per query — the recall knob. Larger
  /// probes more candidates (higher recall, more exact-rerank work);
  /// nprobe == nlist degenerates to the exact full scan. Callers may
  /// override per query (RetExpan resolves UW_ANN_NPROBE here).
  int nprobe = 16;
  /// Lloyd iterations of the deterministic spherical k-means.
  int kmeans_iterations = 8;
  /// Seed of the deterministic centroid initialization.
  uint64_t seed = 17;
};

/// Deterministic fingerprint of every IVF knob (artifact-cache key part).
uint64_t FingerprintConfig(const IvfConfig& config);

/// IVF-Flat candidate retriever over an EntityStore's pre-normalized unit
/// rows: deterministic spherical k-means partitions the present entities
/// into `nlist` inverted lists; at query time the seed centroid is scored
/// against the `nlist` centroid rows (blocked kernels, one dot per list)
/// and the members of the best `nprobe` lists become the candidate
/// superset handed to the *exact* blocked-kernel rerank.
///
/// Determinism contract: Build() is a pure function of the store's rows
/// and the config — fixed seed, fixed iteration order, ascending-id row
/// walk, blocked double-accumulation dots — so two builds (or a build and
/// a snapshot restore) produce bit-identical centroids and lists, and
/// ProbeLists() and Candidates() are pure functions of (centroid bytes,
/// query centroid, nprobe, k_cand) at any UW_THREADS. At nprobe >= nlist
/// the candidate set is exactly every present entity, which is what the
/// parity test leans on: ANN first stage + exact rerank == full scan, bit
/// for bit.
class IvfIndex {
 public:
  /// Clusters the present rows of `store`. The store must outlive nothing
  /// — the index copies the centroids and keeps only entity ids, so it is
  /// self-contained once built (snapshots restore without the store).
  static IvfIndex Build(const EntityStore& store, IvfConfig config = {});

  /// Rebuilds an index from serialized parts (the snapshot load path).
  /// Validates geometry: `centroids.size() == nlist * dim`, every member
  /// id non-negative, each list strictly ascending. Returns kInternal on
  /// any violation so corrupt snapshots fail closed.
  static StatusOr<IvfIndex> Restore(IvfConfig config, size_t dim,
                                    std::vector<float> centroids,
                                    std::vector<std::vector<EntityId>> lists);

  IvfIndex(IvfIndex&&) = default;
  IvfIndex& operator=(IvfIndex&&) = default;
  IvfIndex(const IvfIndex&) = delete;
  IvfIndex& operator=(const IvfIndex&) = delete;

  /// The probe rule: scores `seed_centroid` (dim floats, the exact fold
  /// EntityStore::SeedCentroidOf builds) against every list centroid and
  /// returns the indices of the lists to probe, in probe order (descending
  /// score, centroid-index tie-break). Probes at least min(nprobe, nlist)
  /// lists and keeps probing past `nprobe` while the probed lists hold
  /// fewer than `k_cand` members, so the exact rerank is never starved
  /// below its requested depth. The one place that moves the `ann.queries`,
  /// `ann.lists_probed`, `ann.candidates_returned` and
  /// `ann.centroid_rows_scored` counters, the
  /// `ann.candidate_fraction_x1000` gauge and the `ann.candidates` span.
  std::vector<size_t> ProbeLists(std::span<const float> seed_centroid,
                                 int nprobe, size_t k_cand) const;

  /// First-stage retrieval: the members of the ProbeLists() lists, as one
  /// ascending-id union.
  std::vector<EntityId> Candidates(std::span<const float> seed_centroid,
                                   int nprobe, size_t k_cand) const;

  const IvfConfig& config() const { return config_; }
  int nlist() const { return static_cast<int>(lists_.size()); }
  size_t dim() const { return dim_; }
  /// Total entities across all lists (= present rows of the built store).
  size_t rows() const { return rows_; }

  /// Serialization access.
  std::span<const float> centroids() const { return centroids_; }
  const std::vector<std::vector<EntityId>>& lists() const { return lists_; }

 private:
  IvfIndex() = default;

  IvfConfig config_;
  size_t dim_ = 0;
  size_t rows_ = 0;
  std::vector<float> centroids_;  // row-major nlist x dim
  std::vector<std::vector<EntityId>> lists_;  // ascending ids per list
};

/// True when `UW_ANN_ENABLE` is set to a non-empty value other than "0":
/// the pipeline then builds the IVF index and attaches it to RetExpan.
bool AnnEnabledFromEnv();

/// Positive value of `UW_ANN_NPROBE`, or 0 when unset (callers fall back
/// to the index's configured default); a malformed or non-positive value
/// warns and also yields 0.
int AnnNprobeFromEnv();

}  // namespace ultrawiki

#endif  // ULTRAWIKI_ANN_IVF_INDEX_H_
