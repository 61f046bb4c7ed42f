#ifndef ULTRAWIKI_IO_ARTIFACT_CACHE_H_
#define ULTRAWIKI_IO_ARTIFACT_CACHE_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/status.h"
#include "dataset/dataset.h"
#include "embedding/encoder.h"
#include "embedding/entity_store.h"
#include "embedding/trainer.h"
#include "lm/hybrid_lm.h"

namespace ultrawiki {

/// Content-addressed snapshot cache for the expensive pipeline artifacts
/// (generated world with its corpus, mined inverted index, trained
/// encoder, entity store, IVF ANN index, frozen hybrid LM). Entries are keyed by a
/// fingerprint of everything that determines the artifact's bytes — the
/// generator/trainer configs that produced it — and by the snapshot format
/// version, so a format bump or any config change silently misses instead
/// of serving a stale artifact.
///
/// The cache is rooted at the `UW_CACHE_DIR` environment variable and is
/// disabled (every lookup misses, nothing is written) when unset or empty.
/// Every artifact goes through LoadOrBuild below, the one cache protocol:
/// a corrupt or truncated entry is indistinguishable from a miss, because
/// the checksummed loader rejects it and the rebuilt artifact overwrites
/// it.
///
/// Observability: every lookup bumps `cache.hit` or `cache.miss`, and hits
/// add the file size to `cache.bytes_read`; successful writes bump
/// `cache.store`.
class ArtifactCache {
 public:
  /// Process-global instance rooted at UW_CACHE_DIR (read once).
  static ArtifactCache& Global();

  /// Repoints the global instance (empty string disables). Test-only.
  static void OverrideGlobalForTest(std::string root);

  /// `root` empty => disabled.
  explicit ArtifactCache(std::string root) : root_(std::move(root)) {}

  bool enabled() const { return !root_.empty(); }
  const std::string& root() const { return root_; }

  /// `<root>/<kind>-v<format>-<key as hex>.uws`; empty when disabled.
  std::string PathFor(std::string_view kind, uint64_t key) const;

 private:
  std::string root_;
};

namespace internal_cache {
/// Bumps `cache.hit` and adds the entry's size to `cache.bytes_read`.
void RecordHit(const std::string& path);
void RecordMiss();
/// Creates the entry's parent directory if missing; best-effort.
void EnsureParentDir(const std::string& path);
/// Bumps `cache.store`, or logs the failed save (they should be rare and
/// actionable).
void RecordSave(const std::string& path, const Status& status);
}  // namespace internal_cache

/// Returns the `kind` artifact keyed on `key`: loaded from the global
/// cache when an intact entry exists, else built and stored.
///
/// `load(path)` returns a StatusOr of the artifact; a missing, corrupt or
/// mis-versioned entry counts as a miss. On a miss `build()` makes the
/// artifact and `save(artifact, path)` overwrites the entry. A failed
/// save is logged and swallowed — a read-only or full cache directory
/// degrades to cold runs, never to a crashed pipeline. When the cache is
/// disabled or `key` is 0 (unknown provenance: nothing sound to key on),
/// only `build()` runs and no counter moves.
template <typename Load, typename Build, typename Save>
std::invoke_result_t<Build> LoadOrBuild(std::string_view kind, uint64_t key,
                                        Load&& load, Build&& build,
                                        Save&& save) {
  const ArtifactCache& cache = ArtifactCache::Global();
  if (!cache.enabled() || key == 0) return build();
  const std::string path = cache.PathFor(kind, key);
  auto loaded = load(path);
  if (loaded.ok()) {
    internal_cache::RecordHit(path);
    return std::move(loaded).value();
  }
  internal_cache::RecordMiss();
  std::invoke_result_t<Build> built = build();
  internal_cache::EnsureParentDir(path);
  internal_cache::RecordSave(path, save(std::as_const(built), path));
  return built;
}

/// Config fingerprints for cache keys. Each mixes a distinct type tag and
/// every field (pointer members are mixed as a presence flag only, so
/// callers must not cache artifacts built with external prefix tables).
uint64_t FingerprintConfig(const EncoderConfig& config);
uint64_t FingerprintConfig(const EntityPredictionTrainConfig& config);
uint64_t FingerprintConfig(const EntityStoreConfig& config);
uint64_t FingerprintConfig(const DatasetConfig& config);
uint64_t FingerprintConfig(const HybridLmConfig& config);

/// Order-sensitive combination of sub-fingerprints into one cache key. A
/// zero part (an artifact of unknown provenance) makes the key 0, so
/// everything derived from it is built and never cached.
uint64_t CombineFingerprints(std::initializer_list<uint64_t> parts);

}  // namespace ultrawiki

#endif  // ULTRAWIKI_IO_ARTIFACT_CACHE_H_
