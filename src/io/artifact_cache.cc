#include "io/artifact_cache.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <system_error>

#include "common/hash.h"
#include "io/snapshot.h"
#include "obs/metrics.h"

namespace ultrawiki {
namespace {

ArtifactCache* g_cache = nullptr;
std::once_flag g_cache_once;

void InitGlobalCache() {
  const char* env = std::getenv("UW_CACHE_DIR");
  static ArtifactCache cache(env == nullptr ? std::string() : std::string(env));
  g_cache = &cache;
}

char HexDigit(uint64_t nibble) {
  return "0123456789abcdef"[nibble & 0xF];
}

}  // namespace

ArtifactCache& ArtifactCache::Global() {
  std::call_once(g_cache_once, InitGlobalCache);
  return *g_cache;
}

void ArtifactCache::OverrideGlobalForTest(std::string root) {
  Global().root_ = std::move(root);
}

std::string ArtifactCache::PathFor(std::string_view kind, uint64_t key) const {
  if (!enabled()) return {};
  std::string path = root_;
  if (!path.empty() && path.back() != '/') path.push_back('/');
  path.append(kind);
  path.append("-v");
  path.append(std::to_string(kSnapshotVersion));
  path.push_back('-');
  for (int shift = 60; shift >= 0; shift -= 4) {
    path.push_back(HexDigit(key >> shift));
  }
  path.append(".uws");
  return path;
}

namespace internal_cache {

void RecordHit(const std::string& path) {
  static obs::Counter& hits = obs::GetCounter("cache.hit");
  static obs::Counter& bytes = obs::GetCounter("cache.bytes_read");
  hits.Increment();
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  bytes.Increment(ec ? 0 : static_cast<int64_t>(size));
}

void RecordMiss() {
  static obs::Counter& misses = obs::GetCounter("cache.miss");
  misses.Increment();
}

void EnsureParentDir(const std::string& path) {
  std::error_code ec;
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
}

void RecordSave(const std::string& path, const Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "[artifact_cache] store failed for %s: %s\n",
                 path.c_str(), status.message().c_str());
    return;
  }
  static obs::Counter& stores = obs::GetCounter("cache.store");
  stores.Increment();
}

}  // namespace internal_cache

uint64_t FingerprintConfig(const EncoderConfig& config) {
  Fnv1a h;
  h.Mix(std::string_view("EncoderConfig"));
  h.Mix(config.seed);
  h.Mix(config.token_dim);
  h.Mix(config.hidden_dim);
  h.Mix(config.projection_dim);
  h.Mix(config.augmentation_weight);
  return h.digest();
}

uint64_t FingerprintConfig(const EntityPredictionTrainConfig& config) {
  Fnv1a h;
  h.Mix(std::string_view("EntityPredictionTrainConfig"));
  h.Mix(config.seed);
  h.Mix(config.epochs);
  h.Mix(config.negative_samples);
  h.Mix(config.label_smoothing);
  h.Mix(config.learning_rate);
  h.Mix(config.min_learning_rate);
  h.Mix(config.in_class_negative_fraction);
  h.Mix(config.entity_prefixes != nullptr);
  return h.digest();
}

uint64_t FingerprintConfig(const EntityStoreConfig& config) {
  Fnv1a h;
  h.Mix(std::string_view("EntityStoreConfig"));
  h.Mix(config.max_sentences_per_entity);
  h.Mix(config.entity_prefixes != nullptr);
  h.Mix(config.distribution_temperature);
  h.Mix(config.center);
  return h.digest();
}

uint64_t FingerprintConfig(const DatasetConfig& config) {
  Fnv1a h;
  h.Mix(std::string_view("DatasetConfig"));
  h.Mix(config.seed);
  h.Mix(config.n_thred);
  h.Mix(config.queries_per_class);
  h.Mix(config.min_seeds);
  h.Mix(config.max_seeds);
  h.Mix(config.ultra_class_scale);
  h.Mix(config.higher_order_fraction);
  h.Mix(config.annotation.seed);
  h.Mix(config.annotation.auto_coverage);
  h.Mix(config.annotation.annotator_count);
  h.Mix(config.annotation.annotator_error_rate);
  h.Mix(config.hard_negative_fraction);
  h.Mix(config.background_keep_fraction);
  return h.digest();
}

uint64_t FingerprintConfig(const HybridLmConfig& config) {
  Fnv1a h;
  h.Mix(std::string_view("HybridLmConfig"));
  h.Mix(config.ngram.order);
  h.Mix(config.ngram.discount);
  h.Mix(config.ngram.unigram_alpha);
  h.Mix(config.association_weight);
  h.Mix(config.association_top_k);
  return h.digest();
}

uint64_t CombineFingerprints(std::initializer_list<uint64_t> parts) {
  Fnv1a h;
  h.Mix(std::string_view("CombineFingerprints"));
  for (uint64_t part : parts) {
    if (part == 0) return 0;
    h.Mix(part);
  }
  return h.digest();
}

}  // namespace ultrawiki
