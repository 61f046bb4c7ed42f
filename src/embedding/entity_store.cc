#include "embedding/entity_store.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "math/simd_kernels.h"
#include "math/vec.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ultrawiki {

std::vector<TokenId> MaskedContext(const Sentence& sentence,
                                   const std::vector<TokenId>* prefix) {
  std::vector<TokenId> context;
  context.reserve(sentence.tokens.size() +
                  (prefix != nullptr ? prefix->size() : 0));
  if (prefix != nullptr) {
    context.insert(context.end(), prefix->begin(), prefix->end());
  }
  for (size_t i = 0; i < sentence.tokens.size(); ++i) {
    const int pos = static_cast<int>(i);
    if (pos >= sentence.mention_begin &&
        pos < sentence.mention_begin + sentence.mention_len) {
      continue;  // the [MASK]ed mention span
    }
    context.push_back(sentence.tokens[i]);
  }
  return context;
}

namespace {

/// Shared iteration: calls `fn(sentence)` for up to `cap` sentences of
/// each entity (deterministic: first `cap` in corpus order).
template <typename Fn>
void ForEachCappedSentence(const Corpus& corpus, EntityId id, int cap,
                           Fn&& fn) {
  const std::vector<int>& sentence_ids = corpus.SentencesOf(id);
  const int limit =
      std::min<int>(cap, static_cast<int>(sentence_ids.size()));
  for (int s = 0; s < limit; ++s) {
    fn(corpus.sentence(static_cast<size_t>(sentence_ids[static_cast<size_t>(s)])));
  }
}

/// Asks for every 64-byte cache line `row` touches, ahead of its use.
template <typename T>
void PrefetchRow(std::span<const T> row) {
  constexpr uintptr_t kLine = 64;
  const uintptr_t end = reinterpret_cast<uintptr_t>(row.data() + row.size());
  for (uintptr_t line = reinterpret_cast<uintptr_t>(row.data()) & ~(kLine - 1);
       line < end; line += kLine) {
    __builtin_prefetch(reinterpret_cast<const void*>(line));
  }
}

const std::vector<TokenId>* PrefixFor(const EntityStoreConfig& config,
                                      EntityId id) {
  if (config.entity_prefixes == nullptr) return nullptr;
  if (static_cast<size_t>(id) >= config.entity_prefixes->size()) {
    return nullptr;
  }
  return &(*config.entity_prefixes)[static_cast<size_t>(id)];
}

}  // namespace

EntityStore EntityStore::Build(const Corpus& corpus,
                               const ContextEncoder& encoder,
                               const std::vector<EntityId>& entities,
                               const EntityStoreConfig& config) {
  UW_SPAN("entity_store.build");
  static obs::Counter& entities_built =
      obs::GetCounter("entity_store.entities_built");
  static obs::Counter& sentences_encoded =
      obs::GetCounter("entity_store.sentences_encoded");
  entities_built.Increment(static_cast<int64_t>(entities.size()));
  EntityStore store(static_cast<size_t>(encoder.config().hidden_dim));
  std::vector<Vec> slots(corpus.entity_count());
  for (EntityId id : entities) {
    UW_CHECK_GE(id, 0);
    UW_CHECK_LT(static_cast<size_t>(id), corpus.entity_count());
  }
  // Each entity's representation is an independent encode-and-average;
  // slots are written back sequentially in `entities` order, so the store
  // is identical at every thread count.
  std::vector<Vec> built = ThreadPool::Global().ParallelMap<Vec>(
      static_cast<int64_t>(entities.size()), [&](int64_t e) {
        const EntityId id = entities[static_cast<size_t>(e)];
        Vec sum(store.dim_, 0.0f);
        int used = 0;
        ForEachCappedSentence(
            corpus, id, config.max_sentences_per_entity,
            [&](const Sentence& sentence) {
              const std::vector<TokenId> context =
                  MaskedContext(sentence, nullptr);
              const std::vector<TokenId>* prefix = PrefixFor(config, id);
              static const std::vector<TokenId> kNoPrefix;
              const Vec hidden = encoder.EncodeWithPrefix(
                  prefix != nullptr ? *prefix : kNoPrefix, context);
              AccumulateInPlace(sum, hidden);
              ++used;
            });
        sentences_encoded.Increment(used);
        if (used == 0) return Vec();
        Scale(1.0f / static_cast<float>(used), sum);
        return sum;
      });
  for (size_t e = 0; e < entities.size(); ++e) {
    if (built[e].empty()) continue;
    slots[static_cast<size_t>(entities[e])] = std::move(built[e]);
  }
  if (config.center) {
    Vec mean(store.dim_, 0.0f);
    int64_t built = 0;
    for (const Vec& h : slots) {
      if (h.empty()) continue;
      AccumulateInPlace(mean, h);
      ++built;
    }
    if (built > 0) {
      Scale(1.0f / static_cast<float>(built), mean);
      for (Vec& h : slots) {
        if (h.empty()) continue;
        for (size_t i = 0; i < h.size(); ++i) h[i] -= mean[i];
      }
    }
  }
  store.FinalizeFromSlots(std::move(slots));
  return store;
}

EntityStore EntityStore::Restore(size_t dim, std::vector<Vec> hidden) {
  EntityStore store(dim);
  for (const Vec& h : hidden) {
    UW_CHECK(h.empty() || h.size() == dim);
  }
  store.FinalizeFromSlots(std::move(hidden));
  return store;
}

void EntityStore::FinalizeFromSlots(std::vector<Vec> hidden) {
  zero_.assign(dim_, 0.0f);
  row_of_.assign(hidden.size(), -1);
  size_t rows = 0;
  for (const Vec& h : hidden) {
    if (!h.empty()) ++rows;
  }
  data_.resize(rows * dim_);
  unit_.resize(rows * dim_);
  norms_.resize(rows);
  // Rows are packed in ascending EntityId order, so the layout — and with
  // it every kernel result — is a pure function of the slot contents,
  // identical between a fresh Build() and a snapshot Restore().
  size_t row = 0;
  for (size_t slot = 0; slot < hidden.size(); ++slot) {
    const Vec& h = hidden[slot];
    if (h.empty()) continue;
    row_of_[slot] = static_cast<int32_t>(row);
    std::copy(h.begin(), h.end(), data_.begin() + row * dim_);
    const std::span<const float> raw(data_.data() + row * dim_, dim_);
    const double norm = NormBlocked(raw);
    norms_[row] = static_cast<float>(norm);
    float* unit = unit_.data() + row * dim_;
    if (norm > 0.0) {
      const double inv = 1.0 / norm;
      for (size_t i = 0; i < dim_; ++i) {
        unit[i] = static_cast<float>(static_cast<double>(raw[i]) * inv);
      }
    } else {
      std::fill(unit, unit + dim_, 0.0f);
    }
    ++row;
  }
  // The slots go before the int8 copy is allocated, so the copy never
  // adds to the build's peak memory.
  std::vector<Vec>().swap(hidden);
  int8_.reset(static_cast<int8_t*>(
      ::operator new[]((rows + 1) * dim_, std::align_val_t{64})));
  int8_scales_.assign(rows + 1, 0.0f);
  std::fill_n(int8_.get() + rows * dim_, dim_, int8_t{0});
  // Rows are independent, so the bytes are the same at any UW_THREADS.
  constexpr size_t kQuantizeBlock = 1024;
  ThreadPool::Global().ParallelFor(
      0, static_cast<int64_t>((rows + kQuantizeBlock - 1) / kQuantizeBlock),
      /*grain=*/1, [&](int64_t block) {
        const size_t begin = static_cast<size_t>(block) * kQuantizeBlock;
        const size_t end = std::min(rows, begin + kQuantizeBlock);
        for (size_t r = begin; r < end; ++r) QuantizeRow(r);
      });
}

void EntityStore::QuantizeRow(size_t row) {
  const float* unit = unit_.data() + row * dim_;
  int8_t* bytes = int8_.get() + row * dim_;
  float max_abs = 0.0f;
  bool finite = true;
  for (size_t i = 0; i < dim_; ++i) {
    const float magnitude = std::fabs(unit[i]);
    finite &= magnitude <= std::numeric_limits<float>::max();
    max_abs = std::max(max_abs, magnitude);
  }
  if (!finite || max_abs == 0.0f) {
    std::fill_n(bytes, dim_, int8_t{0});
    int8_scales_[row] =
        finite ? 0.0f : std::numeric_limits<float>::quiet_NaN();
    return;
  }
  // scale = max|u_i| / 127 and byte_i = round(u_i / scale), rounded half
  // away from zero by truncating t ± 0.5 (the clamp keeps the truncation
  // in range): |u_i - scale · byte_i| <= scale · (1/2 + 2^-16), the error
  // PushCentroidTopK's bound allows for.
  int8_scales_[row] = max_abs / 127.0f;
  const double inv = 127.0 / static_cast<double>(max_abs);
  for (size_t i = 0; i < dim_; ++i) {
    const double t = static_cast<double>(unit[i]) * inv;
    bytes[i] = static_cast<int8_t>(
        std::clamp(t + std::copysign(0.5, t), -127.0, 127.0));
  }
}

size_t EntityStore::Int8Row(EntityId id) const {
  return Has(id) ? static_cast<size_t>(row_of_[static_cast<size_t>(id)])
                 : norms_.size();
}

std::span<const int8_t> EntityStore::Int8RowOf(EntityId id) const {
  return std::span<const int8_t>(int8_.get() + Int8Row(id) * dim_, dim_);
}

float EntityStore::Int8ScaleOf(EntityId id) const {
  return int8_scales_[Int8Row(id)];
}

std::span<const float> EntityStore::HiddenOf(EntityId id) const {
  if (!Has(id)) return zero_;
  const size_t row =
      static_cast<size_t>(row_of_[static_cast<size_t>(id)]);
  return std::span<const float>(data_.data() + row * dim_, dim_);
}

std::span<const float> EntityStore::UnitOf(EntityId id) const {
  if (!Has(id)) return zero_;
  const size_t row =
      static_cast<size_t>(row_of_[static_cast<size_t>(id)]);
  return std::span<const float>(unit_.data() + row * dim_, dim_);
}

float EntityStore::NormOf(EntityId id) const {
  if (!Has(id)) return 0.0f;
  return norms_[static_cast<size_t>(row_of_[static_cast<size_t>(id)])];
}

bool EntityStore::Has(EntityId id) const {
  return id >= 0 && static_cast<size_t>(id) < row_of_.size() &&
         row_of_[static_cast<size_t>(id)] >= 0;
}

float EntityStore::Similarity(EntityId a, EntityId b) const {
  // Rows are pre-normalized, so cosine is a pure blocked dot; the
  // zero-norm/absent convention (similarity 0) falls out of the zero unit
  // rows.
  return static_cast<float>(DotBlocked(UnitOf(a), UnitOf(b)));
}

std::vector<float> EntityStore::SeedCentroidScores(
    const std::vector<EntityId>& seeds,
    const std::vector<EntityId>& candidates) const {
  UW_SPAN("kernel.seed_centroid_scores");
  std::vector<float> out(candidates.size(), 0.0f);
  if (seeds.empty() || candidates.empty()) return out;
  return CentroidScores(SeedCentroidOf(seeds), candidates);
}

Vec EntityStore::SeedCentroidOf(const std::vector<EntityId>& seeds) const {
  Vec centroid_f(dim_, 0.0f);
  if (seeds.empty()) return centroid_f;
  static obs::Counter& folds = obs::GetCounter("kernel.centroid_folds");
  folds.Increment();
  // mean_s cos(c, s) = mean_s dot(ĉ, ŝ) = dot(ĉ, mean_s ŝ): fold the
  // per-seed average into one centroid (double accumulation, seed order
  // fixed by the argument). Absent seeds keep their slot in the
  // denominator via the zero unit row, matching the per-pair path.
  std::vector<double> centroid(dim_, 0.0);
  for (EntityId seed : seeds) {
    const std::span<const float> u = UnitOf(seed);
    for (size_t i = 0; i < dim_; ++i) {
      centroid[i] += static_cast<double>(u[i]);
    }
  }
  const double inv = 1.0 / static_cast<double>(seeds.size());
  for (size_t i = 0; i < dim_; ++i) {
    centroid_f[i] = static_cast<float>(centroid[i] * inv);
  }
  return centroid_f;
}

std::vector<float> EntityStore::CentroidScores(
    std::span<const float> centroid,
    const std::vector<EntityId>& ids) const {
  UW_CHECK_EQ(centroid.size(), dim_);
  static obs::Counter& rows = obs::GetCounter("kernel.rows_scored");
  std::vector<float> out(ids.size(), 0.0f);
  if (ids.empty()) return out;
  rows.Increment(static_cast<int64_t>(ids.size()));
  // The rows of a gathered id list are scattered over the whole matrix,
  // so each one is a cache miss. Each row is prefetched kPrefetchRows
  // rows before it is scored, and rows are scored kGatherBlock at a time
  // through DotGather.
  constexpr size_t kGatherBlock = 64;
  constexpr size_t kPrefetchRows = 16;
  for (size_t i = 0; i < std::min(kPrefetchRows, ids.size()); ++i) {
    PrefetchRow(UnitOf(ids[i]));
  }
  const float* block[kGatherBlock] = {};
  for (size_t begin = 0; begin < ids.size(); begin += kGatherBlock) {
    const size_t count = std::min(kGatherBlock, ids.size() - begin);
    for (size_t j = 0; j < count; ++j) {
      block[j] = UnitOf(ids[begin + j]).data();
      const size_t ahead = begin + j + kPrefetchRows;
      if (ahead < ids.size()) PrefetchRow(UnitOf(ids[ahead]));
    }
    DotGather(std::span<const float* const>(block, count), centroid,
              std::span<float>(out).subspan(begin, count));
  }
  return out;
}

size_t EntityStore::PushCentroidTopK(std::span<const float> centroid,
                                     const std::vector<EntityId>& ids,
                                     const std::vector<size_t>& positions,
                                     TopKStream& top) const {
  UW_CHECK_EQ(centroid.size(), dim_);
  UW_CHECK_EQ(ids.size(), positions.size());
  // The certificate. Row r holds bytes q with |q_i| <= 127 and a scale s,
  // |u_i - s·q_i| <= s·(1/2 + 2^-16) (QuantizeRow). The centroid c is
  // quantized here to int16 p with scale s_c = max|c_i| / P,
  // |c_i - s_c·p_i| <= s_c·(1/2 + 2^-30). P = 32767 up to dim 516 and
  // shrinks past it, so D = sum q_i·p_i, |D| <= 127·P·dim < 2^31, is exact
  // in DotGatherInt8's int32. Then, with the estimate a = s·s_c·D,
  //   |u·c - a| <= sum |u_i - s·q_i|·|c_i| + s·sum |q_i|·|c_i - s_c·p_i|
  //             <= s·(1/2 + 2^-16)·(|c|_1 + 127·dim·s_c),
  // widened below to s·(1/2 + 2^-10)·(|c|_1 + 127·dim·s_c), which also
  // covers the double rounding of a, of the radius and of |c|_1. The
  // float score is float(DotBlocked(u, c)): its double sum is off by at
  // most dim·2^-53·|c|_1 and the float rounding by 2^-24·|u·c|, with
  // |u·c| <= |c|_1 since |u_i| <= 1; delta = 2^-22·max(1, |c|_1) covers
  // both. So every float score lies in [a - r, a + r], r = radius + delta.
  //
  // Let L be the k-th largest lower bound a - r. A candidate is dropped
  // only when its upper bound a + r < L: the k candidates whose lower
  // bounds reach L then all score strictly higher, so it is not in the
  // top k whatever the position tie-break, and the survivors' float
  // scores and order are exactly those of pushing every candidate. A NaN
  // bound (a row with a non-finite element) never drops a candidate and
  // never raises L. Absent ids read the zero row with scale 0: a = 0,
  // r = delta, around their exact score 0.
  const size_t k = top.k();
  double max_abs = 0.0;
  double l1 = 0.0;
  bool finite = true;
  for (const float c : centroid) {
    const double magnitude = std::fabs(static_cast<double>(c));
    finite &= magnitude <= std::numeric_limits<double>::max();
    max_abs = std::max(max_abs, magnitude);
    l1 += magnitude;
  }
  const double levels = std::min(
      32767.0, std::floor(2147483647.0 / (127.0 * static_cast<double>(dim_))));
  const std::vector<EntityId>* scored_ids = &ids;
  const std::vector<size_t>* scored_positions = &positions;
  std::vector<EntityId> kept_ids;
  std::vector<size_t> kept_positions;
  if (finite && levels >= 1.0 && k > 0 && ids.size() > k) {
    static obs::Counter& int8_rows =
        obs::GetCounter("kernel.int8_rows_scored");
    int8_rows.Increment(static_cast<int64_t>(ids.size()));
    const double query_scale = max_abs / levels;
    std::vector<int16_t> query(dim_, 0);
    if (query_scale > 0.0) {
      for (size_t i = 0; i < dim_; ++i) {
        query[i] = static_cast<int16_t>(std::clamp(
            std::nearbyint(static_cast<double>(centroid[i]) / query_scale),
            -levels, levels));
      }
    }
    const double spread =
        (0.5 + 0x1p-10) *
        (l1 + 127.0 * static_cast<double>(dim_) * query_scale);
    const double delta = 0x1p-22 * std::max(1.0, l1);
    std::vector<double> low(ids.size());
    std::vector<double> high(ids.size());
    // Rows are scattered like CentroidScores' float rows, but each is one
    // cache line at dim 64: prefetched kPrefetchRows ahead, scored
    // kGatherBlock at a time.
    constexpr size_t kGatherBlock = 64;
    constexpr size_t kPrefetchRows = 8;
    for (size_t i = 0; i < std::min(kPrefetchRows, ids.size()); ++i) {
      PrefetchRow(Int8RowOf(ids[i]));
    }
    const int8_t* block[kGatherBlock] = {};
    float scales[kGatherBlock] = {};
    int32_t dots[kGatherBlock] = {};
    for (size_t begin = 0; begin < ids.size(); begin += kGatherBlock) {
      const size_t count = std::min(kGatherBlock, ids.size() - begin);
      for (size_t j = 0; j < count; ++j) {
        const size_t row = Int8Row(ids[begin + j]);
        block[j] = int8_.get() + row * dim_;
        scales[j] = int8_scales_[row];
        const size_t ahead = begin + j + kPrefetchRows;
        if (ahead < ids.size()) PrefetchRow(Int8RowOf(ids[ahead]));
      }
      DotGatherInt8(std::span<const int8_t* const>(block, count), query,
                    std::span<int32_t>(dots, count));
      for (size_t j = 0; j < count; ++j) {
        const double scale = static_cast<double>(scales[j]);
        const double estimate =
            scale * query_scale * static_cast<double>(dots[j]);
        const double radius = scale * spread + delta;
        const double lower = estimate - radius;
        low[begin + j] = std::isnan(lower)
                             ? -std::numeric_limits<double>::infinity()
                             : lower;
        high[begin + j] = estimate + radius;
      }
    }
    std::vector<double> order = low;
    std::nth_element(order.begin(),
                     order.begin() + static_cast<std::ptrdiff_t>(k - 1),
                     order.end(), std::greater<double>());
    const double bar = order[k - 1];
    for (size_t i = 0; i < ids.size(); ++i) {
      if (high[i] < bar) continue;
      kept_ids.push_back(ids[i]);
      kept_positions.push_back(positions[i]);
    }
    scored_ids = &kept_ids;
    scored_positions = &kept_positions;
  }
  const std::vector<float> scores = CentroidScores(centroid, *scored_ids);
  for (size_t i = 0; i < scores.size(); ++i) {
    top.Push(scores[i], (*scored_positions)[i]);
  }
  return scores.size();
}

float SparseCosine(const SparseVec& a, const SparseVec& b) {
  if (a.norm <= 0.0f || b.norm <= 0.0f) return 0.0f;
  double dot = 0.0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.entries.size() && j < b.entries.size()) {
    if (a.entries[i].first < b.entries[j].first) {
      ++i;
    } else if (a.entries[i].first > b.entries[j].first) {
      ++j;
    } else {
      dot += static_cast<double>(a.entries[i].second) *
             static_cast<double>(b.entries[j].second);
      ++i;
      ++j;
    }
  }
  return static_cast<float>(dot / (static_cast<double>(a.norm) *
                                   static_cast<double>(b.norm)));
}

std::vector<SparseVec> BuildSparseDistributions(
    const Corpus& corpus, const ContextEncoder& encoder,
    const std::vector<EntityId>& entities, const EntityStoreConfig& config,
    int top_k) {
  UW_CHECK_GT(top_k, 0);
  const std::vector<Vec> dense =
      BuildDistributionRepresentations(corpus, encoder, entities, config);
  std::vector<SparseVec> result(dense.size());
  // Sparsification is per-row independent: parallel over rows, each
  // writing only its own SparseVec.
  ThreadPool::Global().ParallelFor(
      0, static_cast<int64_t>(dense.size()), /*grain=*/0, [&](int64_t row) {
    const size_t e = static_cast<size_t>(row);
    if (dense[e].empty()) return;
    // Top-k by mass, then re-sorted by index for the merge-based cosine.
    std::vector<std::pair<int32_t, float>> entries;
    entries.reserve(dense[e].size());
    for (size_t i = 0; i < dense[e].size(); ++i) {
      entries.emplace_back(static_cast<int32_t>(i), dense[e][i]);
    }
    const size_t keep = std::min<size_t>(static_cast<size_t>(top_k),
                                         entries.size());
    std::partial_sort(entries.begin(), entries.begin() + keep,
                      entries.end(), [](const auto& a, const auto& b) {
                        if (a.second != b.second) return a.second > b.second;
                        return a.first < b.first;
                      });
    entries.resize(keep);
    std::sort(entries.begin(), entries.end());
    SparseVec& sparse = result[e];
    sparse.entries = std::move(entries);
    double norm_sq = 0.0;
    for (const auto& [index, value] : sparse.entries) {
      norm_sq += static_cast<double>(value) * static_cast<double>(value);
    }
    sparse.norm = static_cast<float>(std::sqrt(norm_sq));
  });
  return result;
}

std::vector<Vec> BuildDistributionRepresentations(
    const Corpus& corpus, const ContextEncoder& encoder,
    const std::vector<EntityId>& entities, const EntityStoreConfig& config) {
  UW_SPAN("entity_store.distributions");
  std::vector<Vec> result(corpus.entity_count());
  // Same parallel shape as EntityStore::Build: independent per-entity
  // work into per-index slots, sequential write-back in `entities` order.
  std::vector<Vec> built = ThreadPool::Global().ParallelMap<Vec>(
      static_cast<int64_t>(entities.size()), [&](int64_t e) {
        const EntityId id = entities[static_cast<size_t>(e)];
        Vec sum(encoder.entity_vocab_size(), 0.0f);
        int used = 0;
        ForEachCappedSentence(
            corpus, id, config.max_sentences_per_entity,
            [&](const Sentence& sentence) {
              const std::vector<TokenId> context =
                  MaskedContext(sentence, nullptr);
              const std::vector<TokenId>* prefix = PrefixFor(config, id);
              static const std::vector<TokenId> kNoPrefix;
              Vec hidden = encoder.EncodeWithPrefix(
                  prefix != nullptr ? *prefix : kNoPrefix, context);
              if (config.distribution_temperature != 1.0f &&
                  config.distribution_temperature > 0.0f) {
                Scale(1.0f / config.distribution_temperature, hidden);
              }
              const Vec dist = encoder.EntityDistribution(hidden);
              AccumulateInPlace(sum, dist);
              ++used;
            });
        if (used == 0) return Vec();
        Scale(1.0f / static_cast<float>(used), sum);
        return sum;
      });
  for (size_t e = 0; e < entities.size(); ++e) {
    if (built[e].empty()) continue;
    result[static_cast<size_t>(entities[e])] = std::move(built[e]);
  }
  return result;
}

}  // namespace ultrawiki
