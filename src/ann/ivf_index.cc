#include "ann/ivf_index.h"

#include <algorithm>
#include <cmath>

#include "common/env.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "math/simd_kernels.h"
#include "math/topk.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ultrawiki {

uint64_t FingerprintConfig(const IvfConfig& config) {
  Fnv1a hash;
  hash.Mix("IvfConfig");
  hash.Mix(config.nlist);
  hash.Mix(config.nprobe);
  hash.Mix(config.kmeans_iterations);
  hash.Mix(config.seed);
  return hash.digest();
}

bool AnnEnabledFromEnv() { return EnvFlag("UW_ANN_ENABLE"); }

int AnnNprobeFromEnv() { return EnvInt("UW_ANN_NPROBE", 0, 1); }

namespace {

/// Index of the best-scoring centroid for `row`: highest blocked dot,
/// lowest centroid index on exact ties (the deterministic assignment the
/// whole build hinges on).
int AssignRow(std::span<const float> centroids, size_t dim,
              std::span<const float> row) {
  const std::vector<float> scores = ScoreMany(centroids, dim, row);
  int best = 0;
  for (int c = 1; c < static_cast<int>(scores.size()); ++c) {
    if (scores[static_cast<size_t>(c)] > scores[static_cast<size_t>(best)]) {
      best = c;
    }
  }
  return best;
}

}  // namespace

IvfIndex IvfIndex::Build(const EntityStore& store, IvfConfig config) {
  UW_SPAN("ann.build");
  obs::GetCounter("ann.builds").Increment();
  IvfIndex index;
  index.config_ = config;
  index.dim_ = store.dim();

  // Present entities in ascending-id order: the fixed row walk every
  // deterministic step below iterates in.
  std::vector<EntityId> ids;
  for (EntityId id = 0; static_cast<size_t>(id) < store.slot_count();
       ++id) {
    if (store.Has(id)) ids.push_back(id);
  }
  index.rows_ = ids.size();
  if (ids.empty()) return index;

  const size_t dim = index.dim_;
  const size_t rows = ids.size();
  size_t nlist =
      config.nlist > 0
          ? std::min<size_t>(static_cast<size_t>(config.nlist), rows)
          : static_cast<size_t>(
                std::ceil(std::sqrt(static_cast<double>(rows))));
  nlist = std::max<size_t>(1, std::min(nlist, rows));

  // Init: nlist distinct rows drawn with the fixed seed, sorted ascending
  // so centroid j is a pure function of the drawn id multiset.
  Rng rng(config.seed);
  std::vector<EntityId> picked = rng.SampleWithoutReplacement(ids, nlist);
  std::sort(picked.begin(), picked.end());
  index.centroids_.assign(nlist * dim, 0.0f);
  for (size_t c = 0; c < nlist; ++c) {
    const std::span<const float> u = store.UnitOf(picked[c]);
    std::copy(u.begin(), u.end(), index.centroids_.begin() + c * dim);
  }

  // Lloyd iterations of spherical k-means. Assignment is embarrassingly
  // parallel (each row is a pure function of the previous centroids);
  // the update pass accumulates serially in ascending-id order with
  // double precision, so the result is identical at any UW_THREADS.
  obs::Counter& iterations = obs::GetCounter("ann.kmeans_iterations");
  std::vector<int> assign(rows, 0);
  const int iters = std::max(1, config.kmeans_iterations);
  for (int it = 0; it < iters; ++it) {
    iterations.Increment();
    const std::span<const float> centroids(index.centroids_);
    std::vector<int> next = ThreadPool::Global().ParallelMap<int>(
        static_cast<int64_t>(rows), [&](int64_t r) {
          return AssignRow(centroids, dim,
                           store.UnitOf(ids[static_cast<size_t>(r)]));
        });
    assign = std::move(next);
    std::vector<double> sums(nlist * dim, 0.0);
    std::vector<int64_t> counts(nlist, 0);
    for (size_t r = 0; r < rows; ++r) {
      const std::span<const float> u = store.UnitOf(ids[r]);
      double* sum = sums.data() + static_cast<size_t>(assign[r]) * dim;
      for (size_t i = 0; i < dim; ++i) {
        sum[i] += static_cast<double>(u[i]);
      }
      ++counts[static_cast<size_t>(assign[r])];
    }
    for (size_t c = 0; c < nlist; ++c) {
      // Empty clusters keep their previous centroid: they may attract
      // rows in a later iteration, and a stale centroid is still a valid
      // probe target (its list just ends up empty).
      if (counts[c] == 0) continue;
      const double* sum = sums.data() + c * dim;
      double norm_sq = 0.0;
      for (size_t i = 0; i < dim; ++i) norm_sq += sum[i] * sum[i];
      const double norm = std::sqrt(norm_sq);
      if (norm <= 0.0) continue;
      float* centroid = index.centroids_.data() + c * dim;
      for (size_t i = 0; i < dim; ++i) {
        centroid[i] = static_cast<float>(sum[i] / norm);
      }
    }
  }

  index.lists_.resize(nlist);
  for (size_t r = 0; r < rows; ++r) {
    index.lists_[static_cast<size_t>(assign[r])].push_back(ids[r]);
  }
  obs::GetGauge("ann.nlist").Set(static_cast<int64_t>(nlist));
  obs::GetGauge("ann.rows").Set(static_cast<int64_t>(rows));
  return index;
}

StatusOr<IvfIndex> IvfIndex::Restore(
    IvfConfig config, size_t dim, std::vector<float> centroids,
    std::vector<std::vector<EntityId>> lists) {
  const size_t nlist = lists.size();
  if (nlist == 0) {
    if (!centroids.empty()) {
      return Status::Internal("ANN index has centroids but no lists");
    }
  } else if (dim == 0 || centroids.size() != nlist * dim) {
    return Status::Internal("ANN index centroid geometry mismatch");
  }
  size_t rows = 0;
  for (const std::vector<EntityId>& list : lists) {
    for (size_t i = 0; i < list.size(); ++i) {
      if (list[i] < 0) {
        return Status::Internal("ANN index list holds a negative id");
      }
      if (i > 0 && list[i] <= list[i - 1]) {
        return Status::Internal("ANN index list is not strictly ascending");
      }
    }
    rows += list.size();
  }
  IvfIndex index;
  index.config_ = config;
  index.dim_ = dim;
  index.rows_ = rows;
  index.centroids_ = std::move(centroids);
  index.lists_ = std::move(lists);
  return index;
}

std::vector<size_t> IvfIndex::ProbeLists(std::span<const float> seed_centroid,
                                         int nprobe, size_t k_cand) const {
  UW_SPAN("ann.candidates");
  obs::GetCounter("ann.queries").Increment();
  std::vector<size_t> probed;
  if (lists_.empty()) return probed;
  UW_CHECK_EQ(seed_centroid.size(), dim_);

  // First stage scores nlist centroid rows — not the store's `rows_`
  // entity rows — which is the whole scaling argument.
  obs::GetCounter("ann.centroid_rows_scored")
      .Increment(static_cast<int64_t>(lists_.size()));
  const std::vector<float> scores =
      ScoreMany(centroids_, dim_, seed_centroid);
  std::vector<ScoredIndex> order(scores.size());
  for (size_t c = 0; c < scores.size(); ++c) {
    order[c] = ScoredIndex{scores[c], c};
  }
  // Probe order is RanksBefore: score descending, centroid index
  // ascending on ties, NaN last — the same total order every ranking
  // stage in the repo uses. Being total, any sort yields the same
  // prefix, so only the `probe_floor` lists that are always probed are
  // selected up front; the rest are sorted only when `k_cand` asks for
  // more.
  const size_t probe_floor = std::min<size_t>(
      lists_.size(), static_cast<size_t>(std::max(1, nprobe)));
  std::partial_sort(order.begin(), order.begin() + probe_floor, order.end(),
                    RanksBefore);
  size_t gathered = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    if (i >= probe_floor && gathered >= k_cand) break;
    if (i == probe_floor) {
      std::sort(order.begin() + i, order.end(), RanksBefore);
    }
    probed.push_back(order[i].index);
    gathered += lists_[order[i].index].size();
  }
  obs::GetCounter("ann.lists_probed")
      .Increment(static_cast<int64_t>(probed.size()));
  obs::GetCounter("ann.candidates_returned")
      .Increment(static_cast<int64_t>(gathered));
  if (rows_ > 0) {
    obs::GetGauge("ann.candidate_fraction_x1000")
        .Set(static_cast<int64_t>(gathered * 1000 / rows_));
  }
  return probed;
}

std::vector<EntityId> IvfIndex::Candidates(
    std::span<const float> seed_centroid, int nprobe, size_t k_cand) const {
  std::vector<EntityId> out;
  for (const size_t list : ProbeLists(seed_centroid, nprobe, k_cand)) {
    out.insert(out.end(), lists_[list].begin(), lists_[list].end());
  }
  // Lists are disjoint, so the union is duplicate-free.
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace ultrawiki
