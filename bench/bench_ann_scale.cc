// ANN scaling bench: builds the streamed scaled store (default 100k
// entities; UW_ANN_BENCH_ENTITIES overrides), trains the IVF-Flat index
// over it, and compares the exact full centroid scan against the IVF
// first stage + exact rerank on the same seed queries, and the certified
// int8 screen (EntityStore::PushCentroidTopK) against the float rerank of
// every candidate. Emits `ann.bench.*` gauges into the UW_BENCH_JSON
// snapshot: the deterministic ones (entities, dim, nlist, rows scored,
// recall@50, int8 survivors) are pinned by
// bench/baselines/bench_ann_scale.json; the timing ones (build_ms,
// exact/probe QPS, speedup) are asserted inline — recall@50 >= 0.98,
// probe QPS above exact QPS, strictly fewer rows scored, the certified
// top-50 equal to the float one for every query — when
// the UW_ANN_BENCH_ASSERT flag is on (the CI bench-observability job
// sets it).
// Stdout is timing-free and byte-identical across thread counts.

#include <chrono>
#include <cstdio>
#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <set>
#include <vector>

#include "bench_env.h"

#include "ann/ivf_index.h"
#include "ann/scaled_store.h"
#include "common/env.h"
#include "embedding/entity_store.h"
#include "math/topk.h"
#include "obs/metrics.h"

namespace ultrawiki {
namespace {

constexpr size_t kTopK = 50;
constexpr int kQueries = 32;
constexpr int kSeedsPerQuery = 8;

int64_t EnvEntities() { return EnvInt("UW_ANN_BENCH_ENTITIES", 100000, 1); }

std::vector<size_t> TopIndices(const std::vector<float>& scores,
                               size_t k) {
  const std::vector<ScoredIndex> top = TopK(scores, k);
  std::vector<size_t> indices;
  indices.reserve(top.size());
  for (const ScoredIndex& s : top) indices.push_back(s.index);
  return indices;
}

/// True when both rankings hold the same indices with bit-identical
/// scores (so -0.0 differs from +0.0 and NaNs compare by payload).
bool SameBits(const std::vector<ScoredIndex>& a,
              const std::vector<ScoredIndex>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const ScoredIndex& x, const ScoredIndex& y) {
                      return x.index == y.index &&
                             std::bit_cast<uint32_t>(x.score) ==
                                 std::bit_cast<uint32_t>(y.score);
                    });
}

/// Runs `body` until at least 0.05s of wall clock has elapsed and returns
/// executions per second.
template <typename Body>
double MeasureQps(const Body& body) {
  int iterations = 0;
  const auto start = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  do {
    body();
    ++iterations;
    elapsed = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  } while (elapsed < 0.05);
  return static_cast<double>(iterations) / elapsed;
}

void Run() {
  const int64_t entities = EnvEntities();
  GeneratorConfig generator;
  generator.seed = 1;
  generator.scale_entities = entities;

  const auto build_store_start = std::chrono::steady_clock::now();
  const EntityStore store = BuildScaledStore(generator);
  std::fprintf(stderr, "[ann_scale] scaled store: %lld entities in %.2fs\n",
               static_cast<long long>(entities),
               std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - build_store_start)
                   .count());

  const auto build_start = std::chrono::steady_clock::now();
  const IvfIndex index = IvfIndex::Build(store);
  const double build_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    build_start)
          .count();
  std::fprintf(stderr, "[ann_scale] IVF build: nlist=%d in %.2fs\n",
               index.nlist(), build_seconds);

  // Every slot of the scaled store is present, so the exact scan's
  // candidate list is simply 0..entities-1.
  std::vector<EntityId> all_ids(static_cast<size_t>(entities));
  std::iota(all_ids.begin(), all_ids.end(), 0);

  // Seed sets: kSeedsPerQuery same-class entities per query (the stream
  // assigns classes round-robin, so class c is {c, c + classes, ...}).
  const int classes = std::max(1, generator.scale_classes);
  std::vector<std::vector<EntityId>> seed_sets;
  for (int q = 0; q < kQueries; ++q) {
    std::vector<EntityId> seeds;
    const int class_id = q % classes;
    for (int s = 0; s < kSeedsPerQuery; ++s) {
      const int64_t id = class_id + static_cast<int64_t>(s) * classes;
      if (id < entities) seeds.push_back(static_cast<EntityId>(id));
    }
    seed_sets.push_back(std::move(seeds));
  }

  const int nprobe = index.config().nprobe;
  int64_t rows_scored_exact = 0;
  int64_t rows_scored_probe = 0;
  int64_t int8_survivors = 0;
  int certified_mismatches = 0;
  double recall_sum = 0.0;
  for (const std::vector<EntityId>& seeds : seed_sets) {
    const Vec centroid = store.SeedCentroidOf(seeds);
    const std::vector<float> exact = store.CentroidScores(centroid, all_ids);
    rows_scored_exact += static_cast<int64_t>(all_ids.size());
    const std::vector<size_t> exact_top = TopIndices(exact, kTopK);

    const std::vector<EntityId> candidates =
        index.Candidates(centroid, nprobe, kTopK);
    rows_scored_probe += static_cast<int64_t>(candidates.size());
    const std::vector<float> probe_scores =
        store.CentroidScores(centroid, candidates);
    const std::vector<size_t> probe_top = TopIndices(probe_scores, kTopK);

    // The certified screen must reproduce the float top-50 byte for byte,
    // with each candidate's index in `candidates` as its position.
    std::vector<size_t> positions(candidates.size());
    std::iota(positions.begin(), positions.end(), 0);
    TopKStream certified(kTopK);
    int8_survivors += static_cast<int64_t>(
        store.PushCentroidTopK(centroid, candidates, positions, certified));
    const std::vector<ScoredIndex> certified_top =
        certified.TakeSortedDescending();
    const std::vector<ScoredIndex> float_top = TopK(probe_scores, kTopK);
    if (!SameBits(certified_top, float_top)) ++certified_mismatches;

    std::set<EntityId> retrieved;
    for (const size_t i : probe_top) retrieved.insert(candidates[i]);
    size_t hits = 0;
    for (const size_t i : exact_top) {
      if (retrieved.count(all_ids[i]) > 0) ++hits;
    }
    recall_sum += static_cast<double>(hits) /
                  static_cast<double>(exact_top.size());
  }
  const double recall = recall_sum / static_cast<double>(seed_sets.size());

  // QPS sweeps: one query end-to-end (centroid fold + scoring + top-k),
  // cycling through the seed sets.
  int cursor = 0;
  const double exact_qps = MeasureQps([&] {
    const std::vector<EntityId>& seeds =
        seed_sets[static_cast<size_t>(cursor++ % kQueries)];
    const Vec centroid = store.SeedCentroidOf(seeds);
    TopIndices(store.CentroidScores(centroid, all_ids), kTopK);
  });
  cursor = 0;
  const double probe_qps = MeasureQps([&] {
    const std::vector<EntityId>& seeds =
        seed_sets[static_cast<size_t>(cursor++ % kQueries)];
    const Vec centroid = store.SeedCentroidOf(seeds);
    const std::vector<EntityId> candidates =
        index.Candidates(centroid, nprobe, kTopK);
    TopIndices(store.CentroidScores(centroid, candidates), kTopK);
  });

  obs::GetGauge("ann.bench.entities").Set(entities);
  obs::GetGauge("ann.bench.dim").Set(static_cast<int64_t>(store.dim()));
  obs::GetGauge("ann.bench.nlist").Set(index.nlist());
  obs::GetGauge("ann.bench.rows_scored_exact").Set(rows_scored_exact);
  obs::GetGauge("ann.bench.rows_scored_probe").Set(rows_scored_probe);
  obs::GetGauge("ann.bench.int8_survivors").Set(int8_survivors);
  obs::GetGauge("ann.bench.recall50_x1000")
      .Set(static_cast<int64_t>(recall * 1000.0 + 0.5));
  obs::GetGauge("ann.bench.build_ms")
      .Set(static_cast<int64_t>(build_seconds * 1000.0));
  obs::GetGauge("ann.bench.exact_qps").Set(static_cast<int64_t>(exact_qps));
  obs::GetGauge("ann.bench.probe_qps").Set(static_cast<int64_t>(probe_qps));
  obs::GetGauge("ann.bench.probe_speedup_x100")
      .Set(static_cast<int64_t>(probe_qps / exact_qps * 100.0));

  // Deterministic table on stdout; timings stay on stderr.
  std::printf("ANN scale: %lld entities, dim %zu, nlist %d, nprobe %d\n",
              static_cast<long long>(entities), store.dim(), index.nlist(),
              nprobe);
  std::printf("rows scored per %d queries: exact %lld, probe %lld\n",
              kQueries, static_cast<long long>(rows_scored_exact),
              static_cast<long long>(rows_scored_probe));
  std::printf("recall@%zu at default nprobe: %.3f\n", kTopK, recall);
  std::printf("int8 screen: %lld of %lld candidates rescored in float, "
              "%d top-%zu mismatches\n",
              static_cast<long long>(int8_survivors),
              static_cast<long long>(rows_scored_probe),
              certified_mismatches, kTopK);
  std::fprintf(stderr,
               "[ann_scale] exact %.1f qps, probe %.1f qps (%.1fx)\n",
               exact_qps, probe_qps, probe_qps / exact_qps);

  if (EnvFlag("UW_ANN_BENCH_ASSERT")) {
    bool ok = true;
    if (recall < 0.98) {
      std::fprintf(stderr, "[ann_scale] ASSERT FAIL: recall@50 %.3f < 0.98\n",
                   recall);
      ok = false;
    }
    if (rows_scored_probe >= rows_scored_exact) {
      std::fprintf(stderr,
                   "[ann_scale] ASSERT FAIL: probe scored %lld rows, not "
                   "fewer than exact %lld\n",
                   static_cast<long long>(rows_scored_probe),
                   static_cast<long long>(rows_scored_exact));
      ok = false;
    }
    if (certified_mismatches > 0) {
      std::fprintf(stderr,
                   "[ann_scale] ASSERT FAIL: certified top-%zu differs from "
                   "the float top-%zu on %d of %d queries\n",
                   kTopK, kTopK, certified_mismatches, kQueries);
      ok = false;
    }
    if (probe_qps <= exact_qps) {
      std::fprintf(stderr,
                   "[ann_scale] ASSERT FAIL: probe %.1f qps not above "
                   "exact %.1f qps\n",
                   probe_qps, exact_qps);
      ok = false;
    }
    if (!ok) std::exit(1);
    std::fprintf(stderr, "[ann_scale] inline asserts passed\n");
  }
}

}  // namespace
}  // namespace ultrawiki

int main() {
  ultrawiki::BenchTimer timer("ann_scale");
  ultrawiki::Run();
  return 0;
}
