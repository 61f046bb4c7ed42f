#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "ann/ivf_index.h"
#include "ann/scaled_store.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "corpus/generator.h"
#include "embedding/entity_store.h"
#include "expand/pipeline.h"
#include "expand/retexpan.h"
#include "io/artifact_cache.h"
#include "io/snapshot.h"
#include "math/simd_kernels.h"
#include "math/topk.h"
#include "obs/metrics.h"

namespace ultrawiki {
namespace {

GeneratorConfig ScaledConfig(int64_t entities) {
  GeneratorConfig config;
  config.seed = 5;
  config.scale_entities = entities;
  return config;
}

EntityStore MakeScaledStore(int64_t entities) {
  return BuildScaledStore(ScaledConfig(entities), /*dim=*/32);
}

Query SameClassQuery() {
  // The scaled stream assigns classes round-robin over scale_classes (64),
  // so these positive seeds share class 3 and the negatives class 7.
  Query query;
  query.pos_seeds = {3, 67, 131, 195};
  query.neg_seeds = {7, 71};
  return query;
}

// ------------------------------------------------------------ IvfIndex.

TEST(IvfIndexTest, BuildIsDeterministic) {
  const EntityStore store = MakeScaledStore(1500);
  const IvfIndex a = IvfIndex::Build(store);
  const IvfIndex b = IvfIndex::Build(store);
  ASSERT_EQ(a.nlist(), b.nlist());
  ASSERT_EQ(a.rows(), b.rows());
  EXPECT_TRUE(std::equal(a.centroids().begin(), a.centroids().end(),
                         b.centroids().begin(), b.centroids().end()));
  EXPECT_EQ(a.lists(), b.lists());
}

TEST(IvfIndexTest, ListsPartitionThePresentEntities) {
  const EntityStore store = MakeScaledStore(1000);
  const IvfIndex index = IvfIndex::Build(store);
  std::vector<EntityId> members;
  for (const std::vector<EntityId>& list : index.lists()) {
    EXPECT_TRUE(std::is_sorted(list.begin(), list.end()));
    members.insert(members.end(), list.begin(), list.end());
  }
  std::sort(members.begin(), members.end());
  std::vector<EntityId> expected(1000);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(members, expected);
}

TEST(IvfIndexTest, FullProbeReturnsEveryEntity) {
  const EntityStore store = MakeScaledStore(800);
  const IvfIndex index = IvfIndex::Build(store);
  const Vec centroid = store.SeedCentroidOf({3, 67});
  const std::vector<EntityId> all =
      index.Candidates(centroid, index.nlist(), /*k_cand=*/1);
  std::vector<EntityId> expected(800);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(all, expected);
}

TEST(IvfIndexTest, ProbesPastNprobeUntilKCand) {
  const EntityStore store = MakeScaledStore(800);
  const IvfIndex index = IvfIndex::Build(store);
  const Vec centroid = store.SeedCentroidOf({3, 67});
  // nprobe=1 with a huge k_cand must keep probing lists rather than
  // starve the rerank.
  const std::vector<EntityId> candidates =
      index.Candidates(centroid, /*nprobe=*/1, /*k_cand=*/500);
  EXPECT_GE(candidates.size(), 500u);
}

TEST(IvfIndexTest, DefaultProbeRetrievesSameClassNeighbors) {
  const EntityStore store = MakeScaledStore(2000);
  const IvfIndex index = IvfIndex::Build(store);
  const Vec centroid = store.SeedCentroidOf({3, 67, 131});
  const std::vector<EntityId> candidates =
      index.Candidates(centroid, index.config().nprobe, /*k_cand=*/50);
  // The class signal dominates the scaled rows, so probing a third of the
  // lists (16 of ~45) must surface plenty of class-3 members.
  int same_class = 0;
  for (const EntityId id : candidates) {
    if (id % 64 == 3) ++same_class;
  }
  EXPECT_GT(same_class, 10);
}

// --------------------------------------------- RetExpan parity contract.

TEST(AnnRetExpanTest, FullProbeIsBitIdenticalToExactScan) {
  const EntityStore store = MakeScaledStore(1200);
  // Candidates: every present entity plus one absent id, so the parity
  // covers the exact path's zero-score tail.
  std::vector<EntityId> candidates(1200);
  std::iota(candidates.begin(), candidates.end(), 0);
  candidates.push_back(5000);
  const IvfIndex index = IvfIndex::Build(store);

  RetExpan exact(&store, &candidates);
  RetExpanConfig ann_config;
  ann_config.ann_min_candidates = 0;
  ann_config.ann_nprobe = index.nlist();
  RetExpan ann(&store, &candidates, ann_config);
  ann.SetAnnIndex(&index);

  const Query query = SameClassQuery();
  for (const size_t size : {10u, 200u, 1201u}) {
    EXPECT_EQ(ann.InitialExpansion(query, size),
              exact.InitialExpansion(query, size))
        << "initial expansion size " << size;
  }
  for (const size_t k : {5u, 50u, 400u}) {
    EXPECT_EQ(ann.Expand(query, k), exact.Expand(query, k)) << "k " << k;
  }
}

TEST(AnnRetExpanTest, DefaultProbeKeepsFinalRankings) {
  const EntityStore store = MakeScaledStore(4000);
  std::vector<EntityId> candidates(4000);
  std::iota(candidates.begin(), candidates.end(), 0);
  const IvfIndex index = IvfIndex::Build(store);
  ASSERT_LT(index.config().nprobe, index.nlist())
      << "default nprobe must actually approximate at this scale";

  RetExpan exact(&store, &candidates);
  RetExpanConfig ann_config;
  ann_config.ann_min_candidates = 0;  // default nprobe stays in effect
  RetExpan ann(&store, &candidates, ann_config);
  ann.SetAnnIndex(&index);

  for (int q = 0; q < 4; ++q) {
    Query query;
    for (int s = 0; s < 4; ++s) {
      query.pos_seeds.push_back(q + 1 + s * 64);
    }
    query.neg_seeds = {q + 9, q + 9 + 64};
    EXPECT_EQ(ann.Expand(query, 50), exact.Expand(query, 50))
        << "query " << q;
  }
}

/// Merges the recalls of `slices` slices the way the cluster router
/// does: one TopKStream over every slice's (score, position) pairs.
std::vector<ScoredIndex> MergedSliceRecall(const RetExpan& retexpan,
                                           const Query& query, size_t size,
                                           int slices) {
  TopKStream stream(size);
  for (int s = 0; s < slices; ++s) {
    for (const ScoredIndex& pair :
         retexpan.Recall(query, size, ShardSpec{s, slices})) {
      stream.Push(pair);
    }
  }
  return stream.TakeSortedDescending();
}

TEST(AnnRetExpanTest, SlicedRecallMergesToTheUnslicedRecall) {
  const EntityStore store = MakeScaledStore(4000);
  std::vector<EntityId> candidates(4000);
  std::iota(candidates.begin(), candidates.end(), 0);
  candidates.push_back(9000);  // absent from the store: exact score 0
  const IvfIndex index = IvfIndex::Build(store);
  ASSERT_LT(index.config().nprobe, index.nlist());

  RetExpan exact(&store, &candidates);
  RetExpanConfig config;
  config.ann_min_candidates = 0;  // force the ANN path
  RetExpan ann(&store, &candidates, config);  // default nprobe
  ann.SetAnnIndex(&index);
  config.ann_nprobe = index.nlist();
  RetExpan full_probe(&store, &candidates, config);
  full_probe.SetAnnIndex(&index);

  for (int q = 0; q < 3; ++q) {
    Query query;
    for (int s = 0; s < 4; ++s) query.pos_seeds.push_back(q + 1 + s * 64);
    for (const int slices : {2, 3}) {
      for (const size_t size : {10u, 200u, 4001u}) {
        EXPECT_EQ(MergedSliceRecall(ann, query, size, slices),
                  ann.Recall(query, size))
            << "query " << q << " slices " << slices << " size " << size;
        EXPECT_EQ(MergedSliceRecall(full_probe, query, size, slices),
                  exact.Recall(query, size))
            << "query " << q << " slices " << slices << " size " << size;
      }
    }
  }
}

/// True when both rankings hold the same indices with bit-identical
/// scores. (ScoredIndex has padding after its float, so a memcmp of the
/// vectors would compare indeterminate bytes.)
bool SameBits(const std::vector<ScoredIndex>& a,
              const std::vector<ScoredIndex>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const ScoredIndex& x, const ScoredIndex& y) {
                      return x.index == y.index &&
                             std::bit_cast<uint32_t>(x.score) ==
                                 std::bit_cast<uint32_t>(y.score);
                    });
}

/// The float recall with no int8 screen: the ascending-id Candidates()
/// superset, filtered to the slice's non-seed candidate positions, every
/// one scored with CentroidScores, plus the exact 0 of every absent
/// candidate, top-`size` by TopKOfPairs. Candidates are `0..n-1` followed
/// by ids absent from the store, so an id below n is its own position.
std::vector<ScoredIndex> ReferenceRecall(
    const EntityStore& store, const IvfIndex& index,
    const std::vector<EntityId>& candidates, const Query& query, size_t size,
    int nprobe, const ShardSpec& slice) {
  const std::vector<EntityId> seeds = SortedSeedsOf(query);
  const auto keep = [&](size_t pos) {
    return static_cast<int>(pos) % slice.count == slice.index &&
           !std::binary_search(seeds.begin(), seeds.end(), candidates[pos]);
  };
  const Vec centroid = store.SeedCentroidOf(query.pos_seeds);
  std::vector<EntityId> ids;
  for (const EntityId id :
       index.Candidates(centroid, nprobe, size + seeds.size())) {
    if (keep(static_cast<size_t>(id))) ids.push_back(id);
  }
  const std::vector<float> scores = store.CentroidScores(centroid, ids);
  std::vector<ScoredIndex> pairs;
  for (size_t i = 0; i < ids.size(); ++i) {
    pairs.push_back({scores[i], static_cast<size_t>(ids[i])});
  }
  for (size_t pos = 0; pos < candidates.size(); ++pos) {
    if (!store.Has(candidates[pos]) && keep(pos)) pairs.push_back({0.0f, pos});
  }
  return TopKOfPairs(std::move(pairs), size);
}

/// Expand as it was computed before the rerank reused the recall's
/// scores: the reference recall, then both seed sides rescored over the
/// recalled list.
std::vector<EntityId> ReferenceExpand(const EntityStore& store,
                                      const IvfIndex& index,
                                      const std::vector<EntityId>& candidates,
                                      const RetExpanConfig& config,
                                      const Query& query, size_t k,
                                      int nprobe) {
  const size_t size =
      std::max<size_t>(k, static_cast<size_t>(config.initial_list_size));
  std::vector<EntityId> list;
  for (const ScoredIndex& s : ReferenceRecall(store, index, candidates, query,
                                              size, nprobe, ShardSpec{})) {
    list.push_back(candidates[s.index]);
  }
  if (!query.neg_seeds.empty()) {
    list = NegativeSeedRerank(list,
                              store.SeedCentroidScores(query.pos_seeds, list),
                              store.SeedCentroidScores(query.neg_seeds, list),
                              config.rerank_segment_length);
  }
  if (list.size() > k) list.resize(k);
  return list;
}

/// Seeds drawn from one scaled class (ids congruent mod 64), sometimes
/// with an id absent from a `present`-entity store mixed in.
std::vector<EntityId> ClassSeeds(Rng& rng, int present, int count) {
  const int cls = static_cast<int>(rng.UniformUint64(64));
  std::vector<EntityId> seeds;
  for (int s = 0; s < count; ++s) {
    seeds.push_back(cls + 64 * static_cast<int>(rng.UniformUint64(
                                   static_cast<uint64_t>(present / 64))));
  }
  if (count > 0 && rng.UniformUint64(8) == 0) seeds.push_back(present + 7);
  return seeds;
}

TEST(AnnRetExpanTest, ProbeOrderRecallMatchesSortedCandidateReference) {
  constexpr int kPresent = 4000;
  const EntityStore store = MakeScaledStore(kPresent);
  std::vector<EntityId> candidates(kPresent);
  std::iota(candidates.begin(), candidates.end(), 0);
  candidates.push_back(kPresent + 5000);  // absent from the store
  const IvfIndex index = IvfIndex::Build(store);
  ASSERT_LT(4, index.config().nprobe);
  ASSERT_LT(index.config().nprobe, index.nlist());

  Rng rng(43);
  std::vector<Query> queries(200);
  for (Query& query : queries) {
    query.pos_seeds = ClassSeeds(rng, kPresent,
                                 static_cast<int>(rng.UniformUint64(6)));
    query.neg_seeds = ClassSeeds(rng, kPresent,
                                 static_cast<int>(rng.UniformUint64(4)));
  }
  // The IVF recall at four nprobe values, then two exact scans: one with
  // no index, one whose 4001 candidates fall short of the default
  // ann_min_candidates. An exact scan is the probe at nprobe == nlist.
  struct Case {
    std::unique_ptr<RetExpan> expander;
    int nprobe;
  };
  std::vector<Case> cases;
  for (const int nprobe : {1, 4, index.config().nprobe, index.nlist()}) {
    RetExpanConfig config;
    config.ann_min_candidates = 0;
    config.ann_nprobe = nprobe;
    cases.push_back(
        {std::make_unique<RetExpan>(&store, &candidates, config), nprobe});
    cases.back().expander->SetAnnIndex(&index);
  }
  cases.push_back({std::make_unique<RetExpan>(&store, &candidates),
                   index.nlist()});
  RetExpan& unindexed = *cases.back().expander;
  cases.push_back({std::make_unique<RetExpan>(&store, &candidates),
                   index.nlist()});
  RetExpan& fallback = *cases.back().expander;
  fallback.SetAnnIndex(&index);
  ASSERT_LT(candidates.size(), fallback.config().ann_min_candidates);

  for (size_t c = 0; c < cases.size(); ++c) {
    RetExpan& expander = *cases[c].expander;
    const int nprobe = cases[c].nprobe;
    for (size_t q = 0; q < queries.size(); ++q) {
      const Query& query = queries[q];
      for (const ShardSpec slice : {ShardSpec{0, 1}, ShardSpec{0, 3},
                                    ShardSpec{1, 3}, ShardSpec{2, 3}}) {
        for (const size_t size : {10u, 200u}) {
          EXPECT_TRUE(SameBits(expander.Recall(query, size, slice),
                               ReferenceRecall(store, index, candidates,
                                               query, size, nprobe, slice)))
              << "case " << c << " query " << q << " nprobe " << nprobe
              << " slice " << slice.index << "/" << slice.count << " size "
              << size;
        }
      }
      EXPECT_EQ(expander.Expand(query, 50),
                ReferenceExpand(store, index, candidates, expander.config(),
                                query, 50, nprobe))
          << "case " << c << " query " << q << " nprobe " << nprobe;
    }
  }

  // The exact scan screens every non-seed candidate on its int8 row, and
  // the fallback is counted.
  obs::Counter& int8_rows = obs::GetCounter("kernel.int8_rows_scored");
  obs::Counter& fallbacks = obs::GetCounter("ann.fallback_exact");
  const Query query = SameClassQuery();  // six seeds, all candidates
  for (RetExpan* expander : {&unindexed, &fallback}) {
    const int64_t int8_before = int8_rows.Value();
    const int64_t fallbacks_before = fallbacks.Value();
    EXPECT_EQ(expander->Recall(query, 10).size(), 10u);
    EXPECT_EQ(int8_rows.Value() - int8_before,
              static_cast<int64_t>(candidates.size()) - 6);
    EXPECT_EQ(fallbacks.Value() - fallbacks_before,
              expander == &fallback ? 1 : 0);
  }
}

TEST(AnnRetExpanTest, SeedHeavyQueryProbesPastNprobe) {
  constexpr int kPresent = 4000;
  const EntityStore store = MakeScaledStore(kPresent);
  std::vector<EntityId> candidates(kPresent);
  std::iota(candidates.begin(), candidates.end(), 0);
  const IvfIndex index = IvfIndex::Build(store);
  // 300 seeds: the first stage is asked for 200 + 300 ids, far more than
  // one list holds, so nprobe = 1 must keep probing.
  Query query;
  for (int s = 0; s < 300; ++s) query.pos_seeds.push_back(3 + 64 * (s % 62));
  for (int s = 0; s < 300; s += 62) query.pos_seeds.push_back(s);
  query.neg_seeds = {7, 71, 135};
  constexpr int kNprobe = 1;
  const Vec centroid = store.SeedCentroidOf(query.pos_seeds);
  ASSERT_GT(index
                .ProbeLists(centroid, kNprobe,
                            200 + SortedSeedsOf(query).size())
                .size(),
            1u);

  RetExpanConfig config;
  config.ann_min_candidates = 0;
  config.ann_nprobe = kNprobe;
  RetExpan ann(&store, &candidates, config);
  ann.SetAnnIndex(&index);
  EXPECT_EQ(ann.Recall(query, 200),
            ReferenceRecall(store, index, candidates, query, 200, kNprobe,
                            ShardSpec{}));
  EXPECT_EQ(ann.Expand(query, 50),
            ReferenceExpand(store, index, candidates, config, query, 50,
                            kNprobe));
}

/// The probe rule written out: every list centroid scored with
/// DotBlocked, all lists sorted by RanksBefore, lists taken in that order
/// until both `nprobe` lists and `k_cand` members are reached.
std::vector<size_t> ReferenceProbe(const IvfIndex& index,
                                   std::span<const float> centroid,
                                   int nprobe, size_t k_cand) {
  const size_t dim = index.dim();
  std::vector<ScoredIndex> order;
  for (size_t l = 0; l < index.lists().size(); ++l) {
    order.push_back(ScoredIndex{
        static_cast<float>(
            DotBlocked(index.centroids().subspan(l * dim, dim), centroid)),
        l});
  }
  SortByScoreDescending(order);
  std::vector<size_t> probed;
  size_t gathered = 0;
  for (const ScoredIndex& pick : order) {
    if (probed.size() >= static_cast<size_t>(nprobe) && gathered >= k_cand) {
      break;
    }
    probed.push_back(pick.index);
    gathered += index.lists()[pick.index].size();
  }
  return probed;
}

TEST(IvfIndexTest, ProbeListsFollowsTheRuleAndCandidatesUnionsThem) {
  const EntityStore store = MakeScaledStore(2000);
  const IvfIndex index = IvfIndex::Build(store);
  Rng rng(47);
  for (int q = 0; q < 20; ++q) {
    const Vec centroid =
        store.SeedCentroidOf(ClassSeeds(rng, 2000, 1 + q % 5));
    for (const int nprobe : {1, 4, index.config().nprobe, index.nlist()}) {
      for (const size_t k_cand : {1u, 100u, 900u}) {
        const std::vector<size_t> probed =
            index.ProbeLists(centroid, nprobe, k_cand);
        EXPECT_EQ(probed, ReferenceProbe(index, centroid, nprobe, k_cand))
            << "query " << q << " nprobe " << nprobe << " k_cand " << k_cand;
        std::vector<EntityId> members;
        for (const size_t list : probed) {
          members.insert(members.end(), index.lists()[list].begin(),
                         index.lists()[list].end());
        }
        std::sort(members.begin(), members.end());
        EXPECT_EQ(index.Candidates(centroid, nprobe, k_cand), members)
            << "query " << q << " nprobe " << nprobe << " k_cand " << k_cand;
      }
    }
  }
}

TEST(AnnRetExpanTest, OneExpandCountsOneProbe) {
  const EntityStore store = MakeScaledStore(4000);
  std::vector<EntityId> candidates(4000);
  std::iota(candidates.begin(), candidates.end(), 0);
  const IvfIndex index = IvfIndex::Build(store);
  RetExpanConfig config;
  config.ann_min_candidates = 0;
  RetExpan ann(&store, &candidates, config);
  ann.SetAnnIndex(&index);
  const Query query = SameClassQuery();
  const std::vector<size_t> probed = index.ProbeLists(
      store.SeedCentroidOf(query.pos_seeds), index.config().nprobe,
      static_cast<size_t>(config.initial_list_size) +
          SortedSeedsOf(query).size());

  obs::Counter& queries = obs::GetCounter("ann.queries");
  obs::Counter& lists = obs::GetCounter("ann.lists_probed");
  obs::Counter& returned = obs::GetCounter("ann.candidates_returned");
  const int64_t queries_before = queries.Value();
  const int64_t lists_before = lists.Value();
  const int64_t returned_before = returned.Value();
  ann.Expand(query, 50);
  EXPECT_EQ(queries.Value() - queries_before, 1);
  EXPECT_EQ(lists.Value() - lists_before,
            static_cast<int64_t>(probed.size()));
  size_t members = 0;
  for (const size_t list : probed) members += index.lists()[list].size();
  EXPECT_EQ(returned.Value() - returned_before,
            static_cast<int64_t>(members));

  // Candidates() is ProbeLists() plus a gather: it counts once too.
  const int64_t queries_mid = queries.Value();
  const int64_t lists_mid = lists.Value();
  index.Candidates(store.SeedCentroidOf(query.pos_seeds), 4, 1);
  EXPECT_EQ(queries.Value() - queries_mid, 1);
  EXPECT_EQ(lists.Value() - lists_mid, 4);
}

TEST(AnnRetExpanTest, SmallVocabularyFallsBackToExactScan) {
  const EntityStore store = MakeScaledStore(300);
  std::vector<EntityId> candidates(300);
  std::iota(candidates.begin(), candidates.end(), 0);
  const IvfIndex index = IvfIndex::Build(store);

  RetExpan exact(&store, &candidates);
  RetExpan ann(&store, &candidates);  // default ann_min_candidates = 4096
  ann.SetAnnIndex(&index);
  const Query query = SameClassQuery();
  EXPECT_EQ(ann.Expand(query, 40), exact.Expand(query, 40));
}

// ------------------------------------------------ Certified int8 screen.

/// PushCentroidTopK's top-`size`; `survivors` gets the number of
/// candidates it scored in float.
std::vector<ScoredIndex> CertifiedTop(const EntityStore& store,
                                      std::span<const float> centroid,
                                      const std::vector<EntityId>& ids,
                                      const std::vector<size_t>& positions,
                                      size_t size,
                                      size_t* survivors = nullptr) {
  TopKStream top(size);
  const size_t kept = store.PushCentroidTopK(centroid, ids, positions, top);
  if (survivors != nullptr) *survivors = kept;
  return top.TakeSortedDescending();
}

/// Every candidate scored in float, top-`size` by TopKOfPairs.
std::vector<ScoredIndex> FloatTop(const EntityStore& store,
                                  std::span<const float> centroid,
                                  const std::vector<EntityId>& ids,
                                  const std::vector<size_t>& positions,
                                  size_t size) {
  const std::vector<float> scores = store.CentroidScores(centroid, ids);
  std::vector<ScoredIndex> pairs;
  for (size_t i = 0; i < ids.size(); ++i) {
    pairs.push_back({scores[i], positions[i]});
  }
  return TopKOfPairs(std::move(pairs), size);
}

Vec RandomRow(Rng& rng, size_t dim) {
  Vec row(dim);
  for (float& v : row) v = rng.UniformFloat(-1.0f, 1.0f);
  return row;
}

/// Ids 0..n-1 in shuffled order, at shuffled positions.
void ShuffledCandidates(Rng& rng, size_t n, std::vector<EntityId>* ids,
                        std::vector<size_t>* positions) {
  ids->resize(n);
  std::iota(ids->begin(), ids->end(), 0);
  rng.Shuffle(*ids);
  positions->resize(n);
  std::iota(positions->begin(), positions->end(), 0);
  rng.Shuffle(*positions);
}

TEST(CertifiedTopKTest, DuplicateRowsAreTiedByPosition) {
  // 40 distinct rows stored 6 times each: every score is a 6-way exact
  // tie, so every cut of the top list splits tied candidates by position.
  constexpr size_t kDim = 64;
  Rng rng(11);
  std::vector<Vec> distinct;
  for (int r = 0; r < 40; ++r) distinct.push_back(RandomRow(rng, kDim));
  std::vector<Vec> slots;
  for (int copy = 0; copy < 6; ++copy) {
    slots.insert(slots.end(), distinct.begin(), distinct.end());
  }
  const EntityStore store = EntityStore::Restore(kDim, slots);
  std::vector<EntityId> ids;
  std::vector<size_t> positions;
  ShuffledCandidates(rng, slots.size(), &ids, &positions);
  const std::vector<Vec> centroids = {Vec(store.UnitOf(3).begin(),
                                          store.UnitOf(3).end()),
                                      store.SeedCentroidOf({1, 2, 43}),
                                      RandomRow(rng, kDim)};
  size_t dropped = 0;
  for (const Vec& centroid : centroids) {
    for (const size_t size : {1u, 5u, 6u, 7u, 18u, 100u, 239u}) {
      size_t survivors = 0;
      EXPECT_TRUE(SameBits(
          CertifiedTop(store, centroid, ids, positions, size, &survivors),
          FloatTop(store, centroid, ids, positions, size)))
          << "size " << size;
      dropped += ids.size() - survivors;
    }
  }
  EXPECT_GT(dropped, 0u) << "the screen must drop candidates here";
}

TEST(CertifiedTopKTest, RowsOneQuantizationStepApartStraddleTheCut) {
  // A base row and its copies moved in one coordinate by multiples of
  // half an int8 step, so neighbours quantize alike or one step apart
  // while their float scores differ; far rows score well below them. The
  // cut lands inside the near rows for every size below.
  constexpr size_t kDim = 64;
  Rng rng(13);
  Vec base = RandomRow(rng, kDim);
  base[0] = 1.0f;  // the largest element, so the moved one never is
  const float step = (1.0f / static_cast<float>(NormBlocked(base))) / 127.0f;
  std::vector<Vec> slots;
  for (int t = -40; t <= 40; ++t) {
    Vec row = base;
    row[5] += 0.5f * static_cast<float>(t) * step;
    slots.push_back(row);
    if (t % 7 == 0) slots.push_back(row);  // exact ties among them
  }
  const size_t near = slots.size();
  for (int r = 0; r < 600; ++r) slots.push_back(RandomRow(rng, kDim));
  const EntityStore store = EntityStore::Restore(kDim, slots);
  std::vector<EntityId> ids;
  std::vector<size_t> positions;
  ShuffledCandidates(rng, slots.size(), &ids, &positions);
  Vec centroid(store.UnitOf(0).begin(), store.UnitOf(0).end());
  centroid[5] += 0.25f;  // make the moved coordinate count
  for (const size_t size : {size_t{1}, size_t{20}, near / 2, near - 1, near}) {
    size_t survivors = 0;
    EXPECT_TRUE(SameBits(
        CertifiedTop(store, centroid, ids, positions, size, &survivors),
        FloatTop(store, centroid, ids, positions, size)))
        << "size " << size;
    EXPECT_LT(survivors, ids.size()) << "size " << size;
  }
}

TEST(CertifiedTopKTest, RowsThatMeetTheBoundKeepTheirPlace) {
  // Each row's first element is its largest, 127 times the quantization
  // step, and the centroid ignores it, so every other element rounds by
  // the same 0.499 of a step in the centroid's direction: down in "under"
  // rows, up in "over" rows. Their int8 estimates then sit almost a full
  // radius below or above their float scores. Over rows start one step
  // higher per element, so the two families' float scores interleave, and
  // at some cut an under row ranks in while over rows whose estimates
  // beat it rank out: a radius a few percent short of the bound drops a
  // true member at some size.
  constexpr size_t kDim = 64;
  Rng rng(23);
  std::vector<Vec> slots;
  for (int r = 0; r < 240; ++r) {
    const bool under = r % 2 == 0;
    Vec row(kDim, 127.0f);
    for (size_t i = 1; i < kDim; ++i) {
      row[i] = under ? static_cast<float>(rng.UniformInt(5, 15)) + 0.499f
                     : static_cast<float>(rng.UniformInt(6, 16)) - 0.499f;
    }
    slots.push_back(row);
  }
  const EntityStore store = EntityStore::Restore(kDim, slots);
  Vec centroid(kDim, 1.0f);
  centroid[0] = 0.0f;
  std::vector<EntityId> ids;
  std::vector<size_t> positions;
  ShuffledCandidates(rng, slots.size(), &ids, &positions);
  for (size_t size = 1; size < ids.size(); ++size) {
    ASSERT_TRUE(SameBits(CertifiedTop(store, centroid, ids, positions, size),
                         FloatTop(store, centroid, ids, positions, size)))
        << "size " << size;
  }
}

TEST(CertifiedTopKTest, ZeroRowsAndAbsentIdsKeepTheirExactZero) {
  // Every third slot is empty (absent), every fifth a zero row, and ids
  // past the slots are absent too: all of them score exactly 0, amid
  // rows of both signs, so the cut can fall inside the zero tie.
  constexpr size_t kDim = 16;
  Rng rng(17);
  std::vector<Vec> slots(300);
  for (size_t i = 0; i < slots.size(); ++i) {
    if (i % 3 == 0) continue;
    slots[i] = i % 5 == 0 ? Vec(kDim, 0.0f) : RandomRow(rng, kDim);
  }
  const EntityStore store = EntityStore::Restore(kDim, slots);
  std::vector<EntityId> ids;
  std::vector<size_t> positions;
  ShuffledCandidates(rng, slots.size() + 10, &ids, &positions);
  const Vec centroid = RandomRow(rng, kDim);
  const std::vector<float> scores = store.CentroidScores(centroid, ids);
  const size_t positive = static_cast<size_t>(std::count_if(
      scores.begin(), scores.end(), [](float v) { return v > 0.0f; }));
  for (const size_t size : {positive - 1, positive, positive + 1,
                            positive + 30, ids.size() - 1}) {
    EXPECT_TRUE(SameBits(CertifiedTop(store, centroid, ids, positions, size),
                         FloatTop(store, centroid, ids, positions, size)))
        << "size " << size;
  }
}

TEST(CertifiedTopKTest, ScoresEverythingInFloatWhenItCannotScreen) {
  constexpr size_t kDim = 24;
  Rng rng(19);
  std::vector<Vec> slots;
  for (int r = 0; r < 50; ++r) slots.push_back(RandomRow(rng, kDim));
  slots[7][3] = std::numeric_limits<float>::infinity();  // a NaN unit row
  const EntityStore store = EntityStore::Restore(kDim, slots);
  EXPECT_TRUE(std::isnan(store.Int8ScaleOf(7)));
  std::vector<EntityId> ids;
  std::vector<size_t> positions;
  ShuffledCandidates(rng, slots.size(), &ids, &positions);
  obs::Counter& int8_rows = obs::GetCounter("kernel.int8_rows_scored");

  // The NaN row's bounds are NaN: the screen still drops other rows, and
  // the NaN row cannot displace a real score (it ranks last).
  const Vec centroid = RandomRow(rng, kDim);
  size_t survivors = 0;
  for (const size_t size : {5u, 49u}) {
    EXPECT_TRUE(SameBits(
        CertifiedTop(store, centroid, ids, positions, size, &survivors),
        FloatTop(store, centroid, ids, positions, size)))
        << "size " << size;
  }
  CertifiedTop(store, centroid, ids, positions, 5, &survivors);
  EXPECT_LT(survivors, ids.size());

  // No more candidates than the list holds, or a non-finite centroid:
  // no screen, every candidate in float.
  Vec bad = centroid;
  bad[2] = std::numeric_limits<float>::quiet_NaN();
  const int64_t before = int8_rows.Value();
  for (const auto& [query, size] :
       std::vector<std::pair<Vec, size_t>>{{centroid, 50},
                                           {centroid, 80},
                                           {bad, 5}}) {
    EXPECT_TRUE(SameBits(
        CertifiedTop(store, query, ids, positions, size, &survivors),
        FloatTop(store, query, ids, positions, size)))
        << "size " << size;
    EXPECT_EQ(survivors, ids.size());
  }
  EXPECT_EQ(int8_rows.Value(), before);
}

TEST(CertifiedTopKTest, ScreenMovesTheInt8AndFloatRowCounters) {
  const EntityStore store = MakeScaledStore(4000);
  std::vector<EntityId> ids(4000);
  std::iota(ids.begin(), ids.end(), 0);
  std::vector<size_t> positions(ids.begin(), ids.end());
  const Vec centroid = store.SeedCentroidOf(SameClassQuery().pos_seeds);
  obs::Counter& int8_rows = obs::GetCounter("kernel.int8_rows_scored");
  obs::Counter& float_rows = obs::GetCounter("kernel.rows_scored");
  const int64_t int8_before = int8_rows.Value();
  const int64_t float_before = float_rows.Value();
  size_t survivors = 0;
  EXPECT_TRUE(SameBits(
      CertifiedTop(store, centroid, ids, positions, 50, &survivors),
      FloatTop(store, centroid, ids, positions, 50)));
  EXPECT_EQ(int8_rows.Value() - int8_before, 4000);
  // FloatTop scored all 4000 in float; the screen only its survivors.
  EXPECT_EQ(float_rows.Value() - float_before,
            static_cast<int64_t>(survivors) + 4000);
  EXPECT_GE(survivors, 50u);
  EXPECT_LT(survivors, 400u);
}

TEST(CertifiedTopKTest, Int8RowsBoundTheUnitRowsAtAnyThreadCount) {
  // 5000 rows span several quantization blocks.
  ASSERT_TRUE(ThreadPool::SetGlobalThreadCount(1).ok());
  const EntityStore serial = MakeScaledStore(5000);
  ASSERT_TRUE(ThreadPool::SetGlobalThreadCount(8).ok());
  const EntityStore parallel = MakeScaledStore(5000);
  ASSERT_TRUE(ThreadPool::SetGlobalThreadCount(0).ok());
  for (EntityId id = 0; id < 5001; ++id) {
    const std::span<const int8_t> bytes = serial.Int8RowOf(id);
    const std::span<const int8_t> other = parallel.Int8RowOf(id);
    ASSERT_TRUE(std::equal(bytes.begin(), bytes.end(), other.begin(),
                           other.end()))
        << "id " << id;
    const float scale = serial.Int8ScaleOf(id);
    ASSERT_EQ(std::bit_cast<uint32_t>(scale),
              std::bit_cast<uint32_t>(parallel.Int8ScaleOf(id)));
    // The error QuantizeRow promises and the certificate relies on.
    const std::span<const float> unit = serial.UnitOf(id);
    for (size_t i = 0; i < unit.size(); ++i) {
      ASSERT_LE(std::abs(bytes[i]), 127);
      EXPECT_LE(std::fabs(static_cast<double>(unit[i]) -
                          static_cast<double>(scale) * bytes[i]),
                static_cast<double>(scale) * (0.5 + 0x1p-16))
          << "id " << id << " element " << i;
    }
  }
}

// ----------------------------------------------------------- Snapshots.

TEST(AnnSnapshotTest, RoundTripRestoresIdenticalIndex) {
  const EntityStore store = MakeScaledStore(900);
  const IvfIndex built = IvfIndex::Build(store);
  const std::string path =
      (std::filesystem::temp_directory_path() / "ann_roundtrip.uws")
          .string();
  ASSERT_TRUE(SaveAnnIndexSnapshot(built, path).ok());
  auto loaded = LoadAnnIndexSnapshot(path, built.config());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->nlist(), built.nlist());
  EXPECT_EQ(loaded->rows(), built.rows());
  EXPECT_TRUE(std::equal(loaded->centroids().begin(),
                         loaded->centroids().end(),
                         built.centroids().begin(),
                         built.centroids().end()));
  EXPECT_EQ(loaded->lists(), built.lists());
  const Vec centroid = store.SeedCentroidOf({3, 67, 131});
  EXPECT_EQ(loaded->Candidates(centroid, 4, 32),
            built.Candidates(centroid, 4, 32));
  std::filesystem::remove(path);
}

TEST(AnnSnapshotTest, ConfigMismatchFailsClosed) {
  const EntityStore store = MakeScaledStore(500);
  const IvfIndex built = IvfIndex::Build(store);
  const std::string path =
      (std::filesystem::temp_directory_path() / "ann_mismatch.uws")
          .string();
  ASSERT_TRUE(SaveAnnIndexSnapshot(built, path).ok());
  IvfConfig other = built.config();
  other.seed ^= 1;
  EXPECT_FALSE(LoadAnnIndexSnapshot(path, other).ok());
  std::filesystem::remove(path);
}

TEST(AnnSnapshotTest, CorruptionFailsClosed) {
  const EntityStore store = MakeScaledStore(500);
  const IvfIndex built = IvfIndex::Build(store);
  const std::string path =
      (std::filesystem::temp_directory_path() / "ann_corrupt.uws").string();
  ASSERT_TRUE(SaveAnnIndexSnapshot(built, path).ok());
  // Flip one payload byte: the CRC must reject the file.
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.good());
  file.seekp(40);
  char byte;
  file.seekg(40);
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5A);
  file.seekp(40);
  file.write(&byte, 1);
  file.close();
  EXPECT_FALSE(LoadAnnIndexSnapshot(path, built.config()).ok());
  std::filesystem::remove(path);
}

TEST(AnnSnapshotTest, ArtifactCacheRoundTrip) {
  const std::string root =
      (std::filesystem::temp_directory_path() / "ann_cache_test").string();
  std::filesystem::create_directories(root);
  ArtifactCache::OverrideGlobalForTest(root);
  ArtifactCache& cache = ArtifactCache::Global();

  const EntityStore store = MakeScaledStore(700);
  const IvfConfig config;
  const uint64_t key = CombineFingerprints(
      {FingerprintConfig(ScaledConfig(700)), FingerprintConfig(config)});
  auto load = [&config](const std::string& path) {
    return LoadAnnIndexSnapshot(path, config);
  };
  EXPECT_FALSE(TryLoadCached(cache, "ann", key, load).has_value());

  const IvfIndex built = IvfIndex::Build(store, config);
  StoreCached(cache, "ann", key, [&built](const std::string& path) {
    return SaveAnnIndexSnapshot(built, path);
  });
  auto cached = TryLoadCached(cache, "ann", key, load);
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(cached->lists(), built.lists());

  // A different ANN config is a different key — it must miss, never
  // serve the stale index.
  IvfConfig other = config;
  other.nprobe += 1;
  const uint64_t other_key = CombineFingerprints(
      {FingerprintConfig(ScaledConfig(700)), FingerprintConfig(other)});
  EXPECT_NE(other_key, key);

  ArtifactCache::OverrideGlobalForTest("");
  std::filesystem::remove_all(root);
}

// ------------------------------------- Streamed generation + fingerprint.

TEST(ScaledGenerationTest, StreamIsDeterministicAndOrdered) {
  const GeneratorConfig config = ScaledConfig(200);
  std::vector<ScaledEntity> first;
  GenerateScaledEntities(config,
                         [&](const ScaledEntity& e) { first.push_back(e); });
  ASSERT_EQ(first.size(), 200u);
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].id, static_cast<EntityId>(i));
    EXPECT_EQ(first[i].class_id,
              static_cast<int>(i) % config.scale_classes);
    ASSERT_EQ(first[i].sentences.size(),
              static_cast<size_t>(config.scale_sentences_per_entity));
  }
  size_t cursor = 0;
  GenerateScaledEntities(config, [&](const ScaledEntity& e) {
    ASSERT_LT(cursor, first.size());
    EXPECT_EQ(e.sentences, first[cursor].sentences);
    EXPECT_EQ(e.attribute_value, first[cursor].attribute_value);
    ++cursor;
  });
  EXPECT_EQ(cursor, first.size());

  GeneratorConfig reseeded = config;
  reseeded.seed ^= 0xBEEF;
  bool any_diff = false;
  cursor = 0;
  GenerateScaledEntities(reseeded, [&](const ScaledEntity& e) {
    any_diff = any_diff || e.sentences != first[cursor++].sentences;
  });
  EXPECT_TRUE(any_diff);
}

TEST(ScaledGenerationTest, ScaledStoreIsDeterministic) {
  const EntityStore a = MakeScaledStore(400);
  const EntityStore b = MakeScaledStore(400);
  ASSERT_EQ(a.dim(), b.dim());
  for (EntityId id = 0; id < 400; ++id) {
    const std::span<const float> ua = a.UnitOf(id);
    const std::span<const float> ub = b.UnitOf(id);
    ASSERT_TRUE(std::equal(ua.begin(), ua.end(), ub.begin(), ub.end()))
        << "entity " << id;
  }
}

TEST(ScaledGenerationTest, FingerprintCoversScalingKnobs) {
  // Regression: the streaming knobs must reach FingerprintConfig, or a
  // scaled-store cache entry built at one scale would be served for
  // another (same seed, different corpus).
  const GeneratorConfig base = ScaledConfig(1000);
  const uint64_t base_print = FingerprintConfig(base);

  GeneratorConfig entities = base;
  entities.scale_entities = 2000;
  EXPECT_NE(FingerprintConfig(entities), base_print);

  GeneratorConfig classes = base;
  classes.scale_classes += 1;
  EXPECT_NE(FingerprintConfig(classes), base_print);

  GeneratorConfig sentences = base;
  sentences.scale_sentences_per_entity += 1;
  EXPECT_NE(FingerprintConfig(sentences), base_print);

  GeneratorConfig tokens = base;
  tokens.scale_sentence_tokens += 1;
  EXPECT_NE(FingerprintConfig(tokens), base_print);
}

// ------------------------------------------------- Pipeline env wiring.

class AnnPipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pipeline_ = new Pipeline(Pipeline::Build(PipelineConfig::Tiny()));
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    pipeline_ = nullptr;
  }
  void TearDown() override {
    ::unsetenv("UW_ANN_ENABLE");
    ::unsetenv("UW_ANN_NPROBE");
  }
  static Pipeline* pipeline_;
};

Pipeline* AnnPipelineTest::pipeline_ = nullptr;

TEST_F(AnnPipelineTest, AnnIndexCoversTheMainStoreCandidates) {
  const IvfIndex& index = pipeline_->ann_index();
  size_t present = 0;
  for (const EntityId id : pipeline_->candidates()) {
    if (pipeline_->store().Has(id)) ++present;
  }
  EXPECT_EQ(index.rows(), present);
  EXPECT_GT(index.nlist(), 0);
}

TEST_F(AnnPipelineTest, EnvEnabledExpanderMatchesExactAtFullProbe) {
  auto exact = pipeline_->MakeRetExpan();
  ASSERT_EQ(::setenv("UW_ANN_ENABLE", "1", 1), 0);
  // A probe far beyond nlist degenerates to the full scan, so even the
  // tiny vocabulary must rank bit-identically.
  ASSERT_EQ(::setenv("UW_ANN_NPROBE", "1000000", 1), 0);
  RetExpanConfig config;
  config.ann_min_candidates = 0;  // force the ANN path at tiny scale
  auto ann = pipeline_->MakeRetExpan(config);
  for (size_t q = 0; q < 3 && q < pipeline_->dataset().queries.size();
       ++q) {
    const Query& query = pipeline_->dataset().queries[q];
    EXPECT_EQ(ann->Expand(query, 40), exact->Expand(query, 40))
        << "query " << q;
  }
}

TEST_F(AnnPipelineTest, EnvDisabledExpanderNeverAttachesTheIndex) {
  // Without UW_ANN_ENABLE the expander must not engage ANN even when the
  // threshold would allow it: rankings equal the exact scan and the
  // fallback counter stays untouched (no index attached at all).
  RetExpanConfig config;
  config.ann_min_candidates = 0;
  auto plain = pipeline_->MakeRetExpan(config);
  auto exact = pipeline_->MakeRetExpan();
  const Query& query = pipeline_->dataset().queries.front();
  EXPECT_EQ(plain->Expand(query, 40), exact->Expand(query, 40));
}

}  // namespace
}  // namespace ultrawiki
