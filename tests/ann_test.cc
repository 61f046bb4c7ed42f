#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <vector>

#include "ann/ivf_index.h"
#include "ann/scaled_store.h"
#include "corpus/generator.h"
#include "embedding/entity_store.h"
#include "expand/pipeline.h"
#include "expand/retexpan.h"
#include "io/artifact_cache.h"
#include "io/snapshot.h"
#include "math/topk.h"

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
