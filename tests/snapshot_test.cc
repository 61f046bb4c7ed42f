#include "io/snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "embedding/trainer.h"
#include "expand/pipeline.h"
#include "index/bm25.h"
#include "io/artifact_cache.h"
#include "io/model_io.h"
#include "obs/metrics.h"

namespace ultrawiki {
namespace {

GeneratorConfig TinyConfig() {
  GeneratorConfig config;
  config.seed = 91;
  config.scale = 0.05;
  config.min_entities_per_class = 20;
  config.background_entity_count = 30;
  config.sentences_per_entity = 6;
  config.list_sentences_per_value = 2;
  config.similarity_sentences_per_entity = 1.0;
  return config;
}

std::string ReadFileBytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::filesystem::path& path,
                    const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class SnapshotTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = new GeneratedWorld(GenerateWorld(TinyConfig()));
    dir_ = std::filesystem::temp_directory_path() / "ultrawiki_snapshot_test";
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  static void TearDownTestSuite() {
    std::filesystem::remove_all(dir_);
    delete world_;
    world_ = nullptr;
  }

  static GeneratedWorld* world_;
  static std::filesystem::path dir_;
};

GeneratedWorld* SnapshotTest::world_ = nullptr;
std::filesystem::path SnapshotTest::dir_;

TEST_F(SnapshotTest, WorldRoundTrip) {
  const auto path = dir_ / "world.uws";
  ASSERT_TRUE(SaveWorldSnapshot(*world_, path.string()).ok());
  auto loaded = LoadWorldSnapshot(path.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const GeneratedWorld& world = *loaded;

  EXPECT_EQ(world.fingerprint, world_->fingerprint);
  EXPECT_NE(world.fingerprint, 0u);
  ASSERT_EQ(world.schema.size(), world_->schema.size());
  for (size_t c = 0; c < world.schema.size(); ++c) {
    EXPECT_EQ(world.schema[c].name, world_->schema[c].name);
    EXPECT_EQ(world.schema[c].singular_noun,
              world_->schema[c].singular_noun);
    EXPECT_EQ(world.schema[c].topic_tokens, world_->schema[c].topic_tokens);
    ASSERT_EQ(world.schema[c].attributes.size(),
              world_->schema[c].attributes.size());
    for (size_t a = 0; a < world.schema[c].attributes.size(); ++a) {
      EXPECT_EQ(world.schema[c].attributes[a].name,
                world_->schema[c].attributes[a].name);
      EXPECT_EQ(world.schema[c].attributes[a].values,
                world_->schema[c].attributes[a].values);
      EXPECT_EQ(world.schema[c].attributes[a].clue_tokens,
                world_->schema[c].attributes[a].clue_tokens);
      EXPECT_EQ(world.schema[c].attributes[a].clue_variants,
                world_->schema[c].attributes[a].clue_variants);
    }
  }
  EXPECT_EQ(world.background_entities, world_->background_entities);
  ASSERT_EQ(world.kb.size(), world_->kb.size());
  for (EntityId id = 0; id < static_cast<EntityId>(world.kb.size()); ++id) {
    EXPECT_EQ(world.kb.IntroductionOf(id), world_->kb.IntroductionOf(id));
    EXPECT_EQ(world.kb.WikidataAttributesOf(id),
              world_->kb.WikidataAttributesOf(id));
  }
  EXPECT_EQ(world.entities_by_value, world_->entities_by_value);

  // The corpus travels inside the world snapshot.
  const Corpus& corpus = world.corpus;
  ASSERT_EQ(corpus.tokens().size(), world_->corpus.tokens().size());
  for (TokenId t = 0; t < static_cast<TokenId>(corpus.tokens().size());
       ++t) {
    EXPECT_EQ(corpus.tokens().TokenOf(t), world_->corpus.tokens().TokenOf(t));
    EXPECT_EQ(corpus.tokens().CountOf(t), world_->corpus.tokens().CountOf(t));
  }
  ASSERT_EQ(corpus.entity_count(), world_->corpus.entity_count());
  for (EntityId id = 0;
       id < static_cast<EntityId>(corpus.entity_count()); ++id) {
    EXPECT_EQ(corpus.entity(id).name, world_->corpus.entity(id).name);
    EXPECT_EQ(corpus.entity(id).name_tokens,
              world_->corpus.entity(id).name_tokens);
    EXPECT_EQ(corpus.entity(id).class_id,
              world_->corpus.entity(id).class_id);
    EXPECT_EQ(corpus.entity(id).is_long_tail,
              world_->corpus.entity(id).is_long_tail);
    EXPECT_EQ(corpus.entity(id).attribute_values,
              world_->corpus.entity(id).attribute_values);
  }
  ASSERT_EQ(corpus.sentence_count(), world_->corpus.sentence_count());
  for (size_t s = 0; s < corpus.sentence_count(); ++s) {
    EXPECT_EQ(corpus.sentence(s).entity, world_->corpus.sentence(s).entity);
    EXPECT_EQ(corpus.sentence(s).tokens, world_->corpus.sentence(s).tokens);
    EXPECT_EQ(corpus.sentence(s).mention_begin,
              world_->corpus.sentence(s).mention_begin);
    EXPECT_EQ(corpus.sentence(s).mention_len,
              world_->corpus.sentence(s).mention_len);
  }
  EXPECT_EQ(corpus.auxiliary_sentences(),
            world_->corpus.auxiliary_sentences());
  // The per-entity sentence index is rebuilt.
  EXPECT_EQ(corpus.SentencesOf(0), world_->corpus.SentencesOf(0));
}

TEST_F(SnapshotTest, WorldSnapshotBytesAreDeterministic) {
  const auto a = dir_ / "world_a.uws";
  const auto b = dir_ / "world_b.uws";
  ASSERT_TRUE(SaveWorldSnapshot(*world_, a.string()).ok());
  ASSERT_TRUE(SaveWorldSnapshot(*world_, b.string()).ok());
  EXPECT_EQ(ReadFileBytes(a), ReadFileBytes(b));
}

/// A small corpus whose term-5 list spans multiple compressed blocks.
InvertedIndex BuildIndexForSnapshotTests() {
  InvertedIndex index;
  index.AddDocument({1, 2, 2, 3});
  index.AddDocument({2, 3, 3, 3, 7});
  index.AddDocument({});
  index.AddDocument({7, 1});
  for (int d = 0; d < 300; ++d) {
    index.AddDocument({5, 5, 3});
  }
  return index;
}

TEST_F(SnapshotTest, IndexRoundTrip) {
  InvertedIndex index = BuildIndexForSnapshotTests();
  index.Freeze();

  const auto path = dir_ / "index.uws";
  ASSERT_TRUE(SaveIndexSnapshot(index, path.string()).ok());
  auto loaded = LoadIndexSnapshot(path.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_TRUE(loaded->is_frozen());

  ASSERT_EQ(loaded->document_count(), index.document_count());
  for (DocId d = 0; d < static_cast<DocId>(index.document_count()); ++d) {
    EXPECT_EQ(loaded->DocumentLength(d), index.DocumentLength(d));
  }
  EXPECT_DOUBLE_EQ(loaded->AverageDocumentLength(),
                   index.AverageDocumentLength());
  EXPECT_EQ(loaded->compressed_payload(), index.compressed_payload());
  for (const TokenId term : {1, 2, 3, 5, 7, 99}) {
    EXPECT_EQ(loaded->DocumentFrequency(term), index.DocumentFrequency(term));
    EXPECT_EQ(loaded->DecodedPostings(term), index.DecodedPostings(term));
  }

  // The restored index must search bit-identically to the saved one.
  Bm25Scorer saved_scorer(&index);
  Bm25Scorer loaded_scorer(&*loaded);
  for (const std::vector<TokenId>& query :
       {std::vector<TokenId>{2, 3}, std::vector<TokenId>{5},
        std::vector<TokenId>{1, 5, 7}}) {
    ASSERT_EQ(loaded_scorer.Search(query, 10), saved_scorer.Search(query, 10));
    ASSERT_EQ(loaded_scorer.ScoreAll(query), saved_scorer.ScoreAll(query));
  }

  // Unfrozen indexes cannot be saved: the snapshot is the frozen form.
  InvertedIndex unfrozen;
  unfrozen.AddDocument({1});
  const auto status =
      SaveIndexSnapshot(unfrozen, (dir_ / "unfrozen.uws").string());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(SnapshotTest, IndexRejectsUnknownPayloadVersion) {
  // A tagged payload with a version this build does not understand must
  // fail closed.
  SnapshotWriter future;
  future.PutU64(kIndexPayloadTagBase | (kIndexPayloadVersion + 1));
  future.PutU64(0);  // arbitrary trailing bytes; the tag alone must reject
  // So must an untagged payload: the retired raw-postings format (doc
  // lengths, then every posting as an explicit (doc, tf) pair), which
  // opens with the doc-length count instead of the tag.
  const InvertedIndex reference = BuildIndexForSnapshotTests();
  SnapshotWriter raw;
  raw.PutU64(reference.document_count());
  for (DocId d = 0; d < static_cast<DocId>(reference.document_count()); ++d) {
    raw.PutI32(reference.DocumentLength(d));
  }
  raw.PutU64(1);
  raw.PutI32(1);
  raw.PutU64(reference.PostingsOf(1).size());
  for (const Posting& posting : reference.PostingsOf(1)) {
    raw.PutI32(posting.doc);
    raw.PutI32(posting.term_frequency);
  }

  for (const auto& [writer, message] :
       {std::pair<const SnapshotWriter*, const char*>{
            &future, "unsupported index payload version"},
        {&raw, "no version tag"}}) {
    const auto path = dir_ / "rejected_index.uws";
    ASSERT_TRUE(WriteSnapshotFile(path.string(), SnapshotKind::kInvertedIndex,
                                  *writer)
                    .ok());
    auto loaded = LoadIndexSnapshot(path.string());
    ASSERT_FALSE(loaded.ok()) << message;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInternal);
    EXPECT_NE(loaded.status().message().find(message), std::string::npos)
        << loaded.status();
  }
}

TEST_F(SnapshotTest, EntityStoreRoundTrip) {
  ContextEncoder encoder(world_->corpus.tokens().size(),
                         world_->corpus.entity_count(), EncoderConfig{});
  encoder.SetTokenWeights(ComputeSifTokenWeights(world_->corpus.tokens()));
  const std::vector<EntityId> entities = {0, 1, 2, 5, 8};
  const EntityStore store =
      EntityStore::Build(world_->corpus, encoder, entities, {});

  const auto path = dir_ / "store.uws";
  ASSERT_TRUE(SaveEntityStoreSnapshot(store, path.string()).ok());
  auto loaded = LoadEntityStoreSnapshot(path.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  EXPECT_EQ(loaded->dim(), store.dim());
  ASSERT_EQ(loaded->slot_count(), store.slot_count());
  for (EntityId id = 0; id < static_cast<EntityId>(store.slot_count());
       ++id) {
    EXPECT_EQ(loaded->Has(id), store.Has(id));
    // Bit-exact float round trip of rows and the rebuilt norm cache.
    const auto want = store.HiddenOf(id);
    const auto got = loaded->HiddenOf(id);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin()));
    EXPECT_EQ(loaded->NormOf(id), store.NormOf(id));
    // The int8 copy is rebuilt on load, not stored: same bytes and scale.
    const auto want_int8 = store.Int8RowOf(id);
    const auto got_int8 = loaded->Int8RowOf(id);
    EXPECT_TRUE(std::equal(got_int8.begin(), got_int8.end(),
                           want_int8.begin(), want_int8.end()));
    EXPECT_EQ(std::bit_cast<uint32_t>(loaded->Int8ScaleOf(id)),
              std::bit_cast<uint32_t>(store.Int8ScaleOf(id)));
  }
  // A restored store must score bit-identically to the freshly built one:
  // the norm cache and unit rows are rebuilt with the same deterministic
  // kernels, per-pair and batched alike.
  for (EntityId a = 0; a < static_cast<EntityId>(store.slot_count()); ++a) {
    for (EntityId b = a; b < static_cast<EntityId>(store.slot_count());
         ++b) {
      EXPECT_EQ(loaded->Similarity(a, b), store.Similarity(a, b));
    }
  }
  std::vector<EntityId> all(store.slot_count());
  for (size_t i = 0; i < all.size(); ++i) {
    all[i] = static_cast<EntityId>(i);
  }
  const std::vector<EntityId> seeds = {0, 1, 2};
  const std::vector<float> fresh = store.SeedCentroidScores(seeds, all);
  const std::vector<float> restored = loaded->SeedCentroidScores(seeds, all);
  ASSERT_EQ(fresh.size(), restored.size());
  for (size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(fresh[i], restored[i]) << "candidate slot " << i;
  }
}

TEST_F(SnapshotTest, EncoderRejectsTrailingGarbage) {
  ContextEncoder encoder(50, 20, EncoderConfig{});
  const auto path = dir_ / "encoder_trailing.uws";
  ASSERT_TRUE(SaveEncoder(encoder, path.string()).ok());
  std::string bytes = ReadFileBytes(path);
  bytes += "extra";
  WriteFileBytes(path, bytes);
  auto loaded = LoadEncoder(path.string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInternal);
}

TEST_F(SnapshotTest, CorruptionMatrix) {
  const auto good_path = dir_ / "world_good.uws";
  ASSERT_TRUE(SaveWorldSnapshot(*world_, good_path.string()).ok());
  const std::string good = ReadFileBytes(good_path);
  ASSERT_GT(good.size(), 64u);
  const auto bad_path = dir_ / "world_bad.uws";

  struct Case {
    const char* name;
    std::string bytes;
  };
  std::string truncated_header = good.substr(0, 10);
  std::string truncated_payload = good.substr(0, good.size() / 2);
  std::string flipped = good;
  flipped[good.size() / 2] = static_cast<char>(flipped[good.size() / 2] ^ 0x40);
  std::string bad_magic = good;
  bad_magic[0] = 'X';
  std::string bad_version = good;
  bad_version[4] = static_cast<char>(bad_version[4] ^ 0x7F);
  std::string trailing = good + "garbage";
  const Case cases[] = {
      {"truncated header", truncated_header},
      {"truncated payload", truncated_payload},
      {"flipped byte", flipped},
      {"bad magic", bad_magic},
      {"bad version", bad_version},
      {"trailing garbage", trailing},
      {"empty file", std::string()},
  };
  for (const Case& c : cases) {
    WriteFileBytes(bad_path, c.bytes);
    auto loaded = LoadWorldSnapshot(bad_path.string());
    EXPECT_FALSE(loaded.ok()) << c.name;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInternal) << c.name;
  }

  // A valid file of one artifact kind never parses as another.
  auto as_index = LoadIndexSnapshot(good_path.string());
  ASSERT_FALSE(as_index.ok());
  EXPECT_NE(as_index.status().message().find("different artifact kind"),
            std::string::npos);

  // Missing files report NotFound, distinct from corruption.
  auto missing = LoadWorldSnapshot((dir_ / "nope.uws").string());
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST_F(SnapshotTest, EncoderRejectsImplausibleDims) {
  // Craft validly framed (magic/version/CRC all correct) encoder payloads
  // whose header fields cannot be backed by the payload; the loader must
  // fail closed without allocating from them.
  struct Case {
    const char* name;
    int32_t token_dim;
    int32_t hidden_dim;
    uint64_t token_vocab;
    uint64_t entity_vocab;
  };
  const Case cases[] = {
      {"zero token_dim", 0, 8, 10, 10},
      {"negative hidden_dim", 8, -3, 10, 10},
      {"huge token_dim", 1 << 21, 8, 10, 10},
      {"zero vocab", 8, 8, 0, 10},
      {"vocab beyond payload", 8, 8, 1ull << 40, 10},
      {"entity vocab beyond payload", 8, 8, 10, 1ull << 50},
  };
  const auto path = dir_ / "bogus_encoder.uws";
  for (const Case& c : cases) {
    SnapshotWriter writer;
    writer.PutU64(3);  // seed
    writer.PutI32(c.token_dim);
    writer.PutI32(c.hidden_dim);
    writer.PutI32(4);  // projection_dim
    writer.PutF32(0.5f);
    writer.PutU64(c.token_vocab);
    writer.PutU64(c.entity_vocab);
    writer.PutU32(0);  // no token weights
    // A little real float data so the file is not trivially empty.
    const std::vector<float> filler(64, 1.0f);
    writer.PutFloats(filler);
    ASSERT_TRUE(
        WriteSnapshotFile(path.string(), SnapshotKind::kEncoder, writer)
            .ok());
    auto loaded = LoadEncoder(path.string());
    EXPECT_FALSE(loaded.ok()) << c.name;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInternal) << c.name;
  }
}

TEST_F(SnapshotTest, EntityStoreRejectsImplausibleDim) {
  const auto path = dir_ / "bogus_store.uws";
  for (const uint64_t dim : {uint64_t{0}, uint64_t{1} << 40}) {
    SnapshotWriter writer;
    writer.PutU64(dim);
    writer.PutU64(1);  // one slot
    writer.PutU32(0);  // absent
    ASSERT_TRUE(
        WriteSnapshotFile(path.string(), SnapshotKind::kEntityStore, writer)
            .ok());
    auto loaded = LoadEntityStoreSnapshot(path.string());
    EXPECT_FALSE(loaded.ok()) << dim;
  }
}

TEST_F(SnapshotTest, IndexRejectsUnsortedTerms) {
  // Terms must be strictly ascending; a descending pair is rejected.
  SnapshotWriter writer;
  writer.PutU64(2);  // doc lengths
  writer.PutI32(3);
  writer.PutI32(2);
  writer.PutU64(2);  // two terms, out of order
  writer.PutI32(7);
  writer.PutU64(1);
  writer.PutI32(0);
  writer.PutI32(1);
  writer.PutI32(4);
  writer.PutU64(1);
  writer.PutI32(0);
  writer.PutI32(1);
  const auto path = dir_ / "bogus_index.uws";
  ASSERT_TRUE(
      WriteSnapshotFile(path.string(), SnapshotKind::kInvertedIndex, writer)
          .ok());
  auto loaded = LoadIndexSnapshot(path.string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInternal);
}

/// LoadOrBuild over an index snapshot, counting the callbacks it runs.
struct CountingIndexCache {
  InvertedIndex Get(uint64_t key) {
    return LoadOrBuild(
        "mined-index", key,
        [this](const std::string& path) {
          ++loads;
          return LoadIndexSnapshot(path);
        },
        [this] {
          ++builds;
          InvertedIndex index = BuildIndexForSnapshotTests();
          index.Freeze();
          return index;
        },
        [this](const InvertedIndex& index, const std::string& path) {
          ++saves;
          return SaveIndexSnapshot(index, path);
        });
  }

  /// Documents in BuildIndexForSnapshotTests().
  static constexpr size_t kDocs = 304;
  int loads = 0;
  int builds = 0;
  int saves = 0;
};

int64_t CounterValue(const char* name) {
  return obs::GetCounter(name).Value();
}

TEST_F(SnapshotTest, ArtifactCacheMissStoreHit) {
  const auto cache_dir = dir_ / "cache";
  ArtifactCache::OverrideGlobalForTest(cache_dir.string());
  const ArtifactCache& cache = ArtifactCache::Global();
  obs::ResetMetricsForTest();
  const uint64_t key = 0x5eed;
  const std::string entry = cache.PathFor("mined-index", key);
  CountingIndexCache index_cache;

  // A miss builds and stores.
  EXPECT_EQ(index_cache.Get(key).document_count(), CountingIndexCache::kDocs);
  EXPECT_EQ(index_cache.loads, 1);
  EXPECT_EQ(index_cache.builds, 1);
  EXPECT_EQ(index_cache.saves, 1);
  EXPECT_EQ(CounterValue("cache.miss"), 1);
  EXPECT_EQ(CounterValue("cache.store"), 1);
  EXPECT_EQ(CounterValue("cache.hit"), 0);
  const std::string stored = ReadFileBytes(entry);
  ASSERT_FALSE(stored.empty());

  // A hit skips the build.
  EXPECT_EQ(index_cache.Get(key).document_count(), CountingIndexCache::kDocs);
  EXPECT_EQ(index_cache.loads, 2);
  EXPECT_EQ(index_cache.builds, 1);
  EXPECT_EQ(index_cache.saves, 1);
  EXPECT_EQ(CounterValue("cache.hit"), 1);
  EXPECT_EQ(CounterValue("cache.bytes_read"),
            static_cast<int64_t>(stored.size()));

  // A different key misses — the cache is content-addressed.
  index_cache.Get(key ^ 1);
  EXPECT_EQ(index_cache.builds, 2);
  EXPECT_EQ(CounterValue("cache.miss"), 2);

  // A corrupt entry degrades to a miss, never to an error: it is rebuilt
  // and overwritten, and the next lookup hits.
  std::string bytes = stored;
  bytes[bytes.size() / 2] =
      static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  WriteFileBytes(entry, bytes);
  EXPECT_EQ(index_cache.Get(key).document_count(), CountingIndexCache::kDocs);
  EXPECT_EQ(index_cache.builds, 3);
  EXPECT_EQ(index_cache.saves, 3);
  EXPECT_EQ(CounterValue("cache.miss"), 3);
  EXPECT_EQ(ReadFileBytes(entry), stored);
  index_cache.Get(key);
  EXPECT_EQ(index_cache.builds, 3);
  EXPECT_EQ(CounterValue("cache.hit"), 2);

  ArtifactCache::OverrideGlobalForTest("");
  EXPECT_FALSE(cache.enabled());
}

TEST_F(SnapshotTest, DisabledCacheRecordsNothing) {
  ArtifactCache::OverrideGlobalForTest("");
  obs::ResetMetricsForTest();
  CountingIndexCache index_cache;
  EXPECT_EQ(index_cache.Get(1).document_count(), CountingIndexCache::kDocs);
  EXPECT_EQ(index_cache.loads, 0);
  EXPECT_EQ(index_cache.builds, 1);
  EXPECT_EQ(index_cache.saves, 0);
  EXPECT_EQ(CounterValue("cache.hit"), 0);
  EXPECT_EQ(CounterValue("cache.miss"), 0);
  EXPECT_EQ(CounterValue("cache.store"), 0);
}

TEST_F(SnapshotTest, KeyZeroIsNeverCached) {
  const auto cache_dir = dir_ / "key_zero_cache";
  ArtifactCache::OverrideGlobalForTest(cache_dir.string());
  obs::ResetMetricsForTest();
  CountingIndexCache index_cache;
  index_cache.Get(0);
  index_cache.Get(0);
  EXPECT_EQ(index_cache.loads, 0);
  EXPECT_EQ(index_cache.builds, 2);
  EXPECT_EQ(index_cache.saves, 0);
  EXPECT_EQ(CounterValue("cache.hit"), 0);
  EXPECT_EQ(CounterValue("cache.miss"), 0);
  EXPECT_EQ(CounterValue("cache.store"), 0);
  EXPECT_FALSE(std::filesystem::exists(cache_dir));
  ArtifactCache::OverrideGlobalForTest("");
}

/// A small finalized LM: order 3, truncated association rows, stop token
/// 0. Deterministic, so every call trains the same tables.
HybridLm TrainSmallLm(const HybridLmConfig& config) {
  HybridLm lm(12, config);
  for (int i = 0; i < 4; ++i) {
    lm.AddSentence(std::vector<TokenId>{1, 2, 3, 0, 4});
    lm.AddSentence(std::vector<TokenId>{5, 2, 3, 6});
    lm.AddSentence(std::vector<TokenId>{7, 0, 8, 9, 2, 10});
    lm.AddSentence(std::vector<TokenId>{11, 3, 1, 2});
  }
  lm.SetStopTokens({0});
  lm.Finalize();
  return lm;
}

HybridLmConfig SmallLmConfig() {
  HybridLmConfig config;
  config.ngram.order = 3;
  config.association_top_k = 4;
  return config;
}

/// The arrays of a finalized LM, re-encoded in SaveLmSnapshot's payload
/// order so a test can break one invariant and keep a valid frame.
struct LmParts {
  std::vector<TokenId> stop_tokens;
  std::vector<int64_t> unigram_counts;
  std::vector<NgramLm::Level> levels;
  CountRows association;

  static LmParts Of(const HybridLm& lm) {
    return LmParts{lm.SortedStopTokens(), lm.ngram().unigram_counts(),
                   lm.ngram().levels(), lm.association().rows()};
  }

  /// The payload, truncated by `drop_bytes`, in a valid frame.
  std::string Framed(const HybridLmConfig& config, size_t vocab_size,
                     size_t drop_bytes = 0) const {
    SnapshotWriter out;
    out.PutU32(1);  // LM payload version
    out.PutU64(FingerprintConfig(config));
    out.PutU64(vocab_size);
    out.PutI32Vec(stop_tokens);
    out.PutI64Vec(unigram_counts);
    out.PutU64(levels.size());
    for (const NgramLm::Level& level : levels) {
      out.PutU64Vec(level.keys);
      PutRows(out, level.rows);
    }
    PutRows(out, association);
    const std::string payload =
        out.payload().substr(0, out.payload().size() - drop_bytes);
    std::string framed;
    for (const uint64_t field :
         {uint64_t{kSnapshotMagic}, uint64_t{kSnapshotVersion},
          uint64_t{static_cast<uint32_t>(SnapshotKind::kLanguageModel)}}) {
      for (int i = 0; i < 4; ++i) {
        framed.push_back(static_cast<char>((field >> (8 * i)) & 0xFF));
      }
    }
    for (int i = 0; i < 8; ++i) {
      framed.push_back(static_cast<char>((payload.size() >> (8 * i)) & 0xFF));
    }
    framed += payload;
    const uint32_t crc = Crc32(framed);
    for (int i = 0; i < 4; ++i) {
      framed.push_back(static_cast<char>((crc >> (8 * i)) & 0xFF));
    }
    return framed;
  }

  static void PutRows(SnapshotWriter& out, const CountRows& rows) {
    out.PutU32Vec(rows.offsets);
    out.PutI32Vec(rows.targets);
    out.PutI32Vec(rows.counts);
    out.PutI64Vec(rows.totals);
  }
};

/// The first row of `rows` with at least `min_size` targets.
size_t RowWithAtLeast(const CountRows& rows, uint32_t min_size) {
  for (size_t r = 0; r < rows.row_count(); ++r) {
    if (rows.offsets[r + 1] - rows.offsets[r] >= min_size) return r;
  }
  ADD_FAILURE() << "no row with " << min_size << " targets";
  return 0;
}

TEST_F(SnapshotTest, LmSnapshotRoundTripsAndIsDeterministic) {
  const HybridLmConfig config = SmallLmConfig();
  const HybridLm lm = TrainSmallLm(config);
  const auto a = dir_ / "lm_a.uws";
  const auto b = dir_ / "lm_b.uws";
  ASSERT_TRUE(SaveLmSnapshot(lm, a.string()).ok());
  ASSERT_TRUE(SaveLmSnapshot(TrainSmallLm(config), b.string()).ok());
  EXPECT_EQ(ReadFileBytes(a), ReadFileBytes(b));
  // The test's re-encoding is byte-identical to SaveLmSnapshot's.
  EXPECT_EQ(LmParts::Of(lm).Framed(config, lm.vocab_size()), ReadFileBytes(a));

  auto loaded = LoadLmSnapshot(a.string(), lm.vocab_size(), config);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->SortedStopTokens(), lm.SortedStopTokens());
  const std::vector<TokenId> context = {7, 0, 8, 9};
  for (TokenId next = 0; next < 12; ++next) {
    EXPECT_EQ(loaded->NextTokenProbability(context, next),
              lm.NextTokenProbability(context, next));
  }

  // A different config or vocabulary fails closed.
  HybridLmConfig other = config;
  other.association_weight = 0.5;
  EXPECT_FALSE(LoadLmSnapshot(a.string(), lm.vocab_size(), other).ok());
  EXPECT_FALSE(LoadLmSnapshot(a.string(), lm.vocab_size() + 1, config).ok());
  // Unfinalized LMs are not saved.
  HybridLm raw(12, config);
  EXPECT_EQ(SaveLmSnapshot(raw, (dir_ / "lm_raw.uws").string()).code(),
            StatusCode::kInvalidArgument);
}

// Checksum-valid LM payloads that break one invariant each must fail
// closed, and through LoadOrBuild fall back to training.
TEST_F(SnapshotTest, LmSnapshotRejectsHostilePayloads) {
  const HybridLmConfig config = SmallLmConfig();
  const HybridLm lm = TrainSmallLm(config);
  const size_t vocab = lm.vocab_size();
  const LmParts good = LmParts::Of(lm);
  ASSERT_EQ(good.levels.size(), 2u);

  struct Case {
    const char* name;
    std::string bytes;
    const char* reason;  // expected in the load's error message
  };
  std::vector<Case> cases;
  cases.push_back({"truncated payload", good.Framed(config, vocab, 6), "corrupt LM snapshot"});
  {
    LmParts parts = good;
    std::vector<uint32_t>& offsets = parts.association.offsets;
    // The row after the first non-empty one ends before it starts.
    const size_t r = RowWithAtLeast(parts.association, 1) + 1;
    offsets[r + 1] = offsets[r] - 1;
    cases.push_back({"non-monotone association offsets",
                     parts.Framed(config, vocab), "association: row offsets are not monotone"});
  }
  {
    LmParts parts = good;
    CountRows& rows = parts.levels[0].rows;
    const size_t r = RowWithAtLeast(rows, 1);
    rows.offsets[r + 1] = static_cast<uint32_t>(rows.targets.size() + 3);
    cases.push_back({"n-gram offset past the targets",
                     parts.Framed(config, vocab), "n-gram level: row offsets are not monotone"});
  }
  {
    LmParts parts = good;
    CountRows& rows = parts.levels[0].rows;
    const uint32_t begin = rows.offsets[RowWithAtLeast(rows, 2)];
    std::swap(rows.targets[begin], rows.targets[begin + 1]);
    std::swap(rows.counts[begin], rows.counts[begin + 1]);
    cases.push_back({"unsorted targets", parts.Framed(config, vocab), "not strictly ascending"});
  }
  {
    LmParts parts = good;
    CountRows& rows = parts.association;
    const uint32_t begin = rows.offsets[RowWithAtLeast(rows, 2)];
    rows.targets[begin + 1] = rows.targets[begin];
    cases.push_back({"duplicate targets", parts.Framed(config, vocab), "not strictly ascending"});
  }
  {
    LmParts parts = good;
    CountRows& rows = parts.association;
    const size_t r = RowWithAtLeast(rows, 1);
    rows.targets[rows.offsets[r + 1] - 1] = static_cast<TokenId>(vocab);
    cases.push_back({"token id >= vocab", parts.Framed(config, vocab), "outside the vocabulary"});
  }
  for (const int32_t bad_count : {0, -3}) {
    LmParts parts = good;
    CountRows& rows = parts.levels[1].rows;
    const size_t r = RowWithAtLeast(rows, 1);
    const uint32_t slot = rows.offsets[r];
    rows.totals[r] += bad_count - rows.counts[slot];
    rows.counts[slot] = bad_count;
    cases.push_back({bad_count == 0 ? "zero count" : "negative count",
                     parts.Framed(config, vocab), "count is not positive"});
  }
  {
    LmParts parts = good;
    parts.levels[1].rows.totals[0] += 1;
    cases.push_back({"row total != sum of counts",
                     parts.Framed(config, vocab), "not the sum of its counts"});
  }
  {
    LmParts parts = good;
    std::vector<uint64_t>& keys = parts.levels[0].keys;
    ASSERT_GE(keys.size(), 2u);
    keys[1] = keys[0];
    cases.push_back({"duplicate context key", parts.Framed(config, vocab), "context keys are not strictly ascending"});
  }
  {
    LmParts parts = good;
    parts.unigram_counts.pop_back();
    cases.push_back({"unigram counts short of the vocab",
                     parts.Framed(config, vocab), "unigram counts do not cover"});
  }

  const auto cache_dir = dir_ / "lm_cache";
  ArtifactCache::OverrideGlobalForTest(cache_dir.string());
  const std::string entry = ArtifactCache::Global().PathFor("lm", 0x17);
  std::filesystem::create_directories(cache_dir);
  int builds = 0;
  const std::vector<TokenId> context = {1, 2};
  for (const Case& c : cases) {
    WriteFileBytes(entry, c.bytes);
    auto loaded = LoadLmSnapshot(entry, vocab, config);
    ASSERT_FALSE(loaded.ok()) << c.name;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInternal) << c.name;
    EXPECT_NE(loaded.status().message().find(c.reason), std::string::npos)
        << c.name << ": " << loaded.status().message();

    const int builds_before = builds;
    const HybridLm fallback = LoadOrBuild(
        "lm", 0x17,
        [&](const std::string& path) {
          return LoadLmSnapshot(path, vocab, config);
        },
        [&] {
          ++builds;
          return TrainSmallLm(config);
        },
        SaveLmSnapshot);
    EXPECT_EQ(builds, builds_before + 1) << c.name;
    EXPECT_EQ(fallback.NextTokenProbability(context, 3),
              lm.NextTokenProbability(context, 3))
        << c.name;
    // The rebuilt entry overwrote the hostile one.
    EXPECT_EQ(ReadFileBytes(entry), good.Framed(config, vocab)) << c.name;
  }
  ArtifactCache::OverrideGlobalForTest("");
}

TEST_F(SnapshotTest, Crc32MatchesBytewiseReference) {
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  // The bytewise table algorithm, one byte per step.
  auto reference = [](std::string_view data) {
    uint32_t crc = 0xFFFFFFFFu;
    for (const char c : data) {
      crc ^= static_cast<unsigned char>(c);
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
      }
    }
    return ~crc;
  };
  std::string data;
  for (int i = 0; i <= 100; ++i) {
    const std::string_view view(data);
    const uint32_t whole = Crc32(view);
    EXPECT_EQ(whole, reference(view)) << "length " << i;
    // Chunked continuation at odd split points equals one shot.
    for (size_t split = 1; split < view.size(); split += 3) {
      EXPECT_EQ(Crc32(view.substr(split), Crc32(view.substr(0, split))),
                whole)
          << "length " << i << " split " << split;
    }
    data.push_back(static_cast<char>((i * 131 + 7) & 0xFF));
  }
}

TEST_F(SnapshotTest, ConfigFingerprintsAreSensitive) {
  GeneratorConfig base = TinyConfig();
  GeneratorConfig reseeded = base;
  reseeded.seed += 1;
  GeneratorConfig rescaled = base;
  rescaled.scale += 0.01;
  EXPECT_EQ(FingerprintConfig(base), FingerprintConfig(TinyConfig()));
  EXPECT_NE(FingerprintConfig(base), FingerprintConfig(reseeded));
  EXPECT_NE(FingerprintConfig(base), FingerprintConfig(rescaled));

  EncoderConfig enc_a;
  EncoderConfig enc_b;
  enc_b.hidden_dim += 8;
  EXPECT_NE(FingerprintConfig(enc_a), FingerprintConfig(enc_b));

  DatasetConfig ds_a;
  DatasetConfig ds_b;
  ds_b.annotation.seed += 1;
  EXPECT_NE(FingerprintConfig(ds_a), FingerprintConfig(ds_b));

  EXPECT_NE(CombineFingerprints({1, 2}), CombineFingerprints({2, 1}));
  // Unknown provenance anywhere in the chain keys nothing.
  EXPECT_EQ(CombineFingerprints({1, 0, 2}), 0u);
}

// End-to-end: a warm pipeline build loads every cached artifact and
// produces representations bit-identical to the cold build's.
TEST_F(SnapshotTest, PipelineWarmBuildMatchesCold) {
  PipelineConfig config = PipelineConfig::Tiny();
  config.generator = TinyConfig();
  config.dataset.ultra_class_scale = 0.1;
  config.encoder_train.epochs = 1;

  const auto cache_dir = dir_ / "pipeline_cache";
  ArtifactCache::OverrideGlobalForTest(cache_dir.string());
  obs::ResetMetricsForTest();

  Pipeline cold = Pipeline::Build(config);
  cold.ann_index();
  EXPECT_EQ(CounterValue("cache.hit"), 0);
  // World, mined index, encoder, store, LM and ANN index.
  const int64_t cold_stores = CounterValue("cache.store");
  EXPECT_EQ(cold_stores, 6);

  obs::ResetMetricsForTest();
  Pipeline warm = Pipeline::Build(config);
  warm.ann_index();
  // Every artifact the cold build stored loads from the cache.
  EXPECT_EQ(CounterValue("cache.hit"), cold_stores);
  EXPECT_EQ(CounterValue("cache.miss"), 0);
  EXPECT_EQ(CounterValue("cache.store"), 0);
  EXPECT_EQ(warm.ann_index().lists(), cold.ann_index().lists());

  EXPECT_EQ(warm.world().fingerprint, cold.world().fingerprint);
  EXPECT_EQ(warm.candidates(), cold.candidates());
  ASSERT_EQ(warm.store().slot_count(), cold.store().slot_count());
  for (EntityId id = 0;
       id < static_cast<EntityId>(warm.store().slot_count()); ++id) {
    ASSERT_EQ(warm.store().Has(id), cold.store().Has(id));
    const auto want = cold.store().HiddenOf(id);
    const auto got = warm.store().HiddenOf(id);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin()));
    EXPECT_EQ(warm.store().NormOf(id), cold.store().NormOf(id));
  }
  // The restored LM scores like the trained one, bit for bit.
  const std::vector<TokenId>& prompt = warm.world().corpus.sentence(0).tokens;
  for (TokenId next = 0;
       next < static_cast<TokenId>(warm.lm().vocab_size()); ++next) {
    ASSERT_EQ(warm.lm().NextTokenProbability(prompt, next),
              cold.lm().NextTokenProbability(prompt, next))
        << "token " << next;
  }
  ArtifactCache::OverrideGlobalForTest("");
}

}  // namespace
}  // namespace ultrawiki
