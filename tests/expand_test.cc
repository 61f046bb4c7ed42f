#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <set>
#include <span>

#include "common/thread_pool.h"
#include "expand/contrastive_miner.h"
#include "expand/genexpan.h"
#include "expand/pipeline.h"
#include "expand/rerank.h"
#include "expand/retexpan.h"
#include "expand/retrieval_augmentation.h"
#include "math/topk.h"

namespace ultrawiki {
namespace {

// ------------------------------------------------------ SegmentedRerank.

TEST(RerankTest, OutputIsPermutation) {
  const std::vector<EntityId> initial = {5, 3, 9, 1, 7};
  const auto out = SegmentedRerank(
      initial, [](EntityId id) { return static_cast<double>(id); }, 2);
  std::vector<EntityId> sorted_in = initial;
  std::vector<EntityId> sorted_out = out;
  std::sort(sorted_in.begin(), sorted_in.end());
  std::sort(sorted_out.begin(), sorted_out.end());
  EXPECT_EQ(sorted_in, sorted_out);
}

TEST(RerankTest, SortsWithinSegmentsAscending) {
  const std::vector<EntityId> initial = {4, 1, 9, 2};
  const auto out = SegmentedRerank(
      initial, [](EntityId id) { return static_cast<double>(id); }, 2);
  // Segments [4,1] and [9,2] each sorted ascending by score.
  EXPECT_EQ(out, (std::vector<EntityId>{1, 4, 2, 9}));
}

TEST(RerankTest, SegmentBoundariesAreRespected) {
  // A very negative-scoring entity in the last segment must not jump to
  // the global front.
  const std::vector<EntityId> initial = {10, 11, 12, 13};
  const auto out = SegmentedRerank(
      initial,
      [](EntityId id) { return id == 13 ? -100.0 : 0.0; }, 2);
  EXPECT_EQ(out[0], 10);  // first segment untouched order (stable ties)
  EXPECT_EQ(out[2], 13);  // 13 moves to front of its own segment only
}

TEST(RerankTest, SegmentLargerThanListIsGlobalSort) {
  const std::vector<EntityId> initial = {3, 1, 2};
  const auto out = SegmentedRerank(
      initial, [](EntityId id) { return static_cast<double>(id); }, 100);
  EXPECT_EQ(out, (std::vector<EntityId>{1, 2, 3}));
}

TEST(RerankTest, StableOnTies) {
  const std::vector<EntityId> initial = {7, 5, 6};
  const auto out =
      SegmentedRerank(initial, [](EntityId) { return 1.0; }, 3);
  EXPECT_EQ(out, initial);
}

TEST(RerankTest, EmptyInput) {
  EXPECT_TRUE(
      SegmentedRerank({}, [](EntityId) { return 0.0; }, 5).empty());
}

TEST(RerankTest, PositionalVariantHandlesDuplicates) {
  const std::vector<EntityId> initial = {-2, 4, -2, 3};
  const std::vector<double> scores = {0.9, 0.1, 0.5, 0.2};
  const auto out = SegmentedRerankByPosition(initial, scores, 4);
  EXPECT_EQ(out, (std::vector<EntityId>{4, 3, -2, -2}));
}

TEST(RerankTest, ShortFinalSegmentSortsOnlyItself) {
  // 5 entries with segment length 3: the final segment is the short tail
  // {30, 40} and must be sorted independently of the first segment.
  const std::vector<EntityId> initial = {10, 20, 30, 40, 50};
  const std::vector<double> scores = {0.0, 0.5, 0.1, 0.9, 0.2};
  const auto out = SegmentedRerankByPosition(initial, scores, 3);
  EXPECT_EQ(out, (std::vector<EntityId>{10, 30, 20, 50, 40}));
}

TEST(RerankTest, SingleElementFinalSegment) {
  const std::vector<EntityId> initial = {1, 2, 3};
  const std::vector<double> scores = {0.9, 0.1, 0.5};
  const auto out = SegmentedRerankByPosition(initial, scores, 2);
  EXPECT_EQ(out, (std::vector<EntityId>{2, 1, 3}));
}

TEST(RerankTest, AllZeroMarginsIsIdentity) {
  // The pure-demotion invariant of RetExpan's clamped margin key: when no
  // entity's negative evidence exceeds its positive evidence, every
  // margin is 0 and the stable segment sort must leave the list intact.
  const std::vector<EntityId> initial = {9, 4, 7, 2, 8, 6, 1};
  const std::vector<double> margins(initial.size(), 0.0);
  for (const int segment : {1, 2, 3, 100}) {
    EXPECT_EQ(SegmentedRerankByPosition(initial, margins, segment), initial)
        << "segment length " << segment;
  }
}

// ------------------------------------------------- Tiny pipeline fixture.

class ExpandTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pipeline_ = new Pipeline(Pipeline::Build(PipelineConfig::Tiny()));
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    pipeline_ = nullptr;
  }
  static Pipeline* pipeline_;
};

Pipeline* ExpandTest::pipeline_ = nullptr;

TEST_F(ExpandTest, RetExpanExcludesSeedsAndBoundsK) {
  auto method = pipeline_->MakeRetExpan();
  for (size_t q = 0; q < 5 && q < pipeline_->dataset().queries.size();
       ++q) {
    const Query& query = pipeline_->dataset().queries[q];
    const auto ranking = method->Expand(query, 30);
    EXPECT_LE(ranking.size(), 30u);
    const std::vector<EntityId> seeds = SortedSeedsOf(query);
    for (EntityId id : ranking) {
      EXPECT_FALSE(std::binary_search(seeds.begin(), seeds.end(), id));
    }
  }
}

TEST_F(ExpandTest, RetExpanRankingIsDeterministic) {
  auto method = pipeline_->MakeRetExpan();
  const Query& query = pipeline_->dataset().queries.front();
  EXPECT_EQ(method->Expand(query, 50), method->Expand(query, 50));
}

TEST_F(ExpandTest, RetExpanRerankChangesOrderNotSet) {
  RetExpanConfig with;
  RetExpanConfig without;
  without.use_negative_rerank = false;
  auto a = pipeline_->MakeRetExpan(with);
  auto b = pipeline_->MakeRetExpan(without);
  const Query& query = pipeline_->dataset().queries.front();
  auto ra = a->Expand(query, 40);
  auto rb = b->Expand(query, 40);
  std::sort(ra.begin(), ra.end());
  std::sort(rb.begin(), rb.end());
  EXPECT_EQ(ra, rb) << "re-ranking must permute, not change membership";
}

TEST_F(ExpandTest, InitialExpansionRespectsSize) {
  auto method = pipeline_->MakeRetExpan();
  const Query& query = pipeline_->dataset().queries.front();
  EXPECT_EQ(method->InitialExpansion(query, 25).size(), 25u);
}

// ---- Pre-kernel scalar reference: float-accumulated cosine with norms
// recomputed per pair and the per-seed average taken in double — the
// exact arithmetic RetExpan ran before the blocked kernels. The batched
// centroid path must reproduce its rankings bit-for-bit.

float ScalarCosineRef(std::span<const float> a, std::span<const float> b) {
  float na = 0.0f;
  float nb = 0.0f;
  float dot = 0.0f;
  for (float v : a) na += v * v;
  for (float v : b) nb += v * v;
  na = std::sqrt(na);
  nb = std::sqrt(nb);
  if (na <= 0.0f || nb <= 0.0f) return 0.0f;
  for (size_t i = 0; i < a.size(); ++i) dot += a[i] * b[i];
  return dot / (na * nb);
}

double ScalarSeedSimilarityRef(const EntityStore& store,
                               const std::vector<EntityId>& seeds,
                               EntityId candidate) {
  if (seeds.empty()) return 0.0;
  double sum = 0.0;
  for (EntityId seed : seeds) {
    sum += static_cast<double>(
        ScalarCosineRef(store.HiddenOf(candidate), store.HiddenOf(seed)));
  }
  return sum / static_cast<double>(seeds.size());
}

std::vector<EntityId> ScalarExpandRef(const EntityStore& store,
                                      const std::vector<EntityId>& candidates,
                                      const Query& query, size_t k,
                                      const RetExpanConfig& config) {
  const size_t initial_size =
      std::max<size_t>(k, static_cast<size_t>(config.initial_list_size));
  const std::vector<EntityId> seeds = SortedSeedsOf(query);
  std::vector<ScoredIndex> scored;
  for (size_t i = 0; i < candidates.size(); ++i) {
    const EntityId id = candidates[i];
    if (std::binary_search(seeds.begin(), seeds.end(), id)) continue;
    scored.push_back(ScoredIndex{
        static_cast<float>(
            ScalarSeedSimilarityRef(store, query.pos_seeds, id)),
        i});
  }
  scored = TopKOfPairs(std::move(scored), initial_size);
  std::vector<EntityId> list;
  for (const ScoredIndex& s : scored) list.push_back(candidates[s.index]);
  if (config.use_negative_rerank && !query.neg_seeds.empty()) {
    std::vector<double> margins;
    for (EntityId id : list) {
      margins.push_back(std::max(
          0.0, ScalarSeedSimilarityRef(store, query.neg_seeds, id) -
                   ScalarSeedSimilarityRef(store, query.pos_seeds, id)));
    }
    list = SegmentedRerankByPosition(list, margins,
                                     config.rerank_segment_length);
  }
  if (list.size() > k) list.resize(k);
  return list;
}

TEST_F(ExpandTest, BatchedRankingBitIdenticalToScalarReference) {
  for (const bool rerank : {true, false}) {
    RetExpanConfig config;
    config.use_negative_rerank = rerank;
    auto method = pipeline_->MakeRetExpan(config);
    for (size_t q = 0; q < 4 && q < pipeline_->dataset().queries.size();
         ++q) {
      const Query& query = pipeline_->dataset().queries[q];
      EXPECT_EQ(method->Expand(query, 50),
                ScalarExpandRef(pipeline_->store(), pipeline_->candidates(),
                                query, 50, config))
          << "query " << q << " rerank=" << rerank;
    }
  }
}

TEST_F(ExpandTest, BatchedRankingIdenticalAcrossThreadCounts) {
  auto method = pipeline_->MakeRetExpan();
  const Query& query = pipeline_->dataset().queries.front();
  ASSERT_TRUE(ThreadPool::SetGlobalThreadCount(1).ok());
  const auto one_thread = method->Expand(query, 50);
  ASSERT_TRUE(ThreadPool::SetGlobalThreadCount(8).ok());
  const auto eight_threads = method->Expand(query, 50);
  ASSERT_TRUE(ThreadPool::SetGlobalThreadCount(0).ok());  // restore default
  EXPECT_EQ(one_thread, eight_threads);
}

TEST_F(ExpandTest, SeedCentroidScoresMatchPerPairAverage) {
  const EntityStore& store = pipeline_->store();
  const Query& query = pipeline_->dataset().queries.front();
  const std::vector<EntityId>& candidates = pipeline_->candidates();
  const std::vector<float> batched =
      store.SeedCentroidScores(query.pos_seeds, candidates);
  ASSERT_EQ(batched.size(), candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    double per_pair = 0.0;
    for (EntityId seed : query.pos_seeds) {
      per_pair += static_cast<double>(
          store.Similarity(candidates[i], seed));
    }
    per_pair /= static_cast<double>(query.pos_seeds.size());
    EXPECT_NEAR(batched[i], per_pair, 1e-5) << "candidate " << i;
  }
}

TEST_F(ExpandTest, GenExpanProducesCandidatesOnly) {
  auto method = pipeline_->MakeGenExpan();
  const Query& query = pipeline_->dataset().queries.front();
  const auto ranking = method->Expand(query, 30);
  EXPECT_FALSE(ranking.empty());
  std::set<EntityId> candidates(pipeline_->candidates().begin(),
                                pipeline_->candidates().end());
  for (EntityId id : ranking) {
    EXPECT_TRUE(candidates.contains(id))
        << "prefix constraint must keep generations in the vocabulary";
  }
}

TEST_F(ExpandTest, GenExpanNoDuplicates) {
  auto method = pipeline_->MakeGenExpan();
  const Query& query = pipeline_->dataset().queries.front();
  const auto ranking = method->Expand(query, 40);
  std::set<EntityId> unique(ranking.begin(), ranking.end());
  EXPECT_EQ(unique.size(), ranking.size());
}

TEST_F(ExpandTest, GenExpanUnconstrainedEmitsHallucinations) {
  GenExpanConfig config;
  config.use_prefix_constraint = false;
  config.unconstrained_invalid_rate = 0.6;
  auto method = pipeline_->MakeGenExpan(config);
  int hallucinated = 0;
  for (size_t q = 0; q < 5 && q < pipeline_->dataset().queries.size();
       ++q) {
    for (EntityId id :
         method->Expand(pipeline_->dataset().queries[q], 40)) {
      if (id == kHallucinatedEntityId) ++hallucinated;
    }
  }
  EXPECT_GT(hallucinated, 0);
}

TEST_F(ExpandTest, GenExpanDeterministic) {
  auto method = pipeline_->MakeGenExpan();
  const Query& query = pipeline_->dataset().queries.front();
  EXPECT_EQ(method->Expand(query, 30), method->Expand(query, 30));
}

TEST(GenExpanFingerprintTest, SeedSideBoundaryChangesFingerprint) {
  // The regression this guards: without length tags, moving a seed from
  // the positive to the negative side kept the fingerprint (and thus the
  // prompt-sampling RNG stream) unchanged.
  Query both_positive;
  both_positive.pos_seeds = {11, 22};
  Query split;
  split.pos_seeds = {11};
  split.neg_seeds = {22};
  EXPECT_NE(GenExpanQueryFingerprint(both_positive),
            GenExpanQueryFingerprint(split));
  // Every split of the same 3 ids must land on a distinct stream.
  std::set<uint64_t> fingerprints;
  const std::vector<EntityId> ids = {5, 6, 7};
  for (size_t boundary = 0; boundary <= ids.size(); ++boundary) {
    Query query;
    query.pos_seeds.assign(ids.begin(), ids.begin() + boundary);
    query.neg_seeds.assign(ids.begin() + boundary, ids.end());
    fingerprints.insert(GenExpanQueryFingerprint(query));
  }
  EXPECT_EQ(fingerprints.size(), ids.size() + 1);
}

TEST_F(ExpandTest, GenExpanSeedSideSplitDrawsDifferentPromptSamples) {
  // Two queries over the same ids but a different pos/neg split must use
  // different RNG streams end to end: with several positive seeds the
  // round-0 prompt sample (3 of them) almost surely differs, and with it
  // the generated ranking.
  const Query& base = pipeline_->dataset().queries.front();
  ASSERT_GE(base.pos_seeds.size(), 4u);
  Query split = base;
  split.neg_seeds.insert(split.neg_seeds.begin(), split.pos_seeds.back());
  split.pos_seeds.pop_back();
  EXPECT_NE(GenExpanQueryFingerprint(base),
            GenExpanQueryFingerprint(split));
  auto method = pipeline_->MakeGenExpan();
  EXPECT_NE(method->Expand(base, 30), method->Expand(split, 30));
}

TEST_F(ExpandTest, GenExpanBudgetFreeOutcomeMatchesExpand) {
  auto method = pipeline_->MakeGenExpan();
  const Query& query = pipeline_->dataset().queries.front();
  const ExpandOutcome outcome =
      method->ExpandWithBudget(query, 30, ExpandBudget{});
  EXPECT_FALSE(outcome.degraded);
  EXPECT_EQ(outcome.ranking, method->Expand(query, 30));
}

TEST_F(ExpandTest, GenExpanPreExpiredDeadlineDegradesToValidRanking) {
  auto method = pipeline_->MakeGenExpan();
  const Query& query = pipeline_->dataset().queries.front();
  ExpandBudget budget;
  budget.deadline = std::chrono::steady_clock::now() -
                    std::chrono::milliseconds(1);
  const ExpandOutcome outcome = method->ExpandWithBudget(query, 30, budget);
  EXPECT_TRUE(outcome.degraded);
  // Degraded output is still a valid ranking: candidate entities only, no
  // duplicates, no seeds.
  std::set<EntityId> candidates(pipeline_->candidates().begin(),
                                pipeline_->candidates().end());
  std::set<EntityId> seeds(query.pos_seeds.begin(), query.pos_seeds.end());
  seeds.insert(query.neg_seeds.begin(), query.neg_seeds.end());
  std::set<EntityId> unique;
  for (EntityId id : outcome.ranking) {
    EXPECT_TRUE(candidates.contains(id));
    EXPECT_FALSE(seeds.contains(id));
    EXPECT_TRUE(unique.insert(id).second);
  }
}

TEST_F(ExpandTest, GenExpanStandingExpansionBudgetDegrades) {
  GenExpanConfig config;
  config.max_expansions = 1;
  auto method = pipeline_->MakeGenExpan(config);
  const Query& query = pipeline_->dataset().queries.front();
  const ExpandOutcome outcome =
      method->ExpandWithBudget(query, 30, ExpandBudget{});
  EXPECT_TRUE(outcome.degraded);
}

TEST_F(ExpandTest, GenExpanBudgetKnobsAreResolvedFromEnv) {
  setenv("UW_GENEXPAN_TIME_BUDGET_MS", "250", 1);
  setenv("UW_GENEXPAN_MAX_EXPANSIONS", "12345", 1);
  auto method = pipeline_->MakeGenExpan();
  unsetenv("UW_GENEXPAN_TIME_BUDGET_MS");
  unsetenv("UW_GENEXPAN_MAX_EXPANSIONS");
  EXPECT_EQ(method->config().time_budget_ms, 250);
  EXPECT_EQ(method->config().max_expansions, 12345);
  // Explicit config values win over the environment.
  setenv("UW_GENEXPAN_MAX_EXPANSIONS", "99", 1);
  GenExpanConfig config;
  config.max_expansions = 7;
  auto explicit_method = pipeline_->MakeGenExpan(config);
  unsetenv("UW_GENEXPAN_MAX_EXPANSIONS");
  EXPECT_EQ(explicit_method->config().max_expansions, 7);
  // A malformed value warns and means no budget, not a truncated 250.
  setenv("UW_GENEXPAN_TIME_BUDGET_MS", "250ms", 1);
  auto malformed = pipeline_->MakeGenExpan();
  unsetenv("UW_GENEXPAN_TIME_BUDGET_MS");
  EXPECT_EQ(malformed->config().time_budget_ms, 0);
}

TEST_F(ExpandTest, RaPrefixesCoverSources) {
  for (RaSource source :
       {RaSource::kIntroduction, RaSource::kWikidataAttributes,
        RaSource::kGroundTruthAttributes}) {
    const auto prefixes = BuildEntityPrefixes(pipeline_->world(), source);
    ASSERT_EQ(prefixes.size(), pipeline_->world().corpus.entity_count());
    int non_empty = 0;
    for (const auto& prefix : prefixes) {
      if (!prefix.empty()) ++non_empty;
    }
    EXPECT_GT(non_empty, 0) << RaSourceName(source);
  }
  const auto none = BuildEntityPrefixes(pipeline_->world(), RaSource::kNone);
  for (const auto& prefix : none) EXPECT_TRUE(prefix.empty());
}

TEST_F(ExpandTest, RaIntroPrefixMasksOwnMention) {
  const auto prefixes =
      BuildEntityPrefixes(pipeline_->world(), RaSource::kIntroduction);
  const Corpus& corpus = pipeline_->world().corpus;
  for (EntityId id = 0; id < 20; ++id) {
    const Entity& entity = corpus.entity(id);
    for (TokenId token : prefixes[static_cast<size_t>(id)]) {
      for (const std::string& word : entity.name_tokens) {
        EXPECT_NE(corpus.tokens().TokenOf(token), word);
      }
    }
  }
}

TEST_F(ExpandTest, MinerProducesGroupsPerQuery) {
  RetExpan base(&pipeline_->store(), &pipeline_->candidates());
  MinerConfig config;
  const ContrastiveData data =
      MineContrastiveData(pipeline_->world(), pipeline_->dataset(), base,
                          pipeline_->oracle(), config);
  ASSERT_EQ(data.groups.size(), pipeline_->dataset().queries.size());
  for (size_t g = 0; g < data.groups.size(); ++g) {
    const ContrastiveGroup& group = data.groups[g];
    // Seeds are merged in, so l_pos/l_neg are never empty.
    EXPECT_FALSE(group.l_pos.empty());
    EXPECT_FALSE(group.l_neg.empty());
    EXPECT_FALSE(group.conditioning.empty());
    // No entity appears on both sides.
    std::set<EntityId> neg(group.l_neg.begin(), group.l_neg.end());
    for (EntityId id : group.l_pos) {
      EXPECT_FALSE(neg.contains(id));
    }
  }
}

TEST_F(ExpandTest, MinerOtherClassEntitiesAreOtherClass) {
  RetExpan base(&pipeline_->store(), &pipeline_->candidates());
  const ContrastiveData data =
      MineContrastiveData(pipeline_->world(), pipeline_->dataset(), base,
                          pipeline_->oracle(), MinerConfig{});
  for (size_t g = 0; g < data.groups.size(); ++g) {
    const ClassId query_class =
        pipeline_->dataset().ClassOf(pipeline_->dataset().queries[g])
            .fine_class;
    for (EntityId id : data.groups[g].other_class) {
      EXPECT_NE(pipeline_->world().corpus.entity(id).class_id, query_class);
    }
  }
}

TEST_F(ExpandTest, InteractionExpandersRun) {
  for (InteractionOrder order :
       {InteractionOrder::kRetThenGen, InteractionOrder::kGenThenRet}) {
    InteractionConfig config;
    config.recall_size = 120;
    auto method = pipeline_->MakeInteraction(order, config);
    const Query& query = pipeline_->dataset().queries.front();
    const auto ranking = method->Expand(query, 20);
    EXPECT_FALSE(ranking.empty());
    EXPECT_LE(ranking.size(), 20u);
    const std::vector<EntityId> seeds = SortedSeedsOf(query);
    for (EntityId id : ranking) {
      if (id == kHallucinatedEntityId) continue;
      EXPECT_FALSE(std::binary_search(seeds.begin(), seeds.end(), id));
    }
  }
}

TEST_F(ExpandTest, ContrastStoreDiffersFromBase) {
  const EntityStore& base = pipeline_->store();
  const EntityStore& tuned = pipeline_->contrast_store();
  const EntityId probe = pipeline_->candidates().front();
  const auto base_h = base.HiddenOf(probe);
  const auto tuned_h = tuned.HiddenOf(probe);
  EXPECT_FALSE(base_h.size() == tuned_h.size() &&
               std::equal(base_h.begin(), base_h.end(), tuned_h.begin()));
}

TEST_F(ExpandTest, CotPrefixedGenExpanDiffersFromBase) {
  auto base = pipeline_->MakeGenExpan();
  GenExpanConfig config;
  config.cot = CotMode::kGenClassNameGtPos;
  auto cot = pipeline_->MakeGenExpan(config);
  const Query& query = pipeline_->dataset().queries.front();
  // Different prompts should (almost always) change the ranking.
  EXPECT_NE(base->Expand(query, 40), cot->Expand(query, 40));
}

}  // namespace
}  // namespace ultrawiki
