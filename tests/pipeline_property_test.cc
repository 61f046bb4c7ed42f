// Second property-test round: invariants that hold across a full tiny
// pipeline for every method and every query — the "no method may ever
// violate these" layer above the per-module unit tests.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <type_traits>

#include "eval/evaluator.h"
#include "eval/significance.h"
#include "expand/pipeline.h"
#include "lm/beam_search.h"

namespace ultrawiki {
namespace {

// Substrates such as the LM similarity point into the pipeline's own
// world, so moving a built Pipeline would leave them dangling.
static_assert(!std::is_move_constructible_v<Pipeline>);

class PipelinePropertyTest : public ::testing::Test {
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

Pipeline* PipelinePropertyTest::pipeline_ = nullptr;

TEST_F(PipelinePropertyTest, EveryMethodSatisfiesTheExpanderContract) {
  std::vector<std::unique_ptr<Expander>> methods;
  methods.push_back(pipeline_->MakeSetExpan());
  methods.push_back(pipeline_->MakeCaSE());
  methods.push_back(pipeline_->MakeCgExpan());
  methods.push_back(pipeline_->MakeProbExpan());
  methods.push_back(pipeline_->MakeGpt4Baseline());
  methods.push_back(pipeline_->MakeRetExpan());
  methods.push_back(pipeline_->MakeGenExpan());
  methods.push_back(
      pipeline_->MakeInteraction(InteractionOrder::kRetThenGen));
  methods.push_back(
      pipeline_->MakeInteraction(InteractionOrder::kGenThenRet));

  const std::set<EntityId> candidates(pipeline_->candidates().begin(),
                                      pipeline_->candidates().end());
  for (auto& method : methods) {
    for (size_t q = 0; q < 3 && q < pipeline_->dataset().queries.size();
         ++q) {
      const Query& query = pipeline_->dataset().queries[q];
      const std::vector<EntityId> seeds = SortedSeedsOf(query);
      for (size_t k : {size_t{1}, size_t{10}, size_t{60}}) {
        const auto ranking = method->Expand(query, k);
        EXPECT_LE(ranking.size(), k) << method->name();
        std::set<EntityId> unique;
        for (EntityId id : ranking) {
          if (id == kHallucinatedEntityId) continue;
          EXPECT_TRUE(candidates.contains(id)) << method->name();
          EXPECT_FALSE(std::binary_search(seeds.begin(), seeds.end(), id))
              << method->name();
          EXPECT_TRUE(unique.insert(id).second)
              << method->name() << " duplicated entity " << id;
        }
      }
    }
  }
}

TEST_F(PipelinePropertyTest, ExpandPrefixMonotonicity) {
  // Asking for a smaller k must yield a prefix of the larger ranking
  // (deterministic methods only; the generative loop is k-dependent by
  // design, so it is exercised separately above).
  std::vector<std::unique_ptr<Expander>> methods;
  methods.push_back(pipeline_->MakeRetExpan());
  methods.push_back(pipeline_->MakeProbExpan());
  methods.push_back(pipeline_->MakeCaSE());
  for (auto& method : methods) {
    const Query& query = pipeline_->dataset().queries.front();
    const auto big = method->Expand(query, 50);
    const auto small = method->Expand(query, 10);
    ASSERT_LE(small.size(), big.size()) << method->name();
    for (size_t i = 0; i < small.size(); ++i) {
      EXPECT_EQ(small[i], big[i]) << method->name() << " at " << i;
    }
  }
}

TEST_F(PipelinePropertyTest, BeamSearchResultsAreAlwaysTrieTerminals) {
  Rng rng(3);
  const auto& queries = pipeline_->dataset().queries;
  for (int probe = 0; probe < 10; ++probe) {
    const Query& query = queries[rng.UniformUint64(queries.size())];
    std::vector<TokenId> prompt;
    for (EntityId id : query.pos_seeds) {
      for (const std::string& word :
           pipeline_->world().corpus.entity(id).name_tokens) {
        const TokenId token =
            pipeline_->world().corpus.tokens().Lookup(word);
        if (token != kInvalidTokenId) prompt.push_back(token);
      }
    }
    const auto generated = ConstrainedBeamSearch(
        pipeline_->lm(), pipeline_->trie(), prompt, BeamSearchConfig{});
    const std::set<EntityId> candidates(pipeline_->candidates().begin(),
                                        pipeline_->candidates().end());
    for (const GeneratedEntity& g : generated) {
      EXPECT_TRUE(candidates.contains(g.entity));
      EXPECT_LE(g.score, 0.0) << "log-prob scores are non-positive";
    }
  }
}

TEST_F(PipelinePropertyTest, EvaluationScoresWithinBounds) {
  auto method = pipeline_->MakeRetExpan();
  const EvalResult result =
      EvaluateExpander(*method, pipeline_->dataset());
  for (int k : {10, 20, 50, 100}) {
    for (double v : {result.pos_map.at(k), result.neg_map.at(k),
                     result.pos_p.at(k), result.neg_p.at(k)}) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 100.0);
    }
    EXPECT_GE(result.CombMap(k), 0.0);
    EXPECT_LE(result.CombMap(k), 100.0);
  }
}

TEST_F(PipelinePropertyTest, PerQueryScoresMatchAggregate) {
  auto method = pipeline_->MakeRetExpan();
  const std::vector<double> per_query =
      PerQueryCombMap(*method, pipeline_->dataset(), 100);
  ASSERT_EQ(per_query.size(), pipeline_->dataset().queries.size());
  double mean = 0.0;
  for (double v : per_query) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 100.0);
    mean += v;
  }
  mean /= static_cast<double>(per_query.size());
  const EvalResult aggregate =
      EvaluateExpander(*method, pipeline_->dataset());
  EXPECT_NEAR(mean, aggregate.CombMap(100), 1e-6);
}

TEST_F(PipelinePropertyTest, MinedDataIsDeterministic) {
  RetExpan base(&pipeline_->store(), &pipeline_->candidates());
  const ContrastiveData a = MineContrastiveData(
      pipeline_->world(), pipeline_->dataset(), base, pipeline_->oracle(),
      MinerConfig{});
  const ContrastiveData b = MineContrastiveData(
      pipeline_->world(), pipeline_->dataset(), base, pipeline_->oracle(),
      MinerConfig{});
  ASSERT_EQ(a.groups.size(), b.groups.size());
  for (size_t g = 0; g < a.groups.size(); ++g) {
    EXPECT_EQ(a.groups[g].l_pos, b.groups[g].l_pos);
    EXPECT_EQ(a.groups[g].l_neg, b.groups[g].l_neg);
    EXPECT_EQ(a.groups[g].conditioning, b.groups[g].conditioning);
  }
}

TEST_F(PipelinePropertyTest, OracleJudgmentsAreOrderIndependent) {
  // Deterministic per-call randomness: interleaving calls in any order
  // must not change any individual judgment.
  const Query& q0 = pipeline_->dataset().queries[0];
  const Query& q1 = pipeline_->dataset().queries[1];
  const EntityId c0 = pipeline_->candidates()[5];
  const EntityId c1 = pipeline_->candidates()[7];
  const bool a1 = pipeline_->oracle().JudgeConsistent(q0.pos_seeds, c0);
  const bool b1 = pipeline_->oracle().JudgeConsistent(q1.pos_seeds, c1);
  // Reversed order.
  const bool b2 = pipeline_->oracle().JudgeConsistent(q1.pos_seeds, c1);
  const bool a2 = pipeline_->oracle().JudgeConsistent(q0.pos_seeds, c0);
  EXPECT_EQ(a1, a2);
  EXPECT_EQ(b1, b2);
}

}  // namespace
}  // namespace ultrawiki
