// Property-based tests: parameterized sweeps over randomized inputs that
// check structural invariants of the core algorithms (metrics, re-ranking,
// sampling, tries, n-gram models) rather than single hand-picked cases.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "eval/metrics.h"
#include "expand/rerank.h"
#include "lm/ngram_lm.h"
#include "lm/prefix_trie.h"
#include "math/sampling.h"
#include "math/topk.h"

namespace ultrawiki {
namespace {

// --------------------------------------------------- Metric invariants.

class MetricPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MetricPropertyTest, ApAndPrecisionWithinUnitInterval) {
  Rng rng(GetParam());
  std::vector<EntityId> ranking;
  TargetSet targets;
  const int n = rng.UniformInt(1, 60);
  for (int i = 0; i < n; ++i) {
    ranking.push_back(static_cast<EntityId>(rng.UniformUint64(100)));
    if (rng.Bernoulli(0.3)) {
      targets.insert(static_cast<EntityId>(rng.UniformUint64(100)));
    }
  }
  if (targets.empty()) targets.insert(0);
  for (int k : {1, 5, 20, 100}) {
    const double ap = AveragePrecisionAtK(ranking, targets, k);
    const double p = PrecisionAtK(ranking, targets, k);
    EXPECT_GE(ap, 0.0);
    EXPECT_LE(ap, 1.0);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST_P(MetricPropertyTest, MovingARelevantItemUpNeverLowersAp) {
  Rng rng(GetParam());
  std::vector<EntityId> ranking;
  for (int i = 0; i < 30; ++i) ranking.push_back(i);
  TargetSet targets;
  while (targets.size() < 5) {
    targets.insert(static_cast<EntityId>(rng.UniformUint64(30)));
  }
  // Pick a relevant item not already at the front and swap it one step up
  // with an irrelevant predecessor.
  for (size_t i = 1; i < ranking.size(); ++i) {
    if (targets.contains(ranking[i]) && !targets.contains(ranking[i - 1])) {
      const double before = AveragePrecisionAtK(ranking, targets, 30);
      std::swap(ranking[i], ranking[i - 1]);
      const double after = AveragePrecisionAtK(ranking, targets, 30);
      EXPECT_GE(after, before);
      break;
    }
  }
}

TEST_P(MetricPropertyTest, CombMonotoneInComponents) {
  Rng rng(GetParam());
  const double pos = rng.UniformDouble() * 100.0;
  const double neg = rng.UniformDouble() * 100.0;
  EXPECT_GE(CombineMetric(pos + 1.0, neg), CombineMetric(pos, neg));
  EXPECT_LE(CombineMetric(pos, neg + 1.0), CombineMetric(pos, neg));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

// ------------------------------------------------- Re-ranking invariants.

class RerankPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {};

TEST_P(RerankPropertyTest, PermutationWithSegmentLocality) {
  const auto [seed, segment] = GetParam();
  Rng rng(seed);
  std::vector<EntityId> initial;
  std::vector<double> scores;
  const int n = rng.UniformInt(1, 80);
  for (int i = 0; i < n; ++i) {
    initial.push_back(static_cast<EntityId>(i));
    scores.push_back(rng.UniformDouble());
  }
  const auto out = SegmentedRerankByPosition(initial, scores, segment);
  // Permutation.
  ASSERT_EQ(out.size(), initial.size());
  std::set<EntityId> in_set(initial.begin(), initial.end());
  std::set<EntityId> out_set(out.begin(), out.end());
  EXPECT_EQ(in_set, out_set);
  // Locality: every entity stays inside its original segment.
  for (size_t i = 0; i < out.size(); ++i) {
    const size_t original_pos = static_cast<size_t>(out[i]);
    EXPECT_EQ(original_pos / static_cast<size_t>(segment),
              i / static_cast<size_t>(segment));
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndSegments, RerankPropertyTest,
    ::testing::Combine(::testing::Values(7, 11, 13, 17),
                       ::testing::Values(1, 3, 10, 64)));

// ----------------------------------------------------- TopK invariants.

class TopKPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TopKPropertyTest, MatchesFullSortPrefix) {
  Rng rng(GetParam());
  std::vector<float> scores;
  const int n = rng.UniformInt(1, 200);
  for (int i = 0; i < n; ++i) {
    scores.push_back(rng.UniformFloat(-1.0f, 1.0f));
  }
  const size_t k = 1 + rng.UniformUint64(static_cast<uint64_t>(n));
  const auto top = TopK(scores, k);
  const auto full = TopK(scores, scores.size());
  ASSERT_EQ(top.size(), std::min(k, scores.size()));
  for (size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(top[i], full[i]);
  }
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].score, top[i].score);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopKPropertyTest,
                         ::testing::Values(3, 9, 27, 81, 243));

// ------------------------------------------------ AliasTable invariants.

class AliasPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(AliasPropertyTest, EmpiricalMatchesNormalizedWeights) {
  const int size = GetParam();
  Rng rng(static_cast<uint64_t>(size) * 977);
  std::vector<double> weights;
  double total = 0.0;
  for (int i = 0; i < size; ++i) {
    weights.push_back(rng.UniformDouble() + 0.01);
    total += weights.back();
  }
  AliasTable table(weights);
  std::vector<int> counts(static_cast<size_t>(size), 0);
  constexpr int kSamples = 40000;
  for (int s = 0; s < kSamples; ++s) ++counts[table.Sample(rng)];
  for (int i = 0; i < size; ++i) {
    const double expected = weights[static_cast<size_t>(i)] / total;
    EXPECT_NEAR(counts[static_cast<size_t>(i)] /
                    static_cast<double>(kSamples),
                expected, 0.03);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, AliasPropertyTest,
                         ::testing::Values(1, 2, 5, 17, 64));

// ------------------------------------------------ PrefixTrie invariants.

class TriePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TriePropertyTest, InsertWalkRoundTrip) {
  Rng rng(GetParam());
  PrefixTrie trie;
  std::map<std::vector<TokenId>, EntityId> truth;
  for (int i = 0; i < 200; ++i) {
    std::vector<TokenId> name;
    const int len = rng.UniformInt(1, 4);
    for (int t = 0; t < len; ++t) {
      name.push_back(static_cast<TokenId>(rng.UniformUint64(12)));
    }
    if (truth.emplace(name, i).second) {
      trie.Insert(name, static_cast<EntityId>(i));
    }
  }
  EXPECT_EQ(trie.entity_count(), truth.size());
  for (const auto& [name, id] : truth) {
    const auto node = trie.Walk(name);
    ASSERT_GE(node, 0);
    EXPECT_EQ(trie.TerminalOf(node), id);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TriePropertyTest,
                         ::testing::Values(101, 202, 303, 404));

// --------------------------------------------------- NgramLm invariants.

class NgramPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {};

TEST_P(NgramPropertyTest, DistributionsSumToOneForRandomContexts) {
  const auto [seed, order] = GetParam();
  Rng rng(seed);
  constexpr size_t kVocab = 15;
  NgramLmConfig config;
  config.order = order;
  NgramLm lm(kVocab, config);
  for (int s = 0; s < 50; ++s) {
    std::vector<TokenId> sentence;
    const int len = rng.UniformInt(1, 12);
    for (int t = 0; t < len; ++t) {
      sentence.push_back(static_cast<TokenId>(rng.UniformUint64(kVocab)));
    }
    lm.AddSentence(sentence);
  }
  lm.Freeze();
  for (int probe = 0; probe < 10; ++probe) {
    std::vector<TokenId> context;
    const int len = rng.UniformInt(0, 6);
    for (int t = 0; t < len; ++t) {
      context.push_back(static_cast<TokenId>(rng.UniformUint64(kVocab)));
    }
    double sum = 0.0;
    for (TokenId t = 0; t < static_cast<TokenId>(kVocab); ++t) {
      const double p = lm.Probability(context, t);
      EXPECT_GE(p, 0.0);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndOrders, NgramPropertyTest,
    ::testing::Combine(::testing::Values(31, 37, 41),
                       ::testing::Values(1, 2, 3, 5)));

}  // namespace
}  // namespace ultrawiki
