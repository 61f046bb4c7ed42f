#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <random>
#include <unordered_map>

#include "lm/association.h"
#include "lm/beam_search.h"
#include "lm/hybrid_lm.h"
#include "lm/ngram_lm.h"
#include "lm/prefix_trie.h"

namespace ultrawiki {
namespace {

// -------------------------------------------------------------- NgramLm.

TEST(NgramLmTest, UnigramFloorSumsToOne) {
  NgramLm lm(4);
  lm.AddSentence(std::vector<TokenId>{0, 1, 2, 3});
  double sum = 0.0;
  for (TokenId t = 0; t < 4; ++t) {
    sum += lm.Probability({}, t);
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(NgramLmTest, ConditionalDistributionSumsToOne) {
  NgramLm lm(5);
  lm.AddSentence(std::vector<TokenId>{0, 1, 2});
  lm.AddSentence(std::vector<TokenId>{0, 1, 3});
  lm.AddSentence(std::vector<TokenId>{0, 4, 2});
  const std::vector<TokenId> context = {0, 1};
  double sum = 0.0;
  for (TokenId t = 0; t < 5; ++t) sum += lm.Probability(context, t);
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST(NgramLmTest, SeenContinuationOutweighsUnseen) {
  NgramLm lm(6);
  for (int i = 0; i < 10; ++i) {
    lm.AddSentence(std::vector<TokenId>{0, 1, 2});
  }
  const std::vector<TokenId> context = {0, 1};
  EXPECT_GT(lm.Probability(context, 2), lm.Probability(context, 3));
}

TEST(NgramLmTest, BacksOffToShorterContext) {
  NgramLm lm(6);
  lm.AddSentence(std::vector<TokenId>{1, 2});
  lm.AddSentence(std::vector<TokenId>{3, 1, 4});
  // Context {5, 1} unseen at order 2 with prefix 5; backs off to {1},
  // where 2 and 4 were both seen.
  const std::vector<TokenId> unseen_context = {5, 1};
  EXPECT_GT(lm.Probability(unseen_context, 2),
            lm.Probability(unseen_context, 0));
}

TEST(NgramLmTest, InvalidTokenHasZeroProbability) {
  NgramLm lm(3);
  lm.AddSentence(std::vector<TokenId>{0, 1});
  EXPECT_DOUBLE_EQ(lm.Probability({}, -1), 0.0);
  EXPECT_DOUBLE_EQ(lm.Probability({}, 99), 0.0);
}

TEST(NgramLmTest, SequenceLogProbabilityAccumulates) {
  NgramLm lm(4);
  lm.AddSentence(std::vector<TokenId>{0, 1, 2});
  const std::vector<TokenId> context = {0};
  const std::vector<TokenId> tokens = {1, 2};
  const std::vector<TokenId> c0 = {0};
  const std::vector<TokenId> c01 = {0, 1};
  const double expected =
      std::log(lm.Probability(c0, 1)) + std::log(lm.Probability(c01, 2));
  EXPECT_NEAR(lm.SequenceLogProbability(context, tokens), expected, 1e-9);
}

TEST(NgramLmTest, TracksTotalTokens) {
  NgramLm lm(5);
  lm.AddSentence(std::vector<TokenId>{0, 1, 2});
  lm.AddSentence(std::vector<TokenId>{3});
  EXPECT_EQ(lm.total_tokens(), 4);
}

// ----------------------------------------------------- AssociationModel.

TEST(AssociationTest, CooccurrenceRaisesProbability) {
  AssociationModel assoc(10);
  for (int i = 0; i < 5; ++i) {
    assoc.AddSentence(std::vector<TokenId>{1, 2, 3});
  }
  EXPECT_GT(assoc.Probability(1, 2), assoc.Probability(1, 7));
}

TEST(AssociationTest, UnseenContextReturnsUniformFloor) {
  AssociationModel assoc(10);
  assoc.AddSentence(std::vector<TokenId>{1, 2});
  EXPECT_DOUBLE_EQ(assoc.Probability(9, 2), 0.1);
}

TEST(AssociationTest, PairCountMatchesSentenceCombinatorics) {
  AssociationModel assoc(10);
  assoc.AddSentence(std::vector<TokenId>{1, 2, 3});  // 3*2 ordered pairs
  EXPECT_EQ(assoc.pair_count(), 6);
}

TEST(AssociationTest, TruncateKeepsStrongestTargets) {
  AssociationModel assoc(10);
  for (int i = 0; i < 9; ++i) assoc.AddSentence(std::vector<TokenId>{1, 2});
  assoc.AddSentence(std::vector<TokenId>{1, 3});
  assoc.TruncateRows(1);
  EXPECT_GT(assoc.Probability(1, 2), assoc.Probability(1, 3));
  // Token 3 fell out of the truncated row: it only keeps the floor mass.
  EXPECT_NEAR(assoc.Probability(1, 3), 0.05 * 0.1, 1e-9);
}

TEST(AssociationTest, TruncateZeroIsNoop) {
  AssociationModel assoc(10);
  assoc.AddSentence(std::vector<TokenId>{1, 2});
  const double before = assoc.Probability(1, 2);
  assoc.TruncateRows(0);
  EXPECT_DOUBLE_EQ(assoc.Probability(1, 2), before);
}

// ------------------------------------------------------------- HybridLm.

TEST(HybridLmTest, ZeroWeightEqualsNgram) {
  HybridLmConfig config;
  config.association_weight = 0.0;
  HybridLm hybrid(10, config);
  NgramLm ngram(10, config.ngram);
  const std::vector<TokenId> sentence = {0, 1, 2, 3};
  hybrid.AddSentence(sentence);
  ngram.AddSentence(sentence);
  const std::vector<TokenId> context = {0, 1};
  EXPECT_DOUBLE_EQ(hybrid.NextTokenProbability(context, 2),
                   ngram.Probability(context, 2));
}

TEST(HybridLmTest, AssociationChannelConditionsOnDistantTokens) {
  HybridLmConfig config;
  config.association_weight = 0.9;
  HybridLm lm(20, config);
  // Token 7 co-occurs with 11; token 8 co-occurs with 12.
  for (int i = 0; i < 20; ++i) {
    lm.AddSentence(std::vector<TokenId>{7, 5, 11});
    lm.AddSentence(std::vector<TokenId>{8, 5, 12});
  }
  lm.Finalize();
  // Distant conditioning token 7 vs 8 changes the next-token ranking
  // even though the local (last-token) context is identical.
  const std::vector<TokenId> ctx7 = {7, 5};
  const std::vector<TokenId> ctx8 = {8, 5};
  EXPECT_GT(lm.NextTokenProbability(ctx7, 11),
            lm.NextTokenProbability(ctx7, 12));
  EXPECT_GT(lm.NextTokenProbability(ctx8, 12),
            lm.NextTokenProbability(ctx8, 11));
}

TEST(HybridLmTest, StopTokensAreIgnoredAsEvidence) {
  HybridLmConfig config;
  config.association_weight = 1.0;
  HybridLm lm(20, config);
  // 3 votes for 4, 6 votes for 5; the shared glue token 0 keeps the local
  // n-gram context identical.
  for (int i = 0; i < 10; ++i) {
    lm.AddSentence(std::vector<TokenId>{3, 0, 4});
    lm.AddSentence(std::vector<TokenId>{6, 0, 5});
  }
  lm.Finalize();
  const std::vector<TokenId> context = {6, 3, 0};
  // Without stop tokens, 3 and 6 vote symmetrically: a tie.
  EXPECT_NEAR(lm.NextTokenProbability(context, 4),
              lm.NextTokenProbability(context, 5), 1e-9);
  // Marking 3 (and the glue 0) as stop tokens leaves only 6's vote.
  lm.SetStopTokens({3, 0});
  EXPECT_GT(lm.NextTokenProbability(context, 5),
            lm.NextTokenProbability(context, 4));
}

// ----------------------------------------------------------- PrefixTrie.

TEST(PrefixTrieTest, InsertAndWalk) {
  PrefixTrie trie;
  trie.Insert(std::vector<TokenId>{1, 2}, 100);
  trie.Insert(std::vector<TokenId>{1, 3}, 200);
  EXPECT_EQ(trie.entity_count(), 2u);
  const auto node12 = trie.Walk(std::vector<TokenId>{1, 2});
  ASSERT_GE(node12, 0);
  EXPECT_EQ(trie.TerminalOf(node12), 100);
  EXPECT_EQ(trie.Walk(std::vector<TokenId>{9}), -1);
}

TEST(PrefixTrieTest, SharedPrefixSharesNodes) {
  PrefixTrie trie;
  trie.Insert(std::vector<TokenId>{1, 2}, 100);
  trie.Insert(std::vector<TokenId>{1, 3}, 200);
  // Root + node(1) + node(1,2) + node(1,3) = 4 nodes.
  EXPECT_EQ(trie.node_count(), 4u);
  EXPECT_EQ(trie.ChildrenOf(PrefixTrie::kRoot).size(), 1u);
}

TEST(PrefixTrieTest, InternalTerminals) {
  PrefixTrie trie;
  trie.Insert(std::vector<TokenId>{1}, 10);
  trie.Insert(std::vector<TokenId>{1, 2}, 20);
  const auto node1 = trie.Walk(std::vector<TokenId>{1});
  EXPECT_EQ(trie.TerminalOf(node1), 10);
  const auto node12 = trie.Walk(std::vector<TokenId>{1, 2});
  EXPECT_EQ(trie.TerminalOf(node12), 20);
}

TEST(PrefixTrieTest, DuplicateInsertKeepsFirst) {
  PrefixTrie trie;
  trie.Insert(std::vector<TokenId>{1, 2}, 100);
  trie.Insert(std::vector<TokenId>{1, 2}, 999);
  EXPECT_EQ(trie.entity_count(), 1u);
  EXPECT_EQ(trie.TerminalOf(trie.Walk(std::vector<TokenId>{1, 2})), 100);
}

TEST(PrefixTrieTest, ChildrenSortedAndNodeIdsInInsertionOrder) {
  PrefixTrie trie;
  trie.Insert(std::vector<TokenId>{7, 1}, 10);  // nodes 1, 2
  trie.Insert(std::vector<TokenId>{3}, 20);     // node 3
  trie.Insert(std::vector<TokenId>{7, 0}, 30);  // node 4
  trie.Insert(std::vector<TokenId>{5, 9}, 40);  // nodes 5, 6
  const PrefixTrie::Children root = trie.ChildrenOf(PrefixTrie::kRoot);
  EXPECT_EQ(std::vector<TokenId>(root.tokens.begin(), root.tokens.end()),
            (std::vector<TokenId>{3, 5, 7}));
  EXPECT_EQ(
      std::vector<PrefixTrie::NodeId>(root.nodes.begin(), root.nodes.end()),
      (std::vector<PrefixTrie::NodeId>{3, 5, 1}));
  const PrefixTrie::Children after7 = trie.ChildrenOf(1);
  EXPECT_EQ(std::vector<TokenId>(after7.tokens.begin(), after7.tokens.end()),
            (std::vector<TokenId>{0, 1}));
  EXPECT_EQ(std::vector<PrefixTrie::NodeId>(after7.nodes.begin(),
                                            after7.nodes.end()),
            (std::vector<PrefixTrie::NodeId>{4, 2}));
  EXPECT_TRUE(trie.ChildrenOf(6).empty());
  EXPECT_EQ(trie.node_count(), 7u);

  EXPECT_EQ(trie.Walk(std::vector<TokenId>{7, 1}), 2);
  EXPECT_EQ(trie.Walk(std::vector<TokenId>{3}), 3);
  EXPECT_EQ(trie.Walk(std::vector<TokenId>{7, 0}), 4);
  EXPECT_EQ(trie.Walk(std::vector<TokenId>{5, 9}), 6);
  EXPECT_EQ(trie.TerminalOf(2), 10);
  EXPECT_EQ(trie.TerminalOf(3), 20);
  EXPECT_EQ(trie.TerminalOf(4), 30);
  EXPECT_EQ(trie.TerminalOf(6), 40);
  // A prefix is reached but completes nothing.
  EXPECT_EQ(trie.Walk(std::vector<TokenId>{7}), 1);
  EXPECT_EQ(trie.TerminalOf(1), kInvalidEntityId);
  // Misses below, between and above the stored tokens, and past a leaf.
  EXPECT_EQ(trie.Walk(std::vector<TokenId>{2}), -1);
  EXPECT_EQ(trie.Walk(std::vector<TokenId>{4}), -1);
  EXPECT_EQ(trie.Walk(std::vector<TokenId>{8}), -1);
  EXPECT_EQ(trie.Walk(std::vector<TokenId>{7, 2}), -1);
  EXPECT_EQ(trie.Walk(std::vector<TokenId>{5, 9, 1}), -1);
}

// ----------------------------------------------------------- BeamSearch.

class BeamSearchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lm_ = std::make_unique<HybridLm>(20, HybridLmConfig{});
    // Entity surface forms: {10 11}, {10 12}, {13}.
    // Context token 5 predicts 10 11; token 6 predicts 10 12.
    for (int i = 0; i < 30; ++i) {
      lm_->AddSentence(std::vector<TokenId>{5, 10, 11});
      lm_->AddSentence(std::vector<TokenId>{6, 10, 12});
      lm_->AddSentence(std::vector<TokenId>{7, 13});
    }
    lm_->Finalize();
    trie_.Insert(std::vector<TokenId>{10, 11}, 1);
    trie_.Insert(std::vector<TokenId>{10, 12}, 2);
    trie_.Insert(std::vector<TokenId>{13}, 3);
  }

  std::unique_ptr<HybridLm> lm_;
  PrefixTrie trie_;
};

TEST_F(BeamSearchTest, OnlyCandidateEntitiesGenerated) {
  const auto results = ConstrainedBeamSearch(
      *lm_, trie_, std::vector<TokenId>{5}, BeamSearchConfig{}).entities;
  ASSERT_FALSE(results.empty());
  for (const GeneratedEntity& g : results) {
    EXPECT_TRUE(g.entity == 1 || g.entity == 2 || g.entity == 3);
  }
}

TEST_F(BeamSearchTest, ContextSteersRanking) {
  const auto from5 = ConstrainedBeamSearch(
      *lm_, trie_, std::vector<TokenId>{5}, BeamSearchConfig{}).entities;
  ASSERT_FALSE(from5.empty());
  EXPECT_EQ(from5.front().entity, 1);
  const auto from6 = ConstrainedBeamSearch(
      *lm_, trie_, std::vector<TokenId>{6}, BeamSearchConfig{}).entities;
  EXPECT_EQ(from6.front().entity, 2);
}

TEST_F(BeamSearchTest, BeamWidthBoundsResults) {
  BeamSearchConfig config;
  config.beam_width = 2;
  const auto results =
      ConstrainedBeamSearch(*lm_, trie_, std::vector<TokenId>{5}, config)
          .entities;
  EXPECT_LE(results.size(), 2u);
}

TEST_F(BeamSearchTest, ScoresSortedDescending) {
  const auto results = ConstrainedBeamSearch(
      *lm_, trie_, std::vector<TokenId>{5}, BeamSearchConfig{}).entities;
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_GE(results[i - 1].score, results[i].score);
  }
}

TEST_F(BeamSearchTest, EmptyTrieYieldsNothing) {
  PrefixTrie empty;
  EXPECT_TRUE(ConstrainedBeamSearch(*lm_, empty, std::vector<TokenId>{5},
                                    BeamSearchConfig{})
                  .entities.empty());
}

TEST_F(BeamSearchTest, PromptLongerThanMaxNameLengthStillGenerates) {
  BeamSearchConfig config;
  config.max_name_length = 2;
  // A 12-token prompt dwarfs max_name_length; only the generated length
  // is budgeted, so generation proceeds normally.
  std::vector<TokenId> prompt(12, 5);
  const auto results =
      ConstrainedBeamSearch(*lm_, trie_, prompt, config).entities;
  ASSERT_FALSE(results.empty());
  for (const GeneratedEntity& g : results) {
    EXPECT_TRUE(g.entity == 1 || g.entity == 2 || g.entity == 3);
  }
}

TEST_F(BeamSearchTest, AllChildrenTerminalTrieCompletesAtDepthOne) {
  PrefixTrie flat;
  flat.Insert(std::vector<TokenId>{10}, 1);
  flat.Insert(std::vector<TokenId>{12}, 2);
  flat.Insert(std::vector<TokenId>{13}, 3);
  const BeamSearchResult result = ConstrainedBeamSearch(
      *lm_, flat, std::vector<TokenId>{5}, BeamSearchConfig{});
  EXPECT_FALSE(result.truncated);
  EXPECT_EQ(result.expansions, 3);
  ASSERT_EQ(result.entities.size(), 3u);
  for (const GeneratedEntity& g : result.entities) {
    EXPECT_TRUE(std::isfinite(g.score));
  }
}

TEST_F(BeamSearchTest, DeterministicTieBreakUnderEngineeredScoreTies) {
  // Tokens 1 and 2 are exactly symmetric in the LM, so the two partial
  // hypotheses {1} and {2} carry bit-identical log probs. With
  // beam_width = 1 the cut must fall deterministically: the tie breaks
  // by ascending trie node id, which insertion order fixes to the
  // {1, 5}-prefix (node 1 < node 3).
  HybridLm lm(20, HybridLmConfig{});
  for (int i = 0; i < 10; ++i) {
    lm.AddSentence(std::vector<TokenId>{7, 1, 5});
    lm.AddSentence(std::vector<TokenId>{7, 2, 5});
  }
  lm.Finalize();
  PrefixTrie trie;
  trie.Insert(std::vector<TokenId>{1, 5}, 100);
  trie.Insert(std::vector<TokenId>{2, 5}, 200);
  BeamSearchConfig config;
  config.beam_width = 1;
  const std::vector<TokenId> prompt = {7};
  const auto first = ConstrainedBeamSearch(lm, trie, prompt, config).entities;
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first.front().entity, 100);
  for (int run = 0; run < 5; ++run) {
    EXPECT_EQ(ConstrainedBeamSearch(lm, trie, prompt, config).entities,
              first);
  }
}

TEST_F(BeamSearchTest, PreExpiredDeadlineReturnsFlaggedBestSoFar) {
  BeamSearchConfig config;
  config.deadline = std::chrono::steady_clock::now() -
                    std::chrono::milliseconds(1);
  const BeamSearchResult result = ConstrainedBeamSearch(
      *lm_, trie_, std::vector<TokenId>{7}, config);
  EXPECT_TRUE(result.truncated);
  // The first chunk of the first hypothesis always runs, so the root's
  // terminal child {13} -> 3 is found even with an expired deadline.
  ASSERT_FALSE(result.entities.empty());
  EXPECT_EQ(result.entities.front().entity, 3);
}

TEST_F(BeamSearchTest, MaxExpansionsBudgetTruncates) {
  BeamSearchConfig config;
  config.max_expansions = 2;
  // Depth 0 scores the root's two children (10 and 13, completing {13});
  // depth 1 has no allowance left and truncates before reaching {10 11}.
  const BeamSearchResult result = ConstrainedBeamSearch(
      *lm_, trie_, std::vector<TokenId>{5}, config);
  EXPECT_TRUE(result.truncated);
  EXPECT_EQ(result.expansions, 2);
  ASSERT_EQ(result.entities.size(), 1u);
  EXPECT_EQ(result.entities.front().entity, 3);
}

TEST_F(BeamSearchTest, UnbudgetedSearchIsNeverTruncated) {
  const BeamSearchResult result = ConstrainedBeamSearch(
      *lm_, trie_, std::vector<TokenId>{5}, BeamSearchConfig{});
  EXPECT_FALSE(result.truncated);
  EXPECT_GT(result.expansions, 0);
}

// ------------------------------------- Incremental-scoring parity suite.
//
// The LmScoringState / ScoringContext fast paths must be bit-identical to
// the scalar rebuild-the-context-per-call evaluation they replaced; these
// references reimplement the old accumulation loops verbatim.

double RebuildReferenceSequenceLogProb(const NgramLm& lm,
                                       std::span<const TokenId> context,
                                       std::span<const TokenId> tokens) {
  std::vector<TokenId> full(context.begin(), context.end());
  double log_prob = 0.0;
  for (TokenId token : tokens) {
    log_prob += std::log(std::max(lm.Probability(full, token), 1e-12));
    full.push_back(token);
  }
  return log_prob;
}

double RebuildReferenceSequenceLogProb(const HybridLm& lm,
                                       std::span<const TokenId> context,
                                       std::span<const TokenId> tokens) {
  std::vector<TokenId> full(context.begin(), context.end());
  double log_prob = 0.0;
  for (TokenId token : tokens) {
    log_prob +=
        std::log(std::max(lm.NextTokenProbability(full, token), 1e-12));
    full.push_back(token);
  }
  return log_prob;
}

/// The scalar constrained beam search: full-context scalar scoring per
/// (hypothesis x child) pair, with the same deterministic tie-break the
/// production path uses (child iteration order cannot affect anything
/// else).
std::vector<GeneratedEntity> ScalarReferenceBeamSearch(
    const HybridLm& lm, const PrefixTrie& trie,
    std::span<const TokenId> prompt, const BeamSearchConfig& config) {
  struct Item {
    PrefixTrie::NodeId node = PrefixTrie::kRoot;
    std::vector<TokenId> generated;
    double log_prob = 0.0;
  };
  std::vector<Item> beam = {Item{}};
  std::unordered_map<EntityId, double> completed;
  std::vector<TokenId> context(prompt.begin(), prompt.end());
  const size_t prompt_len = context.size();
  for (int depth = 0; depth < config.max_name_length && !beam.empty();
       ++depth) {
    std::vector<Item> expanded;
    for (const Item& item : beam) {
      context.resize(prompt_len);
      context.insert(context.end(), item.generated.begin(),
                     item.generated.end());
      const PrefixTrie::Children children = trie.ChildrenOf(item.node);
      for (size_t c = 0; c < children.size(); ++c) {
        const TokenId token = children.tokens[c];
        const PrefixTrie::NodeId child = children.nodes[c];
        const double p = lm.NextTokenProbability(context, token);
        Item next{child, item.generated,
                  item.log_prob + std::log(std::max(p, 1e-12))};
        next.generated.push_back(token);
        const EntityId terminal = trie.TerminalOf(child);
        if (terminal != kInvalidEntityId) {
          const double score =
              config.length_normalize
                  ? next.log_prob /
                        static_cast<double>(next.generated.size())
                  : next.log_prob;
          const auto it = completed.find(terminal);
          if (it == completed.end() || score > it->second) {
            completed[terminal] = score;
          }
        }
        if (!trie.ChildrenOf(child).empty()) {
          expanded.push_back(std::move(next));
        }
      }
    }
    if (expanded.size() > static_cast<size_t>(config.beam_width)) {
      std::partial_sort(expanded.begin(),
                        expanded.begin() + config.beam_width,
                        expanded.end(), [](const Item& a, const Item& b) {
                          if (a.log_prob != b.log_prob) {
                            return a.log_prob > b.log_prob;
                          }
                          return a.node < b.node;
                        });
      expanded.resize(static_cast<size_t>(config.beam_width));
    }
    beam = std::move(expanded);
  }
  std::vector<GeneratedEntity> results;
  results.reserve(completed.size());
  for (const auto& [entity, score] : completed) {
    results.push_back(GeneratedEntity{entity, score});
  }
  std::sort(results.begin(), results.end(),
            [](const GeneratedEntity& a, const GeneratedEntity& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.entity < b.entity;
            });
  if (results.size() > static_cast<size_t>(config.beam_width)) {
    results.resize(static_cast<size_t>(config.beam_width));
  }
  return results;
}

struct RandomLmWorld {
  std::unique_ptr<HybridLm> lm;
  PrefixTrie trie;
  std::vector<TokenId> prompt;
};

RandomLmWorld MakeRandomLmWorld(uint64_t seed) {
  std::mt19937_64 rng(seed);
  constexpr size_t kVocab = 40;
  RandomLmWorld world;
  world.lm = std::make_unique<HybridLm>(kVocab, HybridLmConfig{});
  std::uniform_int_distribution<int> token_dist(0, kVocab - 1);
  std::uniform_int_distribution<int> sentence_len(2, 8);
  for (int s = 0; s < 80; ++s) {
    std::vector<TokenId> sentence;
    const int len = sentence_len(rng);
    for (int t = 0; t < len; ++t) {
      sentence.push_back(static_cast<TokenId>(token_dist(rng)));
    }
    world.lm->AddSentence(sentence);
  }
  world.lm->SetStopTokens({0, 1});
  world.lm->Finalize();
  std::uniform_int_distribution<int> name_len(1, 3);
  for (int e = 0; e < 14; ++e) {
    std::vector<TokenId> name;
    const int len = name_len(rng);
    for (int t = 0; t < len; ++t) {
      name.push_back(static_cast<TokenId>(token_dist(rng)));
    }
    world.trie.Insert(name, static_cast<EntityId>(e + 1));
  }
  std::uniform_int_distribution<int> prompt_len(0, 6);
  const int len = prompt_len(rng);
  for (int t = 0; t < len; ++t) {
    world.prompt.push_back(static_cast<TokenId>(token_dist(rng)));
  }
  return world;
}

TEST(IncrementalScoringTest, StateMatchesScalarNextTokenProbability) {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    const RandomLmWorld world = MakeRandomLmWorld(seed);
    LmPromptContext prompt_context =
        world.lm->MakePromptContext(world.prompt);
    LmScoringState state(*world.lm, prompt_context);
    std::vector<TokenId> full = world.prompt;
    std::mt19937_64 rng(seed ^ 0xBEEF);
    std::uniform_int_distribution<int> token_dist(0, 39);
    for (int step = 0; step < 6; ++step) {
      std::vector<TokenId> nexts;
      for (TokenId next = 0; next < 40; ++next) nexts.push_back(next);
      std::vector<double> batch(nexts.size());
      state.NextTokenProbabilityBatch(nexts, batch);
      for (TokenId next = 0; next < 40; ++next) {
        const double expected = world.lm->NextTokenProbability(full, next);
        // Exact equality on purpose: the incremental path must be
        // bit-identical, not merely close.
        EXPECT_EQ(state.NextTokenProbability(next), expected);
        EXPECT_EQ(batch[static_cast<size_t>(next)], expected);
      }
      const TokenId token = static_cast<TokenId>(token_dist(rng));
      state.Extend(token);
      full.push_back(token);
    }
  }
}

TEST(IncrementalScoringTest, NgramSequenceLogProbMatchesRebuildReference) {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    const RandomLmWorld world = MakeRandomLmWorld(seed);
    std::mt19937_64 rng(seed ^ 0xABCD);
    std::uniform_int_distribution<int> token_dist(0, 39);
    std::vector<TokenId> tokens;
    for (int t = 0; t < 7; ++t) {
      tokens.push_back(static_cast<TokenId>(token_dist(rng)));
    }
    EXPECT_EQ(world.lm->ngram().SequenceLogProbability(world.prompt, tokens),
              RebuildReferenceSequenceLogProb(world.lm->ngram(),
                                              world.prompt, tokens));
  }
}

TEST(IncrementalScoringTest, HybridSequenceLogProbMatchesRebuildReference) {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    const RandomLmWorld world = MakeRandomLmWorld(seed);
    std::mt19937_64 rng(seed ^ 0x1234);
    std::uniform_int_distribution<int> token_dist(0, 39);
    std::vector<TokenId> tokens;
    for (int t = 0; t < 7; ++t) {
      tokens.push_back(static_cast<TokenId>(token_dist(rng)));
    }
    EXPECT_EQ(world.lm->SequenceLogProbability(world.prompt, tokens),
              RebuildReferenceSequenceLogProb(*world.lm, world.prompt,
                                              tokens));
  }
}

TEST(BeamSearchParityTest, RandomizedBitIdenticalToScalarReference) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    const RandomLmWorld world = MakeRandomLmWorld(seed);
    BeamSearchConfig config;
    config.beam_width = 3;  // small beam forces pruning decisions
    const std::vector<GeneratedEntity> reference = ScalarReferenceBeamSearch(
        *world.lm, world.trie, world.prompt, config);
    const std::vector<GeneratedEntity> fast =
        ConstrainedBeamSearch(*world.lm, world.trie, world.prompt, config)
            .entities;
    ASSERT_EQ(fast.size(), reference.size()) << "seed " << seed;
    for (size_t i = 0; i < fast.size(); ++i) {
      EXPECT_EQ(fast[i].entity, reference[i].entity) << "seed " << seed;
      EXPECT_EQ(fast[i].score, reference[i].score) << "seed " << seed;
    }
    // A second search over the same prompt must agree: nothing carries
    // over from one search to the next.
    const BeamSearchResult again =
        ConstrainedBeamSearch(*world.lm, world.trie, world.prompt, config);
    EXPECT_FALSE(again.truncated);
    EXPECT_EQ(again.entities, fast) << "seed " << seed;
  }
}

}  // namespace
}  // namespace ultrawiki
