#include "expand/genexpan.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/logging.h"
#include "common/string_util.h"
#include "expand/rerank.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ultrawiki {

const char* CotModeName(CotMode mode) {
  switch (mode) {
    case CotMode::kNone:
      return "none";
    case CotMode::kGtClassName:
      return "GT CN";
    case CotMode::kGenClassName:
      return "Gen CN";
    case CotMode::kGenClassNameGenPos:
      return "Gen CN + Gen Pos";
    case CotMode::kGenClassNameGtPos:
      return "Gen CN + GT Pos";
    case CotMode::kGenClassNameGenPosGenNeg:
      return "Gen CN + Gen Pos + Gen Neg";
    case CotMode::kGenClassNameGtPosGtNeg:
      return "Gen CN + GT Pos + GT Neg";
  }
  return "unknown";
}

namespace {

/// The in-vocabulary tokens of `id`'s surface form.
std::vector<TokenId> NameTokens(const Corpus& corpus, EntityId id) {
  std::vector<TokenId> tokens;
  for (const std::string& word : corpus.entity(id).name_tokens) {
    const TokenId token = corpus.tokens().Lookup(word);
    if (token != kInvalidTokenId) tokens.push_back(token);
  }
  return tokens;
}

}  // namespace

PrefixTrie BuildNameTrie(const Corpus& corpus,
                         const std::vector<EntityId>& ids) {
  PrefixTrie trie;
  for (EntityId id : ids) {
    const std::vector<TokenId> name = NameTokens(corpus, id);
    if (name.empty()) {
      UW_LOG_EVERY_N(Warning, 100)
          << "entity " << id
          << " has no in-vocabulary name tokens; it cannot be generated";
      continue;
    }
    trie.Insert(name, id);
  }
  return trie;
}

namespace {

bool CotHasClassName(CotMode mode) { return mode != CotMode::kNone; }

bool CotClassNameIsGenerated(CotMode mode) {
  return mode != CotMode::kGtClassName && mode != CotMode::kNone;
}

bool CotHasPosAttrs(CotMode mode) {
  switch (mode) {
    case CotMode::kGenClassNameGenPos:
    case CotMode::kGenClassNameGtPos:
    case CotMode::kGenClassNameGenPosGenNeg:
    case CotMode::kGenClassNameGtPosGtNeg:
      return true;
    default:
      return false;
  }
}

bool CotPosAttrsAreGenerated(CotMode mode) {
  return mode == CotMode::kGenClassNameGenPos ||
         mode == CotMode::kGenClassNameGenPosGenNeg;
}

bool CotHasNegAttrs(CotMode mode) {
  return mode == CotMode::kGenClassNameGenPosGenNeg ||
         mode == CotMode::kGenClassNameGtPosGtNeg;
}

bool CotNegAttrsAreGenerated(CotMode mode) {
  return mode == CotMode::kGenClassNameGenPosGenNeg;
}

}  // namespace

uint64_t GenExpanQueryFingerprint(const Query& query) {
  uint64_t hash = 0x51ED2701B7A6C145ULL;
  auto mix = [&hash](uint64_t v) {
    hash ^= v + 0x9E3779B97F4A7C15ULL + (hash << 6) + (hash >> 2);
  };
  // Length tags delimit the two seed streams: without them
  // pos=[a,b],neg=[] and pos=[a],neg=[b] fold to the same value and the
  // two queries share an RNG stream.
  mix(static_cast<uint64_t>(query.pos_seeds.size()));
  for (EntityId id : query.pos_seeds) mix(static_cast<uint64_t>(id));
  mix(static_cast<uint64_t>(query.neg_seeds.size()));
  for (EntityId id : query.neg_seeds) mix(static_cast<uint64_t>(id));
  return hash;
}

namespace {

/// Normalized descending-rank positions in [0,1]: the best score gets 0.
/// Ties receive their fractional (mean) rank, so a large group of
/// indistinguishable scores — e.g. entities at the association floor —
/// shares one neutral value instead of being spread across the range.
std::vector<double> RankNormalize(const std::vector<double>& scores) {
  const size_t n = scores.size();
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&scores](size_t a, size_t b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return a < b;
  });
  std::vector<double> ranks(n, 0.0);
  const double denom = n > 1 ? static_cast<double>(n - 1) : 1.0;
  size_t pos = 0;
  while (pos < n) {
    size_t end = pos;
    while (end + 1 < n && scores[order[end + 1]] == scores[order[pos]]) {
      ++end;
    }
    const double mean_rank =
        (static_cast<double>(pos) + static_cast<double>(end)) / 2.0 / denom;
    for (size_t i = pos; i <= end; ++i) ranks[order[i]] = mean_rank;
    pos = end + 1;
  }
  return ranks;
}

}  // namespace

GenExpan::GenExpan(const GeneratedWorld* world, const HybridLm* lm,
                   const PrefixTrie* trie,
                   const LmEntitySimilarity* similarity,
                   const LlmOracle* oracle, GenExpanConfig config,
                   std::string name)
    : world_(world),
      lm_(lm),
      trie_(trie),
      similarity_(similarity),
      oracle_(oracle),
      config_(config),
      name_(std::move(name)) {
  UW_CHECK_NE(world, nullptr);
  UW_CHECK_NE(lm, nullptr);
  UW_CHECK_NE(trie, nullptr);
  UW_CHECK_NE(similarity, nullptr);
  UW_CHECK_NE(oracle, nullptr);
  comma_ = world_->corpus.tokens().Lookup(",");
  and_token_ = world_->corpus.tokens().Lookup("and");
  with_token_ = world_->corpus.tokens().Lookup("with");
}

std::vector<TokenId> GenExpan::NameTokensOf(EntityId id) const {
  return NameTokens(world_->corpus, id);
}

std::vector<TokenId> GenExpan::CotPrefix(const Query& query) const {
  std::vector<TokenId> prefix;
  if (!CotHasClassName(config_.cot)) return prefix;
  // Step 1: fine-grained class name (Prompt_c analogue).
  ClassId class_id;
  if (CotClassNameIsGenerated(config_.cot)) {
    class_id = oracle_->InferClassName(query.pos_seeds);
  } else {
    class_id = query.pos_seeds.empty()
                   ? kBackgroundClassId
                   : world_->corpus.entity(query.pos_seeds[0]).class_id;
  }
  if (class_id == kBackgroundClassId) return prefix;
  const FineClassSpec& spec =
      world_->schema[static_cast<size_t>(class_id)];
  for (const std::string& word : SplitString(spec.plural_noun, ' ')) {
    const TokenId token = world_->corpus.tokens().Lookup(word);
    if (token != kInvalidTokenId) prefix.push_back(token);
  }
  // Step 2: positive attributes shared by the seeds.
  if (CotHasPosAttrs(config_.cot)) {
    const std::vector<std::pair<int, int>> attrs =
        CotPosAttrsAreGenerated(config_.cot)
            ? oracle_->InferSharedAttributes(query.pos_seeds,
                                             /*negative_side=*/false)
            : oracle_->TrueSharedAttributes(query.pos_seeds);
    for (const auto& [attr, value] : attrs) {
      if (attr < 0 ||
          static_cast<size_t>(attr) >= spec.attributes.size()) {
        continue;
      }
      const AttributeDef& def = spec.attributes[static_cast<size_t>(attr)];
      if (value < 0 ||
          static_cast<size_t>(value) >= def.clue_tokens.size()) {
        continue;
      }
      if (with_token_ != kInvalidTokenId) prefix.push_back(with_token_);
      // Value-discriminative token only (see CotNegativeClues); repeated
      // so its vote is not drowned by the six seed-name tokens.
      const auto& phrase = def.clue_tokens[static_cast<size_t>(value)];
      if (!phrase.empty()) {
        const TokenId token = world_->corpus.tokens().Lookup(phrase.back());
        if (token != kInvalidTokenId) {
          prefix.push_back(token);
          prefix.push_back(token);
        }
      }
    }
  }
  return prefix;
}

std::vector<TokenId> GenExpan::CotNegativeClues(const Query& query) const {
  std::vector<TokenId> clues;
  if (!CotHasNegAttrs(config_.cot) || query.neg_seeds.empty()) return clues;
  const ClassId class_id =
      world_->corpus.entity(query.neg_seeds[0]).class_id;
  if (class_id == kBackgroundClassId) return clues;
  const FineClassSpec& spec =
      world_->schema[static_cast<size_t>(class_id)];
  const std::vector<std::pair<int, int>> attrs =
      CotNegAttrsAreGenerated(config_.cot)
          ? oracle_->InferSharedAttributes(query.neg_seeds,
                                           /*negative_side=*/true)
          : oracle_->TrueSharedAttributes(query.neg_seeds);
  for (const auto& [attr, value] : attrs) {
    if (attr < 0 || static_cast<size_t>(attr) >= spec.attributes.size()) {
      continue;
    }
    const AttributeDef& def = spec.attributes[static_cast<size_t>(attr)];
    if (value < 0 || static_cast<size_t>(value) >= def.clue_tokens.size()) {
      continue;
    }
    // Only the value-discriminative token: the attribute word is shared
    // across all values of the attribute and would dilute the match.
    const auto& phrase = def.clue_tokens[static_cast<size_t>(value)];
    if (!phrase.empty()) {
      const TokenId token = world_->corpus.tokens().Lookup(phrase.back());
      if (token != kInvalidTokenId) clues.push_back(token);
    }
  }
  return clues;
}

std::vector<TokenId> GenExpan::BuildPrompt(
    const std::vector<TokenId>& cot_prefix,
    const std::vector<EntityId>& prompt_seeds) const {
  std::vector<TokenId> prompt = cot_prefix;
  if (config_.retrieval_augmentation) {
    for (EntityId id : prompt_seeds) {
      switch (config_.ra_source) {
        case RaSource::kIntroduction: {
          const std::vector<TokenId>& intro = world_->kb.IntroductionOf(id);
          prompt.insert(prompt.end(), intro.begin(), intro.end());
          break;
        }
        case RaSource::kWikidataAttributes: {
          const std::vector<TokenId>& dump =
              world_->kb.WikidataAttributesOf(id);
          prompt.insert(prompt.end(), dump.begin(), dump.end());
          break;
        }
        case RaSource::kGroundTruthAttributes: {
          const Entity& entity = world_->corpus.entity(id);
          if (entity.class_id == kBackgroundClassId) break;
          const FineClassSpec& spec =
              world_->schema[static_cast<size_t>(entity.class_id)];
          for (size_t a = 0; a < spec.attributes.size(); ++a) {
            const auto& clue =
                spec.attributes[a].clue_tokens[static_cast<size_t>(
                    entity.attribute_values[a])];
            for (const std::string& word : clue) {
              const TokenId token = world_->corpus.tokens().Lookup(word);
              if (token != kInvalidTokenId) prompt.push_back(token);
            }
          }
          break;
        }
        case RaSource::kNone:
          break;
      }
    }
  }
  for (size_t i = 0; i < prompt_seeds.size(); ++i) {
    if (i > 0 && comma_ != kInvalidTokenId) prompt.push_back(comma_);
    const std::vector<TokenId> name = NameTokensOf(prompt_seeds[i]);
    prompt.insert(prompt.end(), name.begin(), name.end());
  }
  // Trailing "and" invites the next list element (Prompt_g's "and ___").
  if (and_token_ != kInvalidTokenId) prompt.push_back(and_token_);
  return prompt;
}

double GenExpan::ClueMatchScore(EntityId id,
                                const std::vector<TokenId>& clues) const {
  if (clues.empty()) return 0.0;
  const std::vector<TokenId> name = NameTokensOf(id);
  if (name.empty()) return 0.0;
  double sum = 0.0;
  for (TokenId n : name) {
    for (TokenId c : clues) {
      sum += lm_->association().Probability(n, c);
    }
  }
  return sum / static_cast<double>(name.size() * clues.size());
}

std::vector<EntityId> GenExpan::Expand(const Query& query, size_t k) {
  return ExpandWithBudget(query, k, ExpandBudget{}).ranking;
}

ExpandOutcome GenExpan::ExpandWithBudget(const Query& query, size_t k,
                                         const ExpandBudget& budget) {
  UW_SPAN("genexpan.expand");
  obs::GetCounter("genexpan.queries").Increment();
  Rng rng(config_.seed ^ GenExpanQueryFingerprint(query));
  const std::vector<EntityId> seeds = SortedSeedsOf(query);
  std::set<EntityId> seen(seeds.begin(), seeds.end());

  // Combine the per-request budget with the expander's standing one:
  // earliest deadline, smallest expansion cap.
  std::optional<std::chrono::steady_clock::time_point> deadline =
      budget.deadline;
  if (config_.time_budget_ms > 0) {
    const auto own = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(config_.time_budget_ms);
    if (!deadline.has_value() || own < *deadline) deadline = own;
  }
  int64_t max_expansions = std::max<int64_t>(budget.max_expansions, 0);
  if (config_.max_expansions > 0 &&
      (max_expansions == 0 || config_.max_expansions < max_expansions)) {
    max_expansions = config_.max_expansions;
  }

  // The CoT prefix is shared across rounds (the oracle is deterministic
  // per query, so one call covers every round).
  const std::vector<TokenId> cot_prefix = CotPrefix(query);

  struct Admitted {
    EntityId entity;
    int round;
    double score;
  };
  std::vector<Admitted> expansion;
  std::vector<EntityId> expansion_pool;  // valid entities for re-prompting
  int stale_rounds = 0;
  int64_t expansions_spent = 0;
  bool degraded = false;

  for (int round = 0; round < config_.max_rounds; ++round) {
    if (expansion.size() >= k) break;
    if (stale_rounds >= config_.stale_rounds_to_stop) break;
    // Round 0 always runs (the beam's first-chunk guarantee makes even a
    // pre-expired deadline productive); later rounds stop at the gate.
    if (round > 0 && deadline.has_value() &&
        std::chrono::steady_clock::now() >= *deadline) {
      degraded = true;
      break;
    }
    UW_SPAN("genexpan.round");

    // Prompt entities: round 0 takes 3 positive seeds; later rounds take
    // 2 positive seeds + 1 previously expanded entity (paper §5.2.1).
    std::vector<EntityId> prompt_seeds;
    if (round == 0 || expansion_pool.empty()) {
      prompt_seeds = rng.SampleWithoutReplacement(query.pos_seeds,
                                                  std::min<size_t>(
                                                      3, query.pos_seeds.size()));
    } else {
      prompt_seeds = rng.SampleWithoutReplacement(query.pos_seeds,
                                                  std::min<size_t>(
                                                      2, query.pos_seeds.size()));
      prompt_seeds.push_back(
          expansion_pool[rng.UniformUint64(expansion_pool.size())]);
    }
    const std::vector<TokenId> prompt = BuildPrompt(cot_prefix, prompt_seeds);

    obs::GetCounter("genexpan.rounds").Increment();
    BeamSearchConfig beam_config;
    beam_config.beam_width = config_.beam_width;
    beam_config.deadline = deadline;
    if (max_expansions > 0) {
      const int64_t remaining = max_expansions - expansions_spent;
      if (remaining <= 0) {
        degraded = true;
        break;
      }
      beam_config.max_expansions = remaining;
    }
    BeamSearchResult search =
        ConstrainedBeamSearch(*lm_, *trie_, prompt, beam_config);
    expansions_spent += search.expansions;
    if (search.truncated) degraded = true;
    std::vector<GeneratedEntity>& generated = search.entities;
    obs::GetCounter("genexpan.generated")
        .Increment(static_cast<int64_t>(generated.size()));

    // New entities only.
    std::vector<GeneratedEntity> fresh;
    for (const GeneratedEntity& g : generated) {
      if (!seen.contains(g.entity)) fresh.push_back(g);
    }
    if (search.truncated && fresh.empty()) break;
    if (fresh.empty()) {
      ++stale_rounds;
      continue;
    }
    stale_rounds = 0;

    // Entity selection: positive similarity score (Eq. 7), keep the top-p
    // fraction.
    std::vector<std::pair<double, EntityId>> scored;
    scored.reserve(fresh.size());
    for (const GeneratedEntity& g : fresh) {
      scored.emplace_back(
          similarity_->SeedScore(query.pos_seeds, g.entity), g.entity);
    }
    std::sort(scored.begin(), scored.end(),
              [](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first > b.first;
                return a.second < b.second;
              });
    const size_t keep = std::max<size_t>(
        1, static_cast<size_t>(config_.top_p_fraction *
                               static_cast<double>(scored.size())));
    for (size_t i = 0; i < keep; ++i) {
      const EntityId id = scored[i].second;
      seen.insert(id);
      // "- Prefix constrain" ablation: a fraction of generation slots is
      // spent on decoded strings outside the candidate vocabulary; they
      // enter the ranked list as hallucinations.
      if (!config_.use_prefix_constraint &&
          rng.Bernoulli(config_.unconstrained_invalid_rate)) {
        obs::GetCounter("genexpan.hallucinations").Increment();
        expansion.push_back(
            Admitted{kHallucinatedEntityId, round, scored[i].first});
        continue;
      }
      obs::GetCounter("genexpan.admitted").Increment();
      expansion.push_back(Admitted{id, round, scored[i].first});
      expansion_pool.push_back(id);
    }
    // A truncated round still admits what it found (best-effort above),
    // but further rounds would only dig the deadline deeper.
    if (search.truncated) break;
  }

  // Final ordering: positive similarity score (Eq. 7) across all rounds,
  // with round as the tie-break (earlier admissions are more trusted).
  std::stable_sort(expansion.begin(), expansion.end(),
                   [](const Admitted& a, const Admitted& b) {
                     if (a.score != b.score) return a.score > b.score;
                     return a.round < b.round;
                   });
  std::vector<EntityId> list;
  list.reserve(expansion.size());
  for (const Admitted& a : expansion) list.push_back(a.entity);

  // Entity re-ranking against the negative seeds (plus CoT negative
  // clues when available), scale-free via rank fusion.
  if (config_.use_negative_rerank && !query.neg_seeds.empty() &&
      !list.empty()) {
    UW_SPAN("genexpan.rerank");
    const std::vector<TokenId> neg_clues = CotNegativeClues(query);
    std::vector<double> seed_scores;
    std::vector<double> clue_scores;
    seed_scores.reserve(list.size());
    clue_scores.reserve(list.size());
    for (EntityId id : list) {
      if (id == kHallucinatedEntityId) {
        // Unknown surface form: neutral negative evidence.
        seed_scores.push_back(0.0);
        clue_scores.push_back(0.0);
        continue;
      }
      // Contrastive key (see RetExpan): margin of negative-seed over
      // positive-seed similarity, so entities that merely belong to the
      // same fine-grained class are not penalized.
      seed_scores.push_back(similarity_->SeedScore(query.neg_seeds, id) -
                            similarity_->SeedScore(query.pos_seeds, id));
      clue_scores.push_back(ClueMatchScore(id, neg_clues));
    }
    const std::vector<double> seed_ranks = RankNormalize(seed_scores);
    std::vector<double> neg_like(list.size());
    if (neg_clues.empty()) {
      neg_like = seed_ranks;
    } else {
      const std::vector<double> clue_ranks = RankNormalize(clue_scores);
      for (size_t i = 0; i < list.size(); ++i) {
        neg_like[i] = 0.65 * seed_ranks[i] + 0.35 * clue_ranks[i];
      }
    }
    // neg_like is a descending-rank position: 0 = strongest negative
    // evidence. Re-rank each segment ascending by (1 - neg_like), so the
    // most negative-like entities land at the segment's end.
    std::vector<double> keys(list.size());
    for (size_t i = 0; i < list.size(); ++i) keys[i] = 1.0 - neg_like[i];
    list = SegmentedRerankByPosition(list, keys,
                                     config_.rerank_segment_length);
  }
  if (list.size() > k) list.resize(k);
  if (degraded) obs::GetCounter("genexpan.truncated").Increment();
  return ExpandOutcome{std::move(list), degraded};
}

}  // namespace ultrawiki
