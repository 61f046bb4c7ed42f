#include "lm/beam_search.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ultrawiki {
namespace {

/// Deadline polls are amortized over this many expansions so the hot loop
/// does not hit the clock per child.
constexpr size_t kBudgetCheckStride = 1024;

struct BeamItem {
  PrefixTrie::NodeId node = PrefixTrie::kRoot;
  std::vector<TokenId> generated;
  double log_prob = 0.0;
  LmScoringState state;
};

/// A proposed extension of beam[parent] by one trie child. Cheap to sort
/// and prune; the expensive state/token copies happen only for the at
/// most beam_width survivors.
struct Candidate {
  size_t parent = 0;
  TokenId token = -1;
  PrefixTrie::NodeId node = PrefixTrie::kRoot;
  double log_prob = 0.0;
};

}  // namespace

BeamSearchResult ConstrainedBeamSearch(const HybridLm& lm,
                                       const PrefixTrie& trie,
                                       std::span<const TokenId> prompt,
                                       const BeamSearchConfig& config) {
  UW_CHECK_GT(config.beam_width, 0);
  UW_SPAN("beam_search");
  const LmPromptContext prompt_context = lm.MakePromptContext(prompt);

  std::vector<BeamItem> beam;
  beam.push_back(BeamItem{PrefixTrie::kRoot, {}, 0.0,
                          LmScoringState(lm, prompt_context)});
  std::unordered_map<EntityId, double> completed;
  // Flushed once per search; the expansion loop stays atomic-free.
  int64_t expansions = 0;
  int64_t prunes = 0;
  bool truncated = false;
  // Budget polls are suppressed until the first chunk of the first
  // hypothesis has been scored, so a pre-expired deadline still returns
  // the root's terminal children deterministically.
  bool polls_enabled = false;

  std::vector<double> probs;
  std::vector<Candidate> candidates;

  for (int depth = 0; depth < config.max_name_length && !beam.empty();
       ++depth) {
    candidates.clear();
    for (size_t parent = 0; parent < beam.size() && !truncated; ++parent) {
      const BeamItem& item = beam[parent];
      const PrefixTrie::Children children = trie.ChildrenOf(item.node);
      const size_t generated_len = item.generated.size() + 1;
      size_t offset = 0;
      while (offset < children.size()) {
        if (polls_enabled && config.deadline.has_value() &&
            std::chrono::steady_clock::now() >= *config.deadline) {
          truncated = true;
          break;
        }
        size_t n = std::min(kBudgetCheckStride, children.size() - offset);
        if (config.max_expansions > 0) {
          const int64_t allowance = config.max_expansions - expansions;
          if (allowance <= 0) {
            truncated = true;
            break;
          }
          n = std::min(n, static_cast<size_t>(allowance));
        }
        probs.resize(n);
        item.state.NextTokenProbabilityBatch(
            children.tokens.subspan(offset, n), probs);
        expansions += static_cast<int64_t>(n);
        for (size_t i = 0; i < n; ++i) {
          const PrefixTrie::NodeId child = children.nodes[offset + i];
          const double log_prob =
              item.log_prob + std::log(std::max(probs[i], 1e-12));
          const EntityId terminal = trie.TerminalOf(child);
          if (terminal != kInvalidEntityId) {
            const double score =
                config.length_normalize
                    ? log_prob / static_cast<double>(generated_len)
                    : log_prob;
            const auto cit = completed.find(terminal);
            if (cit == completed.end() || score > cit->second) {
              completed[terminal] = score;
            }
          }
          if (!trie.ChildrenOf(child).empty()) {
            candidates.push_back(Candidate{
                parent, children.tokens[offset + i], child, log_prob});
          }
        }
        offset += n;
        polls_enabled = true;
      }
    }
    if (truncated) break;

    // Keep the top beam_width partial hypotheses (by raw log prob;
    // hypotheses at the same depth have equal length). The candidate's
    // trie node is unique (the trie is a tree), so (log_prob desc, node
    // asc) is a total order and the beam cut is deterministic even under
    // exact score ties.
    if (candidates.size() > static_cast<size_t>(config.beam_width)) {
      prunes += static_cast<int64_t>(candidates.size()) - config.beam_width;
      std::partial_sort(candidates.begin(),
                        candidates.begin() + config.beam_width,
                        candidates.end(),
                        [](const Candidate& a, const Candidate& b) {
                          if (a.log_prob != b.log_prob) {
                            return a.log_prob > b.log_prob;
                          }
                          return a.node < b.node;
                        });
      candidates.resize(static_cast<size_t>(config.beam_width));
    }

    std::vector<BeamItem> next_beam;
    next_beam.reserve(candidates.size());
    for (const Candidate& candidate : candidates) {
      const BeamItem& parent = beam[candidate.parent];
      BeamItem item{candidate.node, parent.generated, candidate.log_prob,
                    parent.state};
      item.generated.push_back(candidate.token);
      item.state.Extend(candidate.token);
      next_beam.push_back(std::move(item));
    }
    beam = std::move(next_beam);
  }

  obs::GetCounter("beam.expansions").Increment(expansions);
  obs::GetCounter("beam.prunes").Increment(prunes);
  obs::GetCounter("beam.completed_entities")
      .Increment(static_cast<int64_t>(completed.size()));
  if (truncated) obs::GetCounter("beam.truncated").Increment(1);

  BeamSearchResult result;
  result.truncated = truncated;
  result.expansions = expansions;
  result.entities.reserve(completed.size());
  for (const auto& [entity, score] : completed) {
    result.entities.push_back(GeneratedEntity{entity, score});
  }
  std::sort(result.entities.begin(), result.entities.end(),
            [](const GeneratedEntity& a, const GeneratedEntity& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.entity < b.entity;
            });
  if (result.entities.size() > static_cast<size_t>(config.beam_width)) {
    result.entities.resize(static_cast<size_t>(config.beam_width));
  }
  return result;
}

}  // namespace ultrawiki
