#include "dataset/dataset.h"

#include <algorithm>
#include <array>
#include <map>
#include <set>

#include "common/logging.h"
#include "index/bm25.h"
#include "io/artifact_cache.h"
#include "io/snapshot.h"
#include "obs/trace.h"

namespace ultrawiki {
namespace {

/// Paper Table 11: ultra-fine-grained class counts per fine-grained class.
constexpr std::array<int, 10> kPaperUltraCounts = {10, 50, 68, 74, 12,
                                                   7,  10, 11, 5,  14};

/// A candidate ultra-class before threshold filtering.
struct CandidateClass {
  std::vector<int> pos_attrs;
  std::vector<int> pos_values;
  std::vector<int> neg_attrs;
  std::vector<int> neg_values;
};

/// True when `entity_values[attrs[i]] == values[i]` for all i.
bool MatchesAll(const std::vector<int>& entity_values,
                const std::vector<int>& attrs,
                const std::vector<int>& values) {
  for (size_t i = 0; i < attrs.size(); ++i) {
    const size_t a = static_cast<size_t>(attrs[i]);
    if (a >= entity_values.size()) return false;
    if (entity_values[a] != values[i]) return false;
  }
  return true;
}

/// Enumerates all value assignments for the attribute subset `attrs`.
void EnumerateValueAssignments(const FineClassSpec& spec,
                               const std::vector<int>& attrs,
                               std::vector<std::vector<int>>* out) {
  std::vector<int> current(attrs.size(), 0);
  while (true) {
    out->push_back(current);
    size_t pos = 0;
    while (pos < attrs.size()) {
      const size_t limit =
          spec.attributes[static_cast<size_t>(attrs[pos])].values.size();
      if (static_cast<size_t>(++current[pos]) < limit) break;
      current[pos] = 0;
      ++pos;
    }
    if (pos == attrs.size()) break;
  }
}

/// Enumerates attribute subsets of the given size.
std::vector<std::vector<int>> AttributeSubsets(int attr_count, int size) {
  std::vector<std::vector<int>> subsets;
  std::vector<int> indices(static_cast<size_t>(size));
  // Simple iterative combination enumeration.
  for (int i = 0; i < size; ++i) indices[static_cast<size_t>(i)] = i;
  if (size > attr_count) return subsets;
  while (true) {
    subsets.push_back(indices);
    int pos = size - 1;
    while (pos >= 0 &&
           indices[static_cast<size_t>(pos)] == attr_count - size + pos) {
      --pos;
    }
    if (pos < 0) break;
    ++indices[static_cast<size_t>(pos)];
    for (int i = pos + 1; i < size; ++i) {
      indices[static_cast<size_t>(i)] =
          indices[static_cast<size_t>(i - 1)] + 1;
    }
  }
  return subsets;
}

/// Builds all candidate (A^pos=V^pos, A^neg=V^neg) combinations of the
/// given sizes for one class.
std::vector<CandidateClass> EnumerateCandidates(const FineClassSpec& spec,
                                                int pos_size, int neg_size) {
  std::vector<CandidateClass> out;
  const int attr_count = static_cast<int>(spec.attributes.size());
  for (const auto& pos_attrs : AttributeSubsets(attr_count, pos_size)) {
    std::vector<std::vector<int>> pos_assignments;
    EnumerateValueAssignments(spec, pos_attrs, &pos_assignments);
    for (const auto& neg_attrs : AttributeSubsets(attr_count, neg_size)) {
      std::vector<std::vector<int>> neg_assignments;
      EnumerateValueAssignments(spec, neg_attrs, &neg_assignments);
      for (const auto& pos_values : pos_assignments) {
        for (const auto& neg_values : neg_assignments) {
          // Forbid a degenerate class where positive and negative
          // constraints are identical (nothing to separate) and forbid
          // direct contradictions (same attr with same value on both
          // sides).
          bool degenerate = false;
          bool identical = pos_attrs == neg_attrs;
          if (identical && pos_values == neg_values) degenerate = true;
          for (size_t i = 0; i < pos_attrs.size() && !degenerate; ++i) {
            for (size_t j = 0; j < neg_attrs.size(); ++j) {
              if (pos_attrs[i] == neg_attrs[j] &&
                  pos_values[i] == neg_values[j]) {
                degenerate = true;
                break;
              }
            }
          }
          if (degenerate) continue;
          out.push_back(CandidateClass{pos_attrs, pos_values, neg_attrs,
                                       neg_values});
        }
      }
    }
  }
  return out;
}

}  // namespace

StatusOr<UltraWikiDataset> BuildDataset(const GeneratedWorld& world,
                                        const DatasetConfig& config) {
  if (config.n_thred < 1) {
    return Status::InvalidArgument("n_thred must be >= 1");
  }
  if (config.min_seeds < 1 || config.max_seeds < config.min_seeds) {
    return Status::InvalidArgument("invalid seed-count range");
  }
  Rng rng(config.seed);
  UltraWikiDataset dataset;

  // ---- Step 3: attribute annotation (simulated). ----
  dataset.annotation = AnnotateWorld(world, config.annotation);

  // ---- Step 4: negative-aware ultra-fine-grained class generation. ----
  for (size_t c = 0; c < world.schema.size(); ++c) {
    const FineClassSpec& spec = world.schema[c];
    const std::vector<EntityId> members =
        world.corpus.EntitiesOfClass(static_cast<ClassId>(c));

    auto materialize = [&](const CandidateClass& cand,
                           UltraClass* ultra) -> bool {
      ultra->fine_class = static_cast<ClassId>(c);
      ultra->pos_attrs = cand.pos_attrs;
      ultra->pos_values = cand.pos_values;
      ultra->neg_attrs = cand.neg_attrs;
      ultra->neg_values = cand.neg_values;
      ultra->attrs_identical = cand.pos_attrs == cand.neg_attrs;
      for (EntityId id : members) {
        const std::vector<int>& values =
            dataset.annotation.values[static_cast<size_t>(id)];
        const bool pos_match =
            MatchesAll(values, cand.pos_attrs, cand.pos_values);
        const bool neg_match =
            MatchesAll(values, cand.neg_attrs, cand.neg_values);
        if (neg_match) ultra->negative_targets.push_back(id);
        if (pos_match && !neg_match) ultra->positive_targets.push_back(id);
      }
      return static_cast<int>(ultra->positive_targets.size()) >=
                 config.n_thred &&
             static_cast<int>(ultra->negative_targets.size()) >=
                 config.n_thred;
    };

    // Pool of viable (1,1) classes and viable higher-order classes.
    std::vector<UltraClass> simple_pool;
    for (const CandidateClass& cand : EnumerateCandidates(spec, 1, 1)) {
      UltraClass ultra;
      if (materialize(cand, &ultra)) simple_pool.push_back(std::move(ultra));
    }
    std::vector<UltraClass> higher_pool;
    const int attr_count = static_cast<int>(spec.attributes.size());
    for (int ps = 1; ps <= attr_count; ++ps) {
      for (int ns = 1; ns <= attr_count; ++ns) {
        if (ps == 1 && ns == 1) continue;
        // Table 12 shapes: (1,2), (2,1), (2,2) and (3,3) for 3-attr
        // classes; skip shapes like (1,3)/(3,1) that the paper lacks.
        const bool allowed = (ps <= 2 && ns <= 2) || (ps == 3 && ns == 3);
        if (!allowed) continue;
        for (const CandidateClass& cand :
             EnumerateCandidates(spec, ps, ns)) {
          UltraClass ultra;
          if (materialize(cand, &ultra)) {
            higher_pool.push_back(std::move(ultra));
          }
        }
      }
    }

    const int cap = std::max(
        2, static_cast<int>(static_cast<double>(kPaperUltraCounts[c]) *
                            config.ultra_class_scale));
    int higher_target = static_cast<int>(
        config.higher_order_fraction * static_cast<double>(cap) + 0.5);
    higher_target =
        std::min<int>(higher_target, static_cast<int>(higher_pool.size()));
    const int simple_target = std::min<int>(
        cap - higher_target, static_cast<int>(simple_pool.size()));

    rng.Shuffle(simple_pool);
    rng.Shuffle(higher_pool);
    for (int i = 0; i < simple_target; ++i) {
      dataset.classes.push_back(std::move(simple_pool[static_cast<size_t>(i)]));
    }
    // Round-robin over the attribute-count shapes so (1,2), (2,1), (2,2)
    // and (3,3) are all represented when available (Table 12 / Table 6).
    std::map<std::pair<int, int>, std::vector<UltraClass*>> by_shape;
    for (UltraClass& ultra : higher_pool) {
      by_shape[{static_cast<int>(ultra.pos_attrs.size()),
                static_cast<int>(ultra.neg_attrs.size())}]
          .push_back(&ultra);
    }
    int taken = 0;
    size_t round = 0;
    while (taken < higher_target) {
      bool any = false;
      for (auto& [shape, list] : by_shape) {
        if (round < list.size() && taken < higher_target) {
          dataset.classes.push_back(std::move(*list[round]));
          ++taken;
          any = true;
        }
      }
      if (!any) break;
      ++round;
    }
  }
  if (dataset.classes.empty()) {
    return Status::FailedPrecondition(
        "no ultra-fine-grained class met n_thred; increase scale");
  }

  // ---- Queries: 3 per ultra-class, 3-5 positive and negative seeds. ----
  for (size_t u = 0; u < dataset.classes.size(); ++u) {
    const UltraClass& ultra = dataset.classes[u];
    for (int q = 0; q < config.queries_per_class; ++q) {
      Query query;
      query.ultra_class = static_cast<int>(u);
      const int pos_k = std::min<int>(
          rng.UniformInt(config.min_seeds, config.max_seeds),
          static_cast<int>(ultra.positive_targets.size()));
      const int neg_k = std::min<int>(
          rng.UniformInt(config.min_seeds, config.max_seeds),
          static_cast<int>(ultra.negative_targets.size()));
      query.pos_seeds = rng.SampleWithoutReplacement(
          ultra.positive_targets, static_cast<size_t>(pos_k));
      query.neg_seeds = rng.SampleWithoutReplacement(
          ultra.negative_targets, static_cast<size_t>(neg_k));
      dataset.queries.push_back(std::move(query));
    }
  }

  // ---- Candidate vocabulary: in-class entities + mined background. ----
  for (EntityId id = 0;
       id < static_cast<EntityId>(world.corpus.entity_count()); ++id) {
    if (world.corpus.entity(id).class_id != kBackgroundClassId) {
      dataset.candidates.push_back(id);
    }
  }
  const std::vector<EntityId>& pool = world.background_entities;
  const int keep = static_cast<int>(config.background_keep_fraction *
                                    static_cast<double>(pool.size()));
  if (keep > 0 && !pool.empty()) {
    // BM25 hard-negative mining: index each background entity's sentences
    // as one document and query with each class's topical text; admit the
    // most similar pages first. The index depends only on the world, so it
    // is cached keyed on the world's generator fingerprint (fingerprint 0
    // = unknown provenance = never cached).
    const InvertedIndex index = LoadOrBuild(
        "mined-index", CombineFingerprints({world.fingerprint}),
        [](const std::string& path) {
          UW_SPAN("cache.load_index");
          return LoadIndexSnapshot(path);
        },
        [&] {
          UW_SPAN("dataset.build_index");
          InvertedIndex built;
          for (EntityId id : pool) {
            std::vector<TokenId> doc;
            for (int s : world.corpus.SentencesOf(id)) {
              const Sentence& sentence =
                  world.corpus.sentence(static_cast<size_t>(s));
              doc.insert(doc.end(), sentence.tokens.begin(),
                         sentence.tokens.end());
            }
            built.AddDocument(doc);
          }
          built.Freeze();
          return built;
        },
        SaveIndexSnapshot);
    Bm25Scorer scorer(&index);
    std::vector<std::vector<TokenId>> class_queries;
    class_queries.reserve(world.schema.size());
    for (const FineClassSpec& spec : world.schema) {
      std::vector<TokenId> query;
      const Vocabulary& vocab = world.corpus.tokens();
      const TokenId noun = vocab.Lookup(spec.singular_noun);
      if (noun != kInvalidTokenId) query.push_back(noun);
      for (const std::string& topic : spec.topic_tokens) {
        const TokenId t = vocab.Lookup(topic);
        if (t != kInvalidTokenId) query.push_back(t);
      }
      class_queries.push_back(std::move(query));
    }
    // Per-class pruned top-k searches in one parallel batch instead of
    // dense score vectors over the whole pool: the global top
    // `hard_target` documents by max-over-classes score are provably
    // contained in the union of the per-class top `hard_target` lists
    // (a doc's best-scoring class ranks at least as many docs ahead of it
    // as the global ranking does), and each doc's exact max score is its
    // score in that best class, which its top-k entry carries. The merged
    // ranking is therefore identical to the old dense max-reduction —
    // minus never-matched docs, which scored 0 and were only ever
    // admitted as "hard" negatives by the score-0 padding bug.
    const int hard_target = static_cast<int>(
        config.hard_negative_fraction * static_cast<double>(keep));
    std::set<size_t> admitted;
    if (hard_target > 0) {
      const std::vector<std::vector<ScoredIndex>> per_class =
          scorer.SearchBatch(class_queries, static_cast<size_t>(hard_target));
      std::map<size_t, float> best;
      for (const std::vector<ScoredIndex>& hits : per_class) {
        for (const ScoredIndex& hit : hits) {
          auto [it, inserted] = best.try_emplace(hit.index, hit.score);
          if (!inserted) it->second = std::max(it->second, hit.score);
        }
      }
      std::vector<ScoredIndex> merged;
      merged.reserve(best.size());
      for (const auto& [doc, score] : best) {
        merged.push_back(ScoredIndex{score, doc});
      }
      merged = TopKOfPairs(std::move(merged), static_cast<size_t>(hard_target));
      for (const ScoredIndex& hit : merged) admitted.insert(hit.index);
    }
    dataset.hard_negative_count = static_cast<int>(admitted.size());
    // Fill the remainder uniformly from the unadmitted pool.
    std::vector<size_t> rest;
    for (size_t i = 0; i < pool.size(); ++i) {
      if (!admitted.contains(i)) rest.push_back(i);
    }
    rng.Shuffle(rest);
    for (size_t i = 0; i < rest.size() &&
                       admitted.size() < static_cast<size_t>(keep);
         ++i) {
      admitted.insert(rest[i]);
    }
    for (size_t i : admitted) dataset.candidates.push_back(pool[i]);
  }
  std::sort(dataset.candidates.begin(), dataset.candidates.end());

  return dataset;
}

}  // namespace ultrawiki
