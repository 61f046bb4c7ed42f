// Flag-driven query runner: the operational front-end a downstream user
// would script against.
//
//   $ ./example_ultrawiki_query [--method=retexpan|genexpan|probexpan|
//                                 setexpan|case|cgexpan|gpt4|interaction]
//                               [--k=N] [--query=INDEX] [--scale=S]
//
// Prints the chosen query (seeds, attribute constraints) and the ranked
// expansion with ground-truth annotations plus per-query metrics.

#include <cstdlib>
#include <iostream>
#include <set>
#include <string>

#include "common/env.h"
#include "common/string_util.h"
#include "eval/metrics.h"
#include "expand/pipeline.h"
#include "serve/service.h"

using namespace ultrawiki;

int main(int argc, char** argv) {
  const std::string method_name =
      FlagValue(argc, argv, "method", "retexpan");
  const int k = std::atoi(FlagValue(argc, argv, "k", "20").c_str());
  const int query_index =
      std::atoi(FlagValue(argc, argv, "query", "0").c_str());
  const double scale =
      std::atof(FlagValue(argc, argv, "scale", "0.12").c_str());
  if (k <= 0 || scale <= 0.0) {
    std::cerr << "usage: " << argv[0]
              << " [--method=NAME] [--k=N] [--query=I] [--scale=S]\n";
    return 2;
  }

  PipelineConfig config = PipelineConfig::Tiny();
  config.generator.scale = scale;
  config.dataset.ultra_class_scale = scale;
  std::cout << "building pipeline (scale " << scale << ")...\n";
  Pipeline pipeline = Pipeline::Build(config);

  auto method = serve::MakeExpanderByName(pipeline, method_name);
  if (method == nullptr) {
    std::cerr << "unknown --method=" << method_name << "\n";
    return 2;
  }
  const auto& queries = pipeline.dataset().queries;
  if (query_index < 0 ||
      static_cast<size_t>(query_index) >= queries.size()) {
    std::cerr << "--query out of range (have " << queries.size()
              << " queries)\n";
    return 2;
  }
  const Query& query = queries[static_cast<size_t>(query_index)];
  const UltraClass& ultra = pipeline.dataset().ClassOf(query);
  const GeneratedWorld& world = pipeline.world();
  const FineClassSpec& spec =
      world.schema[static_cast<size_t>(ultra.fine_class)];

  std::cout << "\nquery #" << query_index << " on '" << spec.name
            << "' with " << method->name() << " (k=" << k << ")\n";
  std::cout << "positive seeds:";
  for (EntityId id : query.pos_seeds) {
    std::cout << " [" << world.corpus.entity(id).name << "]";
  }
  std::cout << "\nnegative seeds:";
  for (EntityId id : query.neg_seeds) {
    std::cout << " [" << world.corpus.entity(id).name << "]";
  }
  std::cout << "\n\n";

  const std::vector<EntityId> ranking =
      method->Expand(query, static_cast<size_t>(k));
  std::set<EntityId> pos(ultra.positive_targets.begin(),
                         ultra.positive_targets.end());
  std::set<EntityId> neg(ultra.negative_targets.begin(),
                         ultra.negative_targets.end());
  for (size_t r = 0; r < ranking.size(); ++r) {
    const EntityId id = ranking[r];
    std::string name = "(hallucinated)";
    const char* mark = "";
    if (id != kHallucinatedEntityId) {
      name = world.corpus.entity(id).name;
      if (pos.contains(id)) {
        mark = "+++";
      } else if (neg.contains(id)) {
        mark = "---";
      } else if (world.corpus.entity(id).class_id == ultra.fine_class) {
        mark = "!!!";
      }
    }
    std::cout << StrFormat("  %2zu. %-28s %s\n", r + 1, name.c_str(), mark);
  }

  // Per-query metrics against the ground truth.
  TargetSet pos_targets(pos.begin(), pos.end());
  for (EntityId seed : query.pos_seeds) pos_targets.erase(seed);
  TargetSet neg_targets(neg.begin(), neg.end());
  for (EntityId seed : query.neg_seeds) neg_targets.erase(seed);
  const double pos_map =
      100.0 * AveragePrecisionAtK(ranking, pos_targets, k);
  const double neg_map =
      100.0 * AveragePrecisionAtK(ranking, neg_targets, k);
  std::cout << "\nPosMAP@" << k << " = " << FormatDouble(pos_map, 2)
            << ", NegMAP@" << k << " = " << FormatDouble(neg_map, 2)
            << ", CombMAP@" << k << " = "
            << FormatDouble(CombineMetric(pos_map, neg_map), 2) << "\n";
  return 0;
}
