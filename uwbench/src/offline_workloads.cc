// retexpan-100k and the in-process layer replays: the library's public
// functions called directly (RetExpan, the kernels, every paper method).

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <numeric>

#include "ann/ivf_index.h"
#include "ann/scaled_store.h"
#include "common/thread_pool.h"
#include "corpus/generator.h"
#include "eval/evaluator.h"
#include "expand/retexpan.h"
#include "io/snapshot.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/service.h"
#include "workloads.h"

namespace uwbench {

using ultrawiki::EntityStore;
using ultrawiki::Expander;
using ultrawiki::IvfIndex;
using ultrawiki::Pipeline;
using ultrawiki::RetExpan;
namespace obs = ultrawiki::obs;

namespace {

constexpr int kSetupRepeats = 3;

int64_t Counter(const char* name) { return obs::GetCounter(name).Value(); }

double PeakRssSelfMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string ProfileJson() {
  return obs::ExportProfileJson(obs::SnapshotProfile());
}

double ProfileSeconds(const std::string& json, const char* name) {
  return static_cast<double>(ProfileTotalNs(json, name)) / 1e9;
}

/// A lane that calls an in-process expander synchronously.
class InProcessLane : public Lane {
 public:
  using Fn = std::function<Ranking(const Request&)>;
  explicit InProcessLane(Fn call) : call_(std::move(call)) {}
  StatusOr<Ranking> Call(const Request& request) override {
    return call_(request);
  }

 private:
  Fn call_;
};

/// Forwards to an expander and records each query's ranking and latency
/// by dataset query index (EvaluateExpander hands out references into
/// dataset.queries, one lane per query).
class RecordingExpander : public Expander {
 public:
  RecordingExpander(Expander& inner, const std::vector<Query>& queries)
      : inner_(inner),
        queries_(queries),
        rankings_(queries.size()),
        micros_(queries.size(), 0.0) {}
  std::vector<EntityId> Expand(const Query& query, size_t k) override {
    const auto start = Clock::now();
    std::vector<EntityId> ranking = inner_.Expand(query, k);
    const size_t index = static_cast<size_t>(&query - queries_.data());
    if (index < queries_.size()) {
      micros_[index] = 1000.0 * MsBetween(start, Clock::now());
      rankings_[index] = ranking;
    }
    return ranking;
  }
  std::string name() const override { return inner_.name(); }
  const std::vector<Ranking>& rankings() const { return rankings_; }
  const std::vector<double>& micros() const { return micros_; }

 private:
  Expander& inner_;
  const std::vector<Query>& queries_;
  std::vector<Ranking> rankings_;
  std::vector<double> micros_;
};

// --- Paper methods ------------------------------------------------------------

/// Every paper method built over one resident pipeline.
struct EvalSystem {
  Pipeline* pipeline = nullptr;
  std::vector<std::string> methods;
  std::vector<std::unique_ptr<Expander>> expanders;
};

EvalSystem BuildEvalSystem(Pipeline& pipeline) {
  EvalSystem system;
  system.pipeline = &pipeline;
  for (const std::string& method : ultrawiki::serve::KnownMethods()) {
    system.methods.push_back(method);
    system.expanders.push_back(
        ultrawiki::serve::MakeExpanderByName(pipeline, method));
  }
  return system;
}

/// Committed per-(method, query) digests of the paper-method rankings.
using DigestTable = std::map<std::pair<std::string, size_t>, uint64_t>;

std::string DigestPath(const Options& options) {
  return options.data_dir + "/eval_paper_" + options.scale + ".digest";
}

DigestTable LoadDigests(const std::string& path) {
  DigestTable table;
  std::ifstream in(path);
  std::string method;
  size_t query = 0;
  std::string hex;
  while (in >> method >> query >> hex) {
    table[{method, query}] = std::stoull(hex, nullptr, 16);
  }
  return table;
}

/// One EvaluateExpander pass over every method: rankings and per-query
/// latency by [method][query].
struct EvalPass {
  std::vector<std::vector<Ranking>> rankings;
  std::vector<std::vector<double>> micros;
  int64_t queries = 0;
};

EvalPass RunEvalPass(EvalSystem& system) {
  EvalPass pass;
  const auto& dataset = system.pipeline->dataset();
  for (auto& expander : system.expanders) {
    RecordingExpander recorder(*expander, dataset.queries);
    ultrawiki::EvaluateExpander(recorder, dataset);
    pass.rankings.push_back(recorder.rankings());
    pass.micros.push_back(recorder.micros());
    pass.queries += static_cast<int64_t>(dataset.queries.size());
  }
  return pass;
}

/// Counts rankings that differ from the committed digests.
int64_t CountDigestMismatches(const EvalSystem& system, const EvalPass& pass,
                              const DigestTable& digests) {
  int64_t mismatches = 0;
  for (size_t m = 0; m < system.methods.size(); ++m) {
    for (size_t q = 0; q < pass.rankings[m].size(); ++q) {
      const auto it = digests.find({system.methods[m], q});
      if (it == digests.end() ||
          it->second != RankingDigest(pass.rankings[m][q])) {
        ++mismatches;
      }
    }
  }
  return mismatches;
}

}  // namespace

void ReplayPaperMethodLayers(Pipeline& pipeline, const Options& options,
                             Result& result) {
  const DigestTable digests = LoadDigests(DigestPath(options));
  if (digests.empty()) {
    result.Fail("no committed digests at " + DigestPath(options));
    return;
  }
  EvalSystem system = BuildEvalSystem(pipeline);
  std::map<std::string, int64_t> before;
  for (const char* name :
       {"bm25.queries", "bm25.postings_scanned", "index.blocks_skipped",
        "index.blocks_decoded", "pool.tasks_run", "pool.steals",
        "beam.expansions"}) {
    before[name] = Counter(name);
  }
  // Per-method timing and counters from an untraced pass...
  const EvalPass plain = RunEvalPass(system);
  result.Count(plain.queries, CountDigestMismatches(system, plain, digests));
  const auto delta = [&before](const char* name) {
    return static_cast<double>(Counter(name) - before.at(name));
  };
  const double bm25_queries = delta("bm25.queries");
  result.Set("bm25.postings_per_query",
             bm25_queries > 0 ? delta("bm25.postings_scanned") / bm25_queries
                              : 0,
             "count");
  const double blocks =
      delta("index.blocks_skipped") + delta("index.blocks_decoded");
  result.Set("bm25.blocks_skipped_frac",
             blocks > 0 ? delta("index.blocks_skipped") / blocks : 0, "ratio");
  const double tasks = delta("pool.tasks_run");
  result.Set("pool.steals_per_task",
             tasks > 0 ? delta("pool.steals") / tasks : 0, "ratio");
  double all_us = 0;
  std::map<std::string, Samples> per_method;
  for (size_t m = 0; m < system.methods.size(); ++m) {
    Samples& samples = per_method[system.methods[m]];
    for (double us : plain.micros[m]) samples.Add(us);
    all_us += samples.Sum();
  }
  for (const auto& [method, samples] : per_method) {
    result.Set("method." + method + ".ms_per_query", samples.Mean() / 1000.0,
               "ms");
    result.Layer("method." + method, samples, samples.Sum() / all_us,
                 "1 query");
  }
  // BM25 has no span of its own; CaSE is the method whose ranking runs it,
  // so its share of expansion time bounds BM25's share from above.
  result.Set("bm25.search_share",
             all_us > 0 ? per_method["case"].Sum() / all_us : 0, "ratio");
  const Samples& gen = per_method["genexpan"];
  result.Set("genexpan.expand_us.p50", gen.Pct(0.5), "us");
  result.Set("genexpan.expand_us.p99", gen.Pct(0.99), "us");
  const double beam_queries = static_cast<double>(
      per_method["genexpan"].size() + per_method["interaction"].size());
  result.Set("beam.expansions_per_query",
             beam_queries > 0 ? delta("beam.expansions") / beam_queries : 0,
             "count");

  // ...and beam_search's share of the beam-driven methods from a traced one.
  const std::string profile_before = ProfileJson();
  obs::SetTraceEnabled(true);
  const EvalPass traced = RunEvalPass(system);
  obs::SetTraceEnabled(false);
  result.Count(traced.queries, CountDigestMismatches(system, traced, digests));
  const double beam_ns = static_cast<double>(
      ProfileTotalNs(ProfileJson(), "beam_search") -
      ProfileTotalNs(profile_before, "beam_search"));
  double beam_methods_ns = 0;
  for (size_t m = 0; m < system.methods.size(); ++m) {
    if (system.methods[m] == "genexpan" || system.methods[m] == "interaction") {
      for (double us : traced.micros[m]) beam_methods_ns += 1000.0 * us;
    }
  }
  result.Set("beam.self_share",
             beam_methods_ns > 0 ? beam_ns / beam_methods_ns : 0, "ratio");
}

void WriteEvalDigest(const Options& options) {
  std::unique_ptr<Pipeline> pipeline(
      new Pipeline(Pipeline::Build(ScaleConfig(options))));
  EvalSystem system = BuildEvalSystem(*pipeline);
  const EvalPass pass = RunEvalPass(system);
  std::ofstream out(options.write_digest);
  for (size_t m = 0; m < system.methods.size(); ++m) {
    for (size_t q = 0; q < pass.rankings[m].size(); ++q) {
      char hex[32];
      std::snprintf(
          hex, sizeof(hex), "%016llx",
          static_cast<unsigned long long>(RankingDigest(pass.rankings[m][q])));
      out << system.methods[m] << ' ' << q << ' ' << hex << '\n';
    }
  }
  std::fprintf(stderr, "[uw_bench] wrote %lld digests to %s\n",
               static_cast<long long>(pass.queries),
               options.write_digest.c_str());
}

// --- retexpan-100k -----------------------------------------------------------

namespace {

struct ScaledSystem {
  std::unique_ptr<EntityStore> store;
  std::unique_ptr<IvfIndex> index;
  std::unique_ptr<RetExpan> retexpan;  // IVF first stage attached
};

/// Per-entity (class, attribute) of the scaled corpus, for query drawing.
struct ScaledLabels {
  std::map<std::pair<int, int>, std::vector<EntityId>> by_class_attr;
  double stream_seconds = 0;
};

ultrawiki::GeneratorConfig ScaledConfig(const Options& options) {
  ultrawiki::GeneratorConfig config;
  config.seed = 1;
  config.scale_entities = options.tiny() ? 5000 : 100000;
  return config;
}

ScaledLabels StreamLabels(const ultrawiki::GeneratorConfig& config) {
  ScaledLabels labels;
  const auto start = Clock::now();
  ultrawiki::GenerateScaledEntities(
      config, [&labels](const ultrawiki::ScaledEntity& entity) {
        labels.by_class_attr[{entity.class_id, entity.attribute_value}]
            .push_back(entity.id);
      });
  labels.stream_seconds = SecondsSince(start);
  return labels;
}

/// Ultra-fine queries: positives share class c and attribute a, negatives
/// share class c with an attribute a' != a.
std::vector<Request> ScaledRequests(const ScaledLabels& labels, uint64_t seed,
                                    int count) {
  std::vector<std::pair<int, int>> keys;
  for (const auto& [key, ids] : labels.by_class_attr) {
    if (ids.size() >= 5) keys.push_back(key);
  }
  std::mt19937_64 rng(seed);
  std::vector<Request> requests;
  while (static_cast<int>(requests.size()) < count) {
    const auto& pos_key = keys[std::uniform_int_distribution<size_t>(
        0, keys.size() - 1)(rng)];
    std::vector<std::pair<int, int>> siblings;
    for (const auto& key : keys) {
      if (key.first == pos_key.first && key.second != pos_key.second) {
        siblings.push_back(key);
      }
    }
    if (siblings.empty()) continue;
    const auto& neg_key = siblings[std::uniform_int_distribution<size_t>(
        0, siblings.size() - 1)(rng)];
    std::uniform_int_distribution<int> seeds(3, 5);
    Request request;
    request.method = "retexpan";
    request.query.ultra_class = pos_key.first;
    request.query.pos_seeds =
        Sample(rng, labels.by_class_attr.at(pos_key), seeds(rng));
    request.query.neg_seeds =
        Sample(rng, labels.by_class_attr.at(neg_key), seeds(rng));
    request.ref = requests.size();
    requests.push_back(std::move(request));
  }
  return requests;
}

std::string AnnSnapshotPath() {
  return std::string(std::getenv("UW_CACHE_DIR")) + "/scaled_ivf.uws";
}

/// Builds (cold: k-means + snapshot save) or restores (warm) the system.
ScaledSystem BuildScaled(const ultrawiki::GeneratorConfig& config,
                         const std::vector<EntityId>& candidates, bool cold,
                         double* store_s = nullptr, double* ann_s = nullptr) {
  ScaledSystem system;
  auto start = Clock::now();
  system.store =
      std::make_unique<EntityStore>(ultrawiki::BuildScaledStore(config));
  if (store_s != nullptr) *store_s = SecondsSince(start);
  start = Clock::now();
  if (!cold) {
    StatusOr<IvfIndex> restored =
        ultrawiki::LoadAnnIndexSnapshot(AnnSnapshotPath(), {});
    if (restored.ok()) {
      system.index = std::make_unique<IvfIndex>(std::move(*restored));
    }
  }
  if (system.index == nullptr) {
    system.index = std::make_unique<IvfIndex>(IvfIndex::Build(*system.store));
    (void)ultrawiki::SaveAnnIndexSnapshot(*system.index, AnnSnapshotPath());
  }
  if (ann_s != nullptr) *ann_s = SecondsSince(start);
  system.retexpan = std::make_unique<RetExpan>(system.store.get(), &candidates);
  system.retexpan->SetAnnIndex(system.index.get());
  return system;
}

LaneFactory ScaledLanes(RetExpan& retexpan) {
  return [&retexpan] {
    return std::make_unique<InProcessLane>([&retexpan](const Request& request) {
      return retexpan.Expand(request.query, kRankingK);
    });
  };
}

void ScaledTraced(const Options& options, Result& result,
                  const ultrawiki::GeneratorConfig& config,
                  const ScaledLabels& labels,
                  const std::vector<EntityId>& candidates) {
  RemoveTree(std::getenv("UW_CACHE_DIR"));
  MakeDirs(std::getenv("UW_CACHE_DIR"));
  double store_s = 0, ann_s = 0;
  ScaledSystem system = BuildScaled(config, candidates, true, &store_s, &ann_s);
  result.Set("setup.generate_world_s", labels.stream_seconds, "s");
  result.Set("setup.store_build_s", store_s, "s");
  result.Set("ann.build_s", ann_s, "s");

  const std::vector<Request> requests =
      ScaledRequests(labels, options.seed, 1024);
  std::vector<Ranking> references(requests.size());
  ultrawiki::ThreadPool::Global().ParallelFor(
      0, static_cast<int64_t>(requests.size()), 1, [&](int64_t i) {
        references[static_cast<size_t>(i)] = system.retexpan->Expand(
            requests[static_cast<size_t>(i)].query, kRankingK);
      });
  Checker checker(std::move(references), options.corrupt);
  Stream stream(&requests, options.seed, 1);
  const double budget = options.seconds;
  const Phase plain = RunClosedLoop(ScaledLanes(*system.retexpan), 1, stream,
                                    checker, 0.2 * budget);
  obs::SetTraceEnabled(true);
  const Phase traced = RunClosedLoop(ScaledLanes(*system.retexpan), 1, stream,
                                     checker, 0.2 * budget);
  obs::SetTraceEnabled(false);
  result.Count(plain.attempted + traced.attempted, plain.failed + traced.failed);
  result.Set("trace.overhead_frac", 1.0 - traced.qps() / plain.qps(), "ratio");

  // ANN first stage on its own: candidates, rows reranked, lists probed.
  Samples candidates_us;
  double rows = 0;
  const int64_t lists_before = Counter("ann.lists_probed");
  const int64_t ann_queries_before = Counter("ann.queries");
  const size_t recall_size = static_cast<size_t>(
      system.retexpan->config().initial_list_size);
  for (const Request& request : requests) {
    const ultrawiki::Vec centroid =
        system.store->SeedCentroidOf(request.query.pos_seeds);
    const auto start = Clock::now();
    const std::vector<EntityId> found = system.index->Candidates(
        centroid, system.index->config().nprobe, recall_size);
    candidates_us.Add(1000.0 * MsBetween(start, Clock::now()));
    rows += static_cast<double>(found.size());
  }
  const double ann_queries =
      static_cast<double>(Counter("ann.queries") - ann_queries_before);
  result.Set("ann.candidates_us.p50", candidates_us.Pct(0.5), "us");
  result.Set("ann.candidates_us.p99", candidates_us.Pct(0.99), "us");
  result.Set("ann.rows_scored_per_query", rows / requests.size(), "count");
  result.Set("ann.lists_probed_per_query",
             ann_queries > 0
                 ? (Counter("ann.lists_probed") - lists_before) / ann_queries
                 : 0,
             "count");
  ReplayRetexpanLayers(*system.retexpan, *system.store, candidates, requests,
                       result);
  const Phase open = RunOpenLoop(ScaledLanes(*system.retexpan), 1, stream,
                                 checker, 200, 0.1 * budget, options.seed);
  result.Count(open.attempted, open.failed);
  result.Set("gen.late_ms.p99", open.late_ms.Pct(0.99), "ms");
}

}  // namespace

void RunRetexpan100k(const Options& options, Result& result,
                     Fingerprint& fingerprint) {
  (void)fingerprint;
  const ultrawiki::GeneratorConfig config = ScaledConfig(options);
  const ScaledLabels labels = StreamLabels(config);
  std::vector<EntityId> candidates(static_cast<size_t>(config.scale_entities));
  std::iota(candidates.begin(), candidates.end(), 0);
  const std::string cache = std::getenv("UW_CACHE_DIR");
  if (options.trace) {
    ScaledTraced(options, result, config, labels, candidates);
    return;
  }
  const std::vector<Request> requests =
      ScaledRequests(labels, options.seed, 1024);
  const Request& probe = requests.front();

  // Set-up: three cold builds (k-means, snapshot saved into the empty
  // cache) and one warm one (index restored from the snapshot), each
  // timed to the first answer; every answer must match the first.
  std::vector<double> cold_s, warm_s;
  Ranking first_answer;
  ScaledSystem system;
  for (int i = 0; i <= kSetupRepeats; ++i) {
    const bool cold = i < kSetupRepeats;
    if (cold) {
      RemoveTree(cache);
      MakeDirs(cache);
    }
    system = ScaledSystem();
    const auto start = Clock::now();
    system = BuildScaled(config, candidates, cold);
    const Ranking answer = system.retexpan->Expand(probe.query, kRankingK);
    (cold ? cold_s : warm_s).push_back(SecondsSince(start));
    if (first_answer.empty()) first_answer = answer;
    result.Count(1, answer == first_answer && !answer.empty() ? 0 : 1);
    std::fprintf(stderr, "[uw_bench] %s set-up: %.3fs (nlist %d)\n",
                 cold ? "cold" : "warm", (cold ? cold_s : warm_s).back(),
                 system.index->nlist());
  }
  result.Set("setup_s", Median(cold_s), "s");
  result.Set("restart_s", Median(warm_s), "s");

  // References: the IVF ranking every answer must reproduce, and the
  // exact full scan it is scored against (recall@50).
  RetExpan exact(system.store.get(), &candidates);
  std::vector<Ranking> approximate(requests.size()), exact_rankings(requests.size());
  ultrawiki::ThreadPool::Global().ParallelFor(
      0, static_cast<int64_t>(requests.size()), 1, [&](int64_t i) {
        const Query& query = requests[static_cast<size_t>(i)].query;
        approximate[static_cast<size_t>(i)] =
            system.retexpan->Expand(query, kRankingK);
        exact_rankings[static_cast<size_t>(i)] = exact.Expand(query, kRankingK);
      });
  Checker recall(exact_rankings, false);
  for (size_t i = 0; i < requests.size(); ++i) {
    recall.Check(requests[i], approximate[i]);
  }
  result.Set("recall_at_50", recall.RecallAt50(), "ratio");

  // Parity: probing every list must reproduce the exact scan bit for bit.
  ultrawiki::RetExpanConfig full_probe;
  full_probe.ann_nprobe = system.index->nlist();
  RetExpan probe_all(system.store.get(), &candidates, full_probe);
  probe_all.SetAnnIndex(system.index.get());
  int64_t parity_failures = 0;
  constexpr size_t kParityQueries = 8;
  for (size_t i = 0; i < kParityQueries && i < requests.size(); ++i) {
    if (probe_all.Expand(requests[i].query, kRankingK) != exact_rankings[i]) {
      ++parity_failures;
    }
  }
  result.Count(kParityQueries, parity_failures);

  // One query stream: closed loop for qps/p50/p99, open loop for the
  // serving metrics.
  Checker checker(std::move(approximate), options.corrupt);
  LoadSpec spec;
  spec.lanes = 1;
  spec.p99_limit_ms = 10;
  spec.low_rps = 160;
  spec.high_rps = 390;
  MeasureServing(ScaledLanes(*system.retexpan), spec, requests, checker,
                 options, result);
  result.Set("peak_rss_mb", PeakRssSelfMb(), "MiB");
}

// --- Shared replays -----------------------------------------------------------

std::vector<Request> MakeDatasetRequests(const Pipeline& pipeline,
                                         const std::vector<std::string>& methods,
                                         uint64_t seed, int count,
                                         SeedPool pool) {
  const auto& dataset = pipeline.dataset();
  // Per ultra-class seed pools: its full target lists, or only the seeds
  // the dataset's own queries use.
  std::vector<std::vector<EntityId>> pos(dataset.classes.size());
  std::vector<std::vector<EntityId>> neg(dataset.classes.size());
  if (pool == SeedPool::kTargets) {
    for (size_t c = 0; c < dataset.classes.size(); ++c) {
      pos[c] = dataset.classes[c].positive_targets;
      neg[c] = dataset.classes[c].negative_targets;
    }
  } else {
    for (const Query& query : dataset.queries) {
      const size_t c = static_cast<size_t>(query.ultra_class);
      pos[c].insert(pos[c].end(), query.pos_seeds.begin(), query.pos_seeds.end());
      neg[c].insert(neg[c].end(), query.neg_seeds.begin(), query.neg_seeds.end());
    }
    for (size_t c = 0; c < dataset.classes.size(); ++c) {
      for (auto* ids : {&pos[c], &neg[c]}) {
        std::sort(ids->begin(), ids->end());
        ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
      }
    }
  }
  std::vector<size_t> usable;
  for (size_t c = 0; c < dataset.classes.size(); ++c) {
    if (pos[c].size() >= 5 && neg[c].size() >= 5) usable.push_back(c);
  }
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<size_t> pick(0, usable.size() - 1);
  std::uniform_int_distribution<int> seeds(3, 5);
  std::vector<Request> requests;
  for (int i = 0; i < count; ++i) {
    const size_t c = usable[pick(rng)];
    Request request;
    request.method = methods[static_cast<size_t>(i) % methods.size()];
    request.query.ultra_class = static_cast<int>(c);
    request.query.pos_seeds = Sample(rng, pos[c], seeds(rng));
    request.query.neg_seeds = Sample(rng, neg[c], seeds(rng));
    request.ref = static_cast<size_t>(i);
    requests.push_back(std::move(request));
  }
  return requests;
}

std::vector<Ranking> OfflineRankings(Pipeline& pipeline,
                                     const std::vector<Request>& requests) {
  std::map<std::string, std::unique_ptr<Expander>> expanders;
  for (const Request& request : requests) {
    if (expanders.count(request.method) == 0) {
      expanders[request.method] =
          ultrawiki::serve::MakeExpanderByName(pipeline, request.method);
    }
  }
  std::vector<Ranking> rankings(requests.size());
  ultrawiki::ThreadPool::Global().ParallelFor(
      0, static_cast<int64_t>(requests.size()), 1, [&](int64_t i) {
        const Request& request = requests[static_cast<size_t>(i)];
        rankings[request.ref] =
            expanders.at(request.method)->Expand(request.query, kRankingK);
      });
  return rankings;
}

void ReplayRetexpanLayers(RetExpan& retexpan, const EntityStore& store,
                          const std::vector<EntityId>& candidates,
                          const std::vector<Request>& requests,
                          Result& result) {
  Samples recall_us, rerank_us, kernel_us;
  int64_t rows = 0, queries = 0;
  const size_t recall_size =
      static_cast<size_t>(retexpan.config().initial_list_size);
  // Each boundary call is timed as the fastest of three, so the small
  // rerank difference (Expand minus recall) is not lost in timer noise.
  const auto fastest_us = [](const auto& call) {
    double best = 0;
    for (int rep = 0; rep < 3; ++rep) {
      const auto start = Clock::now();
      call();
      const double us = 1000.0 * MsBetween(start, Clock::now());
      best = rep == 0 ? us : std::min(best, us);
    }
    return best;
  };
  constexpr int64_t kReplayQueries = 128;
  for (const Request& request : requests) {
    if (request.method != "retexpan") continue;
    if (queries == kReplayQueries) break;
    const double recall = fastest_us(
        [&] { retexpan.InitialExpansion(request.query, recall_size); });
    const int64_t rows_before = Counter("kernel.rows_scored");
    const double expand =
        fastest_us([&] { retexpan.Expand(request.query, kRankingK); });
    rows += (Counter("kernel.rows_scored") - rows_before) / 3;
    recall_us.Add(recall);
    rerank_us.Add(std::max(0.0, expand - recall));
    const ultrawiki::Vec centroid = store.SeedCentroidOf(request.query.pos_seeds);
    kernel_us.Add(
        fastest_us([&] { store.CentroidScores(centroid, candidates); }));
    ++queries;
  }
  if (queries == 0) return;
  result.Set("retexpan.recall_us.p50", recall_us.Pct(0.5), "us");
  result.Set("retexpan.recall_us.p99", recall_us.Pct(0.99), "us");
  result.Set("retexpan.rerank_us.p50", rerank_us.Pct(0.5), "us");
  const double rows_per_query = static_cast<double>(rows) / queries;
  result.Set("kernel.rows_scored_per_query", rows_per_query, "count");
  result.Set("kernel.centroid_scores_us.p50", kernel_us.Pct(0.5), "us");
  const double bytes = static_cast<double>(candidates.size()) *
                       static_cast<double>(store.dim()) * sizeof(float);
  const double scan_gbps = bytes * queries / (kernel_us.Sum() * 1e3);
  const double stream_gbps = StreamTriadGbps();
  result.Set("kernel.scan_gbps", scan_gbps, "GB/s");
  result.Set("host.stream_gbps", stream_gbps, "GB/s");
  const double expand_mean = recall_us.Mean() + rerank_us.Mean();
  result.Layer("retexpan.recall_us", recall_us, recall_us.Mean() / expand_mean,
               std::to_string(recall_size) + " recalled");
  result.Layer("retexpan.rerank_us", rerank_us, rerank_us.Mean() / expand_mean,
               "segmented neg rerank");
  char work[96];
  std::snprintf(work, sizeof(work), "%zu rows, %.2f of %.2f GB/s stream",
                candidates.size(), scan_gbps, stream_gbps);
  // The kernel row times the full scan; its share of an Expand scales
  // with the rows the Expand actually scored.
  const double kernel_share = kernel_us.Mean() * rows_per_query /
                              static_cast<double>(candidates.size()) /
                              std::max(1e-9, expand_mean);
  result.Layer("kernel.centroid_scores_us", kernel_us, kernel_share, work);
}

void ReplayExpandLayers(Pipeline& pipeline,
                        const std::vector<Request>& requests, Result& result) {
  std::unique_ptr<RetExpan> retexpan = pipeline.MakeRetExpan();
  ReplayRetexpanLayers(*retexpan, pipeline.store(), pipeline.candidates(),
                       requests, result);
}

void SetupLayersFromProfile(const std::string& profile_json, Result& result) {
  result.Set("setup.generate_world_s",
             ProfileSeconds(profile_json, "generate_world"), "s");
  result.Set("setup.train_encoder_s",
             ProfileSeconds(profile_json, "train_encoder"), "s");
  result.Set("setup.lm_pretrain_s", ProfileSeconds(profile_json, "lm_pretrain"),
             "s");
  result.Set("setup.store_build_s", ProfileSeconds(profile_json, "entity_store"),
             "s");
}

}  // namespace uwbench
