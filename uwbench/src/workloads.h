// The four benchmark workloads and the metric catalogue they report.

#ifndef UWBENCH_WORKLOADS_H_
#define UWBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "expand/pipeline.h"
#include "expand/retexpan.h"
#include "harness.h"

namespace uwbench {

/// Name and unit of one reported metric.
struct MetricSpec {
  std::string name;
  std::string unit;
};

/// End-to-end metrics, printed by every untraced run.
const std::vector<MetricSpec>& EndToEndMetrics();
/// Serving figures every untraced run also measures and prints on stderr
/// but does not report: their run-to-run spread on the reference host
/// exceeds any regression bound the result may carry (README.md).
const std::vector<MetricSpec>& UngatedMetrics();
/// Per-layer metrics, printed by every traced run. A layer a workload does
/// not exercise reports 0 (and n=0 in the table).
const std::vector<MetricSpec>& PerLayerMetrics();

/// The pipeline configuration of the run's scale (what `uw_serve
/// --config=<scale>` builds).
ultrawiki::PipelineConfig ScaleConfig(const Options& options);

/// Ranking length of every checked request.
inline constexpr int kRankingK = 50;

/// Where MakeDatasetRequests draws an ultra-class's seeds from.
enum class SeedPool {
  /// Its positive / negative target lists.
  kTargets,
  /// Only the seeds of the dataset's own queries of that class: the rows
  /// a shard store replicates, so a sharded cluster folds the same seed
  /// centroid as the full store.
  kDatasetQuerySeeds,
};

/// Ultra-fine queries drawn from the dataset: 3-5 positive and 3-5
/// negative seeds of one ultra-class, cycling through `methods`.
std::vector<Request> MakeDatasetRequests(const ultrawiki::Pipeline& pipeline,
                                         const std::vector<std::string>& methods,
                                         uint64_t seed, int count,
                                         SeedPool pool);

/// Offline rankings of `requests` from the same build (the reference every
/// served answer must equal), computed on the global pool.
std::vector<Ranking> OfflineRankings(ultrawiki::Pipeline& pipeline,
                                     const std::vector<Request>& requests);

/// In-process replay of the retexpan requests at the RetExpan boundaries
/// (InitialExpansion, Expand) and of the exact centroid kernel over
/// `candidates`: retexpan.*, kernel.* and host.stream_gbps.
void ReplayRetexpanLayers(ultrawiki::RetExpan& retexpan,
                          const ultrawiki::EntityStore& store,
                          const std::vector<EntityId>& candidates,
                          const std::vector<Request>& requests,
                          Result& result);
/// ReplayRetexpanLayers over the pipeline's RetExpan and candidates.
void ReplayExpandLayers(ultrawiki::Pipeline& pipeline,
                        const std::vector<Request>& requests, Result& result);

/// Every paper method (serve::KnownMethods) over all dataset queries
/// through EvaluateExpander, each ranking checked against the committed
/// digests: method.*, genexpan.*, beam.*, bm25.* and pool.* per-layer
/// metrics.
void ReplayPaperMethodLayers(ultrawiki::Pipeline& pipeline,
                             const Options& options, Result& result);
/// Writes the digest file ReplayPaperMethodLayers checks against.
void WriteEvalDigest(const Options& options);

/// setup.* metrics of an in-process profile or a SIGUSR1 dump.
void SetupLayersFromProfile(const std::string& profile_json, Result& result);

void RunServeRetexpan(const Options& options, Result& result,
                      Fingerprint& fingerprint);
void RunRetexpan100k(const Options& options, Result& result,
                     Fingerprint& fingerprint);

}  // namespace uwbench

#endif  // UWBENCH_WORKLOADS_H_
