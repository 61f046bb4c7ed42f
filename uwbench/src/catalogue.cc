// The metric catalogue and the scale configurations shared by uw_bench
// and uwb_shard.

#include "workloads.h"

namespace uwbench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> metrics = {
      {"setup_s", "s"}, {"restart_s", "s"},   {"peak_rss_mb", "MiB"},
      {"p50_ms", "ms"}, {"p50_ms.low", "ms"}, {"recall_at_50", "ratio"},
  };
  return metrics;
}

const std::vector<MetricSpec>& UngatedMetrics() {
  static const std::vector<MetricSpec> metrics = {
      {"qps", "1/s"},        {"goodput_rps", "1/s"}, {"p99_ms", "ms"},
      {"p99_ms.low", "ms"},  {"p50_ms.high", "ms"},  {"p99_ms.high", "ms"},
  };
  return metrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> metrics = [] {
    std::vector<MetricSpec> list = {
        {"serve.wire_us.p50", "us"},
        {"serve.wire_us.p99", "us"},
        {"serve.queue_wait_us.p50", "us"},
        {"serve.queue_wait_us.p99", "us"},
        {"serve.batch_size.mean", "count"},
        {"serve.batch_wait_us.p50", "us"},
        {"serve.batch_wait_us.p99", "us"},
        {"serve.execute_us.p50", "us"},
        {"serve.execute_us.p99", "us"},
        {"serve.shed", "count"},
        {"serve.timeout", "count"},
        {"serve.net.protocol_errors", "count"},
        {"router.expand_us.p50", "us"},
        {"router.expand_us.p99", "us"},
        {"router.proxy_us.p50", "us"},
        {"router.proxy_us.p99", "us"},
        {"router.shard_rpc_us.p50", "us"},
        {"router.shard_rpc_us.p99", "us"},
        {"router.self_us.p50", "us"},
        {"router.failovers", "count"},
        {"router.unreplicated_seed_mismatch_frac", "ratio"},
        {"retexpan.recall_us.p50", "us"},
        {"retexpan.recall_us.p99", "us"},
        {"retexpan.rerank_us.p50", "us"},
        {"genexpan.expand_us.p50", "us"},
        {"genexpan.expand_us.p99", "us"},
        {"beam.self_share", "ratio"},
        {"beam.expansions_per_query", "count"},
        {"kernel.centroid_scores_us.p50", "us"},
        {"kernel.rows_scored_per_query", "count"},
        {"kernel.scan_gbps", "GB/s"},
        {"host.stream_gbps", "GB/s"},
        {"ann.candidates_us.p50", "us"},
        {"ann.candidates_us.p99", "us"},
        {"ann.rows_scored_per_query", "count"},
        {"ann.lists_probed_per_query", "count"},
        {"ann.build_s", "s"},
        {"bm25.postings_per_query", "count"},
        {"bm25.blocks_skipped_frac", "ratio"},
        {"bm25.search_share", "ratio"},
    };
    for (const char* method : {"retexpan", "genexpan", "probexpan", "setexpan",
                               "case", "cgexpan", "gpt4", "interaction"}) {
      list.push_back({std::string("method.") + method + ".ms_per_query", "ms"});
    }
    const std::vector<MetricSpec> tail = {
        {"pool.steals_per_task", "ratio"},
        {"setup.generate_world_s", "s"},
        {"setup.train_encoder_s", "s"},
        {"setup.lm_pretrain_s", "s"},
        {"setup.store_build_s", "s"},
        {"setup.cache_load_s", "s"},
        {"gen.late_ms.p99", "ms"},
        {"trace.overhead_frac", "ratio"},
        {"fail_frac", "ratio"},
    };
    list.insert(list.end(), tail.begin(), tail.end());
    return list;
  }();
  return metrics;
}

ultrawiki::PipelineConfig ScaleConfig(const Options& options) {
  // Mirrors uw_serve --config=tiny|bench, so in-process references and
  // served answers come from the same world.
  if (options.tiny()) {
    ultrawiki::PipelineConfig config = ultrawiki::PipelineConfig::Tiny();
    config.generator.scale = 0.12;
    config.dataset.ultra_class_scale = 0.12;
    return config;
  }
  return ultrawiki::PipelineConfig::Bench();
}

}  // namespace uwbench
