#ifndef ULTRAWIKI_BENCH_BENCH_ENV_H_
#define ULTRAWIKI_BENCH_BENCH_ENV_H_

#include <chrono>
#include <cstdio>

#include "common/env.h"
#include "common/thread_pool.h"
#include "expand/pipeline.h"
#include "io/artifact_cache.h"
#include "obs/export.h"

namespace ultrawiki {

/// Pipeline scale for bench binaries: the full Bench() config by default,
/// or Tiny() when the `UW_BENCH_TINY` flag is on (CI smoke runs). The
/// stdout tables differ between the two scales, but each scale stays
/// byte-identical across thread counts and trace settings.
inline PipelineConfig BenchPipelineConfig() {
  return EnvFlag("UW_BENCH_TINY") ? PipelineConfig::Tiny()
                                  : PipelineConfig::Bench();
}

/// Shared harness glue for the table/figure binaries: announces the lane
/// count the global pool resolved from UW_THREADS, reports wall-clock on
/// exit, and writes a machine-readable metrics + profile snapshot (see
/// obs::WriteBenchSnapshot; path from `UW_BENCH_JSON`, default
/// `bench_<name>.json`, `off` to suppress). Diagnostics go to stderr and
/// the snapshot to a file; table output on stdout stays byte-identical
/// across thread counts and trace settings.
class BenchTimer {
 public:
  explicit BenchTimer(const char* name)
      : name_(name), start_(std::chrono::steady_clock::now()) {
    std::fprintf(stderr, "[%s] running with %d thread(s) (UW_THREADS)\n",
                 name_, ThreadPool::Global().thread_count());
    const ArtifactCache& cache = ArtifactCache::Global();
    if (cache.enabled()) {
      std::fprintf(stderr, "[%s] artifact cache at %s (UW_CACHE_DIR)\n",
                   name_, cache.root().c_str());
    } else {
      std::fprintf(stderr,
                   "[%s] artifact cache disabled (set UW_CACHE_DIR)\n",
                   name_);
    }
  }

  ~BenchTimer() {
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    std::fprintf(stderr, "[%s] wall-clock %.2fs on %d thread(s)\n", name_,
                 seconds, ThreadPool::Global().thread_count());
    const std::string path = obs::WriteBenchSnapshot(
        name_, ThreadPool::Global().thread_count(), seconds);
    if (!path.empty()) {
      std::fprintf(stderr, "[%s] metrics snapshot -> %s\n", name_,
                   path.c_str());
    }
  }

  BenchTimer(const BenchTimer&) = delete;
  BenchTimer& operator=(const BenchTimer&) = delete;

 private:
  const char* name_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace ultrawiki

#endif  // ULTRAWIKI_BENCH_BENCH_ENV_H_
