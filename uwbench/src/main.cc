// uw_bench — the repository benchmark binary.
//
//   uw_bench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//            --bin-dir=<dir with uw_serve, uw_router> --work-dir=<dir for caches and logs>
//            --data-dir=<dir with the paper-method digests> [--scale=tiny]
//
// Workloads: serve-retexpan, retexpan-100k (see uwbench/README.md).
// `--write-digest=PATH` instead writes the paper-method ranking digests
// the traced serve-retexpan run checks. Untraced runs print every
// end-to-end metric; traced runs print every per-layer metric and the
// per-layer table (stderr). The last stdout line is the result JSON.

#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "obs/trace.h"
#include "workloads.h"

namespace uwbench {

namespace {

bool ParseFlag(const std::string& arg, const char* name, std::string* value) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "uw_bench: %s\nusage: uw_bench --workload=<serve-retexpan|"
               "retexpan-100k> --seed=N "
               "--seconds=S --trace=0|1 --bin-dir=D --work-dir=D "
               "--data-dir=D [--scale=bench|tiny] [--corrupt]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace uwbench

int main(int argc, char** argv) {
  using namespace uwbench;
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (ParseFlag(arg, "workload", &value)) {
      options.workload = value;
    } else if (ParseFlag(arg, "seed", &value)) {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "seconds", &value)) {
      options.seconds = std::atof(value.c_str());
    } else if (ParseFlag(arg, "trace", &value)) {
      options.trace = value == "1";
    } else if (ParseFlag(arg, "scale", &value)) {
      options.scale = value;
    } else if (ParseFlag(arg, "bin-dir", &value)) {
      options.bin_dir = value;
    } else if (ParseFlag(arg, "work-dir", &value)) {
      options.work_dir = value;
    } else if (ParseFlag(arg, "data-dir", &value)) {
      options.data_dir = value;
    } else if (ParseFlag(arg, "write-digest", &value)) {
      options.write_digest = value;
    } else if (arg == "--corrupt") {
      options.corrupt = true;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!options.write_digest.empty()) {
    WriteEvalDigest(options);
    return 0;
  }
  using Runner = void (*)(const Options&, Result&, Fingerprint&);
  const std::map<std::string, Runner> runners = {
      {"serve-retexpan", RunServeRetexpan},
      {"retexpan-100k", RunRetexpan100k},
  };
  const auto runner = runners.find(options.workload);
  if (runner == runners.end()) return Usage("unknown --workload");
  if (options.seconds <= 0 || options.work_dir.empty() ||
      options.bin_dir.empty() || options.data_dir.empty()) {
    return Usage("missing --seconds, --bin-dir, --work-dir or --data-dir");
  }
  if (options.scale != "bench" && options.scale != "tiny") {
    return Usage("--scale must be bench or tiny");
  }
  ::signal(SIGPIPE, SIG_IGN);

  // Every cache the run touches lives in its own work directory. The
  // serve workloads' in-process reference keeps a persistent cache (the
  // servers get fresh ones); the offline workloads empty theirs for each
  // cold set-up.
  options.work_dir += "/" + options.workload + "-" + options.scale;
  MakeDirs(options.work_dir);
  const bool serving = options.workload.rfind("serve-", 0) == 0;
  const std::string cache =
      options.work_dir + (serving ? "/ref_cache" : "/cache");
  MakeDirs(cache);
  ::setenv("UW_CACHE_DIR", cache.c_str(), 1);
  ::setenv("UW_BENCH_JSON", "off", 1);
  ultrawiki::obs::SetTraceEnabled(false);

  Fingerprint fingerprint(options);
  Result result;
  runner->second(options, result, fingerprint);

  const std::vector<MetricSpec>& catalogue =
      options.trace ? PerLayerMetrics() : EndToEndMetrics();
  if (options.trace) {
    result.Set("fail_frac",
               result.attempted() > 0
                   ? static_cast<double>(result.failed()) / result.attempted()
                   : 0,
               "ratio");
    result.PrintLayerTable();
  }
  for (const MetricSpec& metric : catalogue) {
    if (!result.Has(metric.name)) {
      // A layer this workload does not exercise reports 0; an end-to-end
      // metric must always be measured.
      if (!options.trace) result.Fail("metric not measured: " + metric.name);
      result.Set(metric.name, 0, metric.unit);
    }
  }
  if (!options.trace) {
    for (const MetricSpec& metric : UngatedMetrics()) {
      std::fprintf(stderr, "[uw_bench] not gated: %s = %.4f %s\n",
                   metric.name.c_str(), result.ValueOf(metric.name),
                   metric.unit.c_str());
    }
  }
  std::vector<std::string> names;
  for (const MetricSpec& metric : catalogue) {
    if (result.UnitOf(metric.name) != metric.unit) {
      result.Fail(metric.name + " reported in " + result.UnitOf(metric.name) +
                  ", catalogued in " + metric.unit);
    }
    names.push_back(metric.name);
  }
  std::printf("fingerprint: %s\n", fingerprint.Json().c_str());
  std::printf("%s\n", result.Json(names).c_str());
  std::fflush(stdout);
  return 0;
}
