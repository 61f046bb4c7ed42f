// Shared machinery of the repository benchmark (uw_bench): options, raw
// latency samples, the result line, the per-layer table, the host
// fingerprint, child-process control, the admin-endpoint readers and the
// closed-/open-loop load engines every workload drives.
//
// The benchmark measures the program from outside: it launches the built
// servers, calls the library's public functions, and reads what the
// program already exports (/metrics, /slowz, /statusz, the SIGUSR1 dump,
// the UW_TRACE profile). Nothing here reaches into src/ internals.

#ifndef UWBENCH_HARNESS_H_
#define UWBENCH_HARNESS_H_

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/status.h"
#include "dataset/dataset.h"

namespace uwbench {

using ultrawiki::EntityId;
using ultrawiki::Query;
using ultrawiki::Status;
using ultrawiki::StatusOr;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start);
double MsBetween(Clock::time_point from, Clock::time_point to);

/// Command line of one benchmark run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// "bench" (the measured scale) or "tiny" (the self-test scale).
  std::string scale = "bench";
  /// Directory holding uw_serve / uw_router.
  std::string bin_dir;
  /// Directory holding the committed paper-method ranking digests.
  std::string data_dir;
  /// Working directory for caches, logs and port files.
  std::string work_dir;
  /// Self-test fault injection: flips one id in every 64th checked
  /// ranking before comparison, so the checker must report failures.
  bool corrupt = false;
  /// Writes the paper-method digest file to this path instead of running
  /// a workload.
  std::string write_digest;
  bool tiny() const { return scale == "tiny"; }
};

/// Raw samples; every percentile the benchmark reports comes from these,
/// never from the program's bucketed histograms.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  /// Nearest-rank percentile, q in [0, 1]; 0 when empty.
  double Pct(double q) const;
  double Mean() const;
  double Sum() const;

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
};

/// Median of a few repeated measurements (set-up times).
double Median(std::vector<double> values);

/// The run's result: named metrics with units, request accounting, and
/// the per-layer table printed by traced runs.
class Result {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const;
  /// Adds `n` attempted operations of which `failed` failed.
  void Count(int64_t attempted, int64_t failed);
  void Fail(const std::string& why);
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  bool correct() const { return correct_ && failed_ == 0; }

  /// One row of the traced per-layer table.
  void Layer(const std::string& name, const Samples& self_us, double share,
             const std::string& work);
  void PrintLayerTable() const;

  /// Unit the metric was reported with ("" when not reported).
  std::string UnitOf(const std::string& name) const;
  double ValueOf(const std::string& name) const;

  /// The final line: {"correct", "attempted", "failed", "metrics"} with
  /// the metrics named in `names`.
  std::string Json(const std::vector<std::string>& names) const;

 private:
  struct Metric {
    double value = 0;
    std::string unit;
  };
  struct Row {
    std::string name;
    size_t n = 0;
    double p50 = 0, p99 = 0, share = 0;
    std::string work;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<Row> rows_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  bool correct_ = true;
};

/// Host fingerprint printed with every result: nproc, CPU model,
/// compiler flags, UW_THREADS, the workload seed, and the resolved knobs
/// of each server process (their /statusz lines).
class Fingerprint {
 public:
  explicit Fingerprint(const Options& options);
  void AddServer(const std::string& role, const std::string& statusz,
                 const std::map<std::string, std::string>& env);
  std::string Json() const;

 private:
  std::string base_;
  std::vector<std::string> servers_;
};

/// STREAM triad (a = b + s*c) over three 32 MiB double arrays on one
/// thread, best of five, in GB/s (24 bytes per element: two reads, one
/// write). The working set is the same order as the 100k store's rows,
/// so this is the bandwidth the single-threaded centroid scan could reach.
double StreamTriadGbps();

/// A spawned child process (a server). Stop() signals and waits;
/// the destructor kills and reaps a child that is still running.
class Child {
 public:
  Child() = default;
  Child(Child&& other) noexcept;
  Child& operator=(Child&& other) noexcept;
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;
  ~Child();

  /// Spawns argv[0] with the current environment plus `env`, stdout and
  /// stderr appended to `log_path`.
  static StatusOr<Child> Spawn(const std::vector<std::string>& argv,
                               const std::map<std::string, std::string>& env,
                               const std::string& log_path);
  pid_t pid() const { return pid_; }
  /// Peak resident set (VmHWM) in MiB; 0 once the child has exited.
  double PeakRssMb() const;
  /// Sends `signum`.
  void Signal(int signum) const;
  /// SIGTERM, wait up to `grace_ms`, then SIGKILL; always reaps.
  void Stop(int grace_ms = 5000);

 private:
  pid_t pid_ = -1;
};

/// Reads a port number written by a server into `path`; polls until the
/// file holds one, the child dies, or `timeout_ms` passes (0 = failure).
int WaitForPortFile(const std::string& path, const Child& child,
                    int timeout_ms);

/// HTTP/1.0 GET against the admin listener; returns the body.
StatusOr<std::string> HttpGet(int port, const std::string& path);

/// Value of a Prometheus sample line "<name> <value>" (0 when absent).
double PromValue(const std::string& body, const std::string& name);

/// One request trace read back from /slowz: the end-to-end total and the
/// summed durations of the named stages.
struct ServerTrace {
  uint64_t trace_id = 0;
  int64_t total_us = 0;
  std::map<std::string, int64_t> stage_us;
};
std::vector<ServerTrace> ParseSlowz(const std::string& body);

/// Minimal reader of the profile JSON (obs::ExportProfileJson: the
/// SIGUSR1 dump, or an in-process snapshot): the summed total_ns of every
/// node named `name`, wherever it sits in the tree.
int64_t ProfileTotalNs(const std::string& profile_json,
                       const std::string& name);
std::string ReadFile(const std::string& path);
void RemoveTree(const std::string& path);
void MakeDirs(const std::string& path);

/// Draws `count` distinct elements of `pool` (count clipped to its size).
std::vector<EntityId> Sample(std::mt19937_64& rng,
                             const std::vector<EntityId>& pool, int count);

/// One request of a workload stream: the method, the query, and the index
/// of its reference ranking.
struct Request {
  std::string method;
  Query query;
  size_t ref = 0;
};

/// Outcome of one request at the engine level.
using Ranking = std::vector<EntityId>;

/// Reference rankings a workload checks every answer against.
class Checker {
 public:
  Checker(std::vector<Ranking> references, bool corrupt)
      : references_(std::move(references)), corrupt_(corrupt) {}
  /// True when `got` is OK and bit-identical to the reference.
  bool Check(const Request& request, const StatusOr<Ranking>& got);
  /// Mean share of each reference top-50 found in the answer's top-50,
  /// over every answer checked (a failed request scores 0).
  double RecallAt50() const;

 private:
  std::vector<Ranking> references_;
  bool corrupt_;
  std::atomic<uint64_t> checked_{0};
  std::atomic<int64_t> recall_hits_{0};
  std::atomic<int64_t> recall_possible_{0};
};

/// One client lane: a connection (or an in-process caller) that serves
/// its requests in order.
class Lane {
 public:
  virtual ~Lane() = default;
  /// Synchronous request.
  virtual StatusOr<Ranking> Call(const Request& request) = 0;
  /// Pipelined lanes send at due time and read replies as they come; the
  /// default lane executes synchronously.
  virtual int fd() const { return -1; }
  virtual Status Send(const Request& request) {
    (void)request;
    return Status::Internal("not pipelined");
  }
  virtual StatusOr<Ranking> Receive() {
    return Status::Internal("not pipelined");
  }
};
using LaneFactory = std::function<std::unique_ptr<Lane>()>;

/// Result of one load phase.
struct Phase {
  Samples latency_ms;   // per request, from due time (open) or send (closed)
  Samples late_ms;      // open loop: send time minus due time
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Open loop: age at window end of the oldest request still unanswered.
  double oldest_pending_ms = 0;
  double seconds = 0;
  double qps() const { return seconds > 0 ? attempted / seconds : 0; }
};

/// The seeded request stream: `Next(lane)` yields the lane's next request.
class Stream {
 public:
  Stream(const std::vector<Request>* requests, uint64_t seed, int lanes);
  const Request& Next(int lane);

 private:
  const std::vector<Request>* requests_;
  std::vector<std::mt19937_64> rngs_;
};

/// Closed loop: `lanes` fire-and-wait lanes for `seconds`.
Phase RunClosedLoop(const LaneFactory& factory, int lanes, Stream& stream,
                    Checker& checker, double seconds);

/// Open loop: Poisson arrivals at `rate` split across `lanes` (each lane a
/// Poisson stream of rate/lanes), every request timed from its due time.
Phase RunOpenLoop(const LaneFactory& factory, int lanes, Stream& stream,
                  Checker& checker, double rate, double seconds,
                  uint64_t seed);

/// The serving limits of one workload.
struct LoadSpec {
  int lanes = 4;
  double p99_limit_ms = 10;
  /// Fixed absolute open-loop rates (about 25% / 75% of goodput).
  double low_rps = 100;
  double high_rps = 300;
};

/// True when a phase meets the workload's limit: no failures, p99 within
/// the limit, and no request pending at window end for longer than the
/// limit (the backlog is not growing).
bool MeetsLimit(const Phase& phase, const LoadSpec& spec);

/// The four serving metrics plus closed-loop qps/p50/p99, measured with
/// the run's time budget split across the phases (15% closed loop, 35%
/// low rate, 25% high rate, interleaved in three slices; 25% for the
/// goodput ladder above the high rate). Adds every phase's requests to
/// `result`.
void MeasureServing(const LaneFactory& factory, const LoadSpec& spec,
                    const std::vector<Request>& requests, Checker& checker,
                    const Options& options, Result& result);

/// Hash of a ranking (FNV-1a over the ids), for committed digests.
uint64_t RankingDigest(const Ranking& ranking);

}  // namespace uwbench

#endif  // UWBENCH_HARNESS_H_
