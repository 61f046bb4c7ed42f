#ifndef ULTRAWIKI_OBS_METRICS_H_
#define ULTRAWIKI_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ultrawiki {
namespace obs {

/// Process-global metrics: named counters, gauges, and fixed-bucket
/// histograms. Hot-path updates are lock-free — every metric keeps a small
/// array of cache-line-padded atomic cells and each thread writes the cell
/// it hashed to, so concurrent increments from the work-stealing pool never
/// contend on one line. Cells are summed only at snapshot time.
///
/// Metrics are always on (they are cheap relaxed atomics); only tracing
/// (trace.h) is gated behind `UW_TRACE`. All values are integers so that
/// aggregation is associative and two identical runs snapshot to identical
/// bytes regardless of thread scheduling.

inline constexpr int kMetricShards = 16;

namespace internal {
/// Stable per-thread cell index in [0, kMetricShards).
int ShardIndex();

struct alignas(64) Cell {
  std::atomic<int64_t> value{0};
};
}  // namespace internal

/// Monotonically increasing sum. `Value()` is exact once the writers'
/// work has been joined (the pool's completion edge publishes increments).
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Increment(int64_t delta = 1) {
    cells_[static_cast<size_t>(internal::ShardIndex())].value.fetch_add(
        delta, std::memory_order_relaxed);
  }
  int64_t Value() const;
  const std::string& name() const { return name_; }

  /// Zeroes the cells. Test-only; callers must be quiescent.
  void Reset();

 private:
  std::string name_;
  std::array<internal::Cell, kMetricShards> cells_;
};

/// Last-write-wins scalar with an additional monotone-max update (used for
/// peaks such as queue depth).
class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void UpdateMax(int64_t value);
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

  /// Zeroes the gauge. Test-only; callers must be quiescent.
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::string name_;
  std::atomic<int64_t> value_{0};
};

/// Aggregated histogram state read out of a snapshot.
struct HistogramData {
  /// Inclusive upper bounds, ascending; bucket i counts values
  /// <= bounds[i], the final implicit bucket counts the overflow.
  std::vector<int64_t> bounds;
  std::vector<int64_t> bucket_counts;  // bounds.size() + 1 entries
  int64_t count = 0;
  int64_t sum = 0;
  int64_t min = 0;  // 0 when count == 0
  int64_t max = 0;  // 0 when count == 0
};

/// Fixed-bucket histogram over int64 values (timings are recorded in
/// microseconds so sums stay exact and order-independent).
class Histogram {
 public:
  Histogram(std::string name, std::vector<int64_t> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(int64_t value);
  HistogramData Aggregate() const;
  const std::string& name() const { return name_; }

  /// Zeroes all cells. Test-only; callers must be quiescent.
  void Reset();

 private:
  struct alignas(64) HistCell {
    explicit HistCell(size_t buckets) : bucket_counts(buckets) {}
    std::vector<std::atomic<int64_t>> bucket_counts;
    std::atomic<int64_t> count{0};
    std::atomic<int64_t> sum{0};
    std::atomic<int64_t> min{INT64_MAX};
    std::atomic<int64_t> max{INT64_MIN};
  };

  std::string name_;
  std::vector<int64_t> bounds_;
  std::vector<std::unique_ptr<HistCell>> cells_;
};

/// Sliding-window histogram: the same fixed-bucket state as Histogram,
/// but held in `slot_count` rotating fixed-width time slots so an
/// aggregate reflects only the last `slot_count * slot_width_ms`
/// milliseconds (~60s with the defaults) instead of the process
/// lifetime. Serving dashboards read their p50/p99 from these; the
/// lifetime Histogram stays the deterministic bench/CI artifact.
///
/// A slot is keyed by its epoch (now / slot_width_ms); observing into a
/// slot whose stored epoch is stale resets it first, so slots left empty
/// while traffic was idle — or leapt over by a clock step — never leak
/// old samples into the window. Updates take a mutex: window reads and
/// rotation are coupled, and the observe rate (one per served request)
/// is far below the lock-free hot-path counters'.
///
/// All methods taking an explicit `now_ms` exist for tests (injected
/// clock); production callers use the steady-clock overloads.
class WindowedHistogram {
 public:
  WindowedHistogram(std::string name, std::vector<int64_t> bounds,
                    int64_t slot_width_ms, int slot_count);
  WindowedHistogram(const WindowedHistogram&) = delete;
  WindowedHistogram& operator=(const WindowedHistogram&) = delete;

  void Observe(int64_t value);
  void ObserveAtMs(int64_t value, int64_t now_ms);

  /// Aggregate over the slots still inside the window ending at `now`.
  HistogramData Aggregate() const;
  HistogramData AggregateAtMs(int64_t now_ms) const;

  const std::string& name() const { return name_; }

  /// Clears every slot. Test-only; callers must be quiescent.
  void Reset();

 private:
  struct Slot {
    int64_t epoch = -1;  // -1 = never written
    std::vector<int64_t> bucket_counts;
    int64_t count = 0;
    int64_t sum = 0;
    int64_t min = 0;
    int64_t max = 0;
  };

  void ResetSlotLocked(Slot& slot, int64_t epoch);

  std::string name_;
  std::vector<int64_t> bounds_;
  int64_t slot_width_ms_;
  int slot_count_;
  mutable std::mutex mutex_;
  std::vector<Slot> slots_;
};

/// Returns the process-global metric with `name`, creating it on first
/// use. References stay valid for the process lifetime; call sites cache
/// them in a function-local static:
///
///   static obs::Counter& scanned = obs::GetCounter("bm25.postings_scanned");
///   scanned.Increment(n);
Counter& GetCounter(const std::string& name);
Gauge& GetGauge(const std::string& name);
/// `bounds` is consulted only on first registration of `name`.
Histogram& GetHistogram(const std::string& name, std::vector<int64_t> bounds);
/// `bounds`/geometry are consulted only on first registration. The
/// defaults give a ~60s window (12 full 5s slots + the forming one).
WindowedHistogram& GetWindowedHistogram(const std::string& name,
                                        std::vector<int64_t> bounds,
                                        int64_t slot_width_ms = 5000,
                                        int slot_count = 13);

/// Deterministic bucket-resolution percentile (`percentile` in [0, 100]).
/// Integer math only: the rank is ceil(count * percentile / 100) and the
/// result is the inclusive upper bound of the bucket holding that rank
/// (clamped to the observed max; the overflow bucket reports the max), so
/// identical runs export identical bytes regardless of thread scheduling.
/// Returns 0 when the histogram is empty.
int64_t HistogramPercentile(const HistogramData& data, int percentile);

/// Geometric-ish bucket bounds for request latencies, in microseconds.
const std::vector<int64_t>& LatencyBoundsUs();

/// Point-in-time copy of every registered metric, key-sorted. Windowed
/// histograms are folded into `histograms` under their registered name
/// (call sites suffix them, e.g. "serve.latency_us.1m"), so every
/// exporter renders them without special cases.
struct MetricsSnapshot {
  std::map<std::string, int64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramData> histograms;
};

MetricsSnapshot SnapshotMetrics();

/// Zeroes every registered metric (registrations survive). Test-only:
/// callers must ensure no concurrent updates are in flight.
void ResetMetricsForTest();

}  // namespace obs
}  // namespace ultrawiki

#endif  // ULTRAWIKI_OBS_METRICS_H_
