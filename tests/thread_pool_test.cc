// Unit tests for the work-stealing ThreadPool plus its central
// guarantee: every parallel stage (entity-store build, per-query
// evaluation) produces bit-identical results at UW_THREADS=1 and
// UW_THREADS=8. Batched BM25 is covered by index_test's SearchBatch
// cases.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "eval/evaluator.h"
#include "eval/significance.h"
#include "expand/pipeline.h"
#include "obs/metrics.h"

namespace ultrawiki {
namespace {

// ------------------------------------------------------------ Pool unit.

TEST(ThreadPoolTest, DefaultThreadCountReadsEnv) {
  ASSERT_EQ(unsetenv("UW_THREADS"), 0);
  const int hardware = ThreadPool::DefaultThreadCount();
  EXPECT_GE(hardware, 1);
  ASSERT_EQ(setenv("UW_THREADS", "3", /*overwrite=*/1), 0);
  EXPECT_EQ(ThreadPool::DefaultThreadCount(), 3);
  // Malformed values fall back to the hardware default; "64k" must not
  // be truncated to 64.
  for (const char* bad : {"not-a-number", "64k"}) {
    ASSERT_EQ(setenv("UW_THREADS", bad, 1), 0);
    EXPECT_EQ(ThreadPool::DefaultThreadCount(), hardware) << bad;
  }
  ASSERT_EQ(unsetenv("UW_THREADS"), 0);
}

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    constexpr int64_t kN = 10000;
    std::vector<std::atomic<int>> visits(kN);
    for (auto& v : visits) v.store(0);
    pool.ParallelFor(0, kN, /*grain=*/7,
                     [&](int64_t i) { visits[static_cast<size_t>(i)]++; });
    for (int64_t i = 0; i < kN; ++i) {
      ASSERT_EQ(visits[static_cast<size_t>(i)].load(), 1) << "index " << i;
    }
  }
}

TEST(ThreadPoolTest, SetGlobalThreadCountRefusedWhileWorkInFlight) {
  ASSERT_TRUE(ThreadPool::SetGlobalThreadCount(4).ok());
  ThreadPool& pool = ThreadPool::Global();
  EXPECT_EQ(pool.inflight(), 0);
  std::atomic<int> rejected{0};
  pool.ParallelFor(0, 64, /*grain=*/1, [&](int64_t) {
    // Every lane is inside in-flight work: a swap here would destroy the
    // pool out from under its own tasks, so it must fail loudly instead.
    EXPECT_GE(ThreadPool::Global().inflight(), 1);
    const Status status = ThreadPool::SetGlobalThreadCount(2);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
    rejected.fetch_add(1);
  });
  EXPECT_EQ(rejected.load(), 64);
  // Quiescent again: the swap succeeds and resolves the default count.
  EXPECT_EQ(pool.inflight(), 0);
  EXPECT_TRUE(ThreadPool::SetGlobalThreadCount(0).ok());
}

TEST(ThreadPoolTest, ParallelForHandlesEmptyAndTinyRanges) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(5, 5, 1, [&](int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(3, 4, 0, [&](int64_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 3);
}

TEST(ThreadPoolTest, ParallelMapPreservesIndexOrder) {
  for (int threads : {1, 8}) {
    ThreadPool pool(threads);
    const std::vector<int64_t> out = pool.ParallelMap<int64_t>(
        5000, [](int64_t i) { return i * i; });
    ASSERT_EQ(out.size(), 5000u);
    for (int64_t i = 0; i < 5000; ++i) {
      ASSERT_EQ(out[static_cast<size_t>(i)], i * i);
    }
  }
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::vector<int64_t> totals = pool.ParallelMap<int64_t>(32, [&](int64_t) {
    // Re-entering the pool from a pool task must not deadlock; the inner
    // loop runs inline on the current lane.
    int64_t inner = 0;
    pool.ParallelFor(0, 100, 10, [&](int64_t j) { inner += j; });
    return inner;
  });
  for (int64_t total : totals) EXPECT_EQ(total, 4950);
}

TEST(ThreadPoolTest, TaskScopeKeepsParallelForOnTheCallingThread) {
  ThreadPool pool(4);
  const auto threads_used = [&pool] {
    std::vector<std::thread::id> ids(64);
    pool.ParallelFor(0, 64, /*grain=*/1, [&](int64_t i) {
      ids[static_cast<size_t>(i)] = std::this_thread::get_id();
      // Long enough that the workers take chunks while the caller runs.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    });
    return std::set<std::thread::id>(ids.begin(), ids.end());
  };
  const int64_t submitted_before =
      obs::GetCounter("pool.tasks_submitted").Value();
  {
    ThreadPool::TaskScope scope;
    {
      // Scopes nest: leaving the inner one keeps the outer mark.
      ThreadPool::TaskScope inner;
    }
    EXPECT_EQ(threads_used(),
              std::set<std::thread::id>{std::this_thread::get_id()});
  }
  EXPECT_EQ(obs::GetCounter("pool.tasks_submitted").Value(),
            submitted_before);
  // Outside the scope the loop fans out again.
  EXPECT_GT(threads_used().size(), 1u);
}

TEST(ThreadPoolTest, SingleLanePoolSpawnsNoWorkers) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1);
  int64_t sum = 0;  // safe without atomics: exact sequential fallback
  pool.ParallelFor(0, 1000, 0, [&](int64_t i) { sum += i; });
  EXPECT_EQ(sum, 499500);
}

// ----------------------------------------------------- Pool metrics.

/// Point-in-time copy of the pool.* instrumentation (see
/// common/thread_pool.cc).
struct PoolMetricsValues {
  int64_t submitted;
  int64_t run;
  int64_t steals;
  int64_t assists;

  static PoolMetricsValues Read() {
    return PoolMetricsValues{
        obs::GetCounter("pool.tasks_submitted").Value(),
        obs::GetCounter("pool.tasks_run").Value(),
        obs::GetCounter("pool.steals").Value(),
        obs::GetCounter("pool.assist_runs").Value()};
  }
};

TEST(ThreadPoolMetricsTest, SequentialFallbackTouchesNoPoolMetrics) {
  ThreadPool pool(1);
  const PoolMetricsValues before = PoolMetricsValues::Read();
  int64_t sum = 0;
  pool.ParallelFor(0, 5000, /*grain=*/0, [&](int64_t i) { sum += i; });
  const PoolMetricsValues after = PoolMetricsValues::Read();
  EXPECT_EQ(sum, 5000 * 4999 / 2);
  // One lane never creates tasks, so every delta must be zero.
  EXPECT_EQ(after.submitted - before.submitted, 0);
  EXPECT_EQ(after.run - before.run, 0);
  EXPECT_EQ(after.steals - before.steals, 0);
  EXPECT_EQ(after.assists - before.assists, 0);
}

TEST(ThreadPoolMetricsTest, ParallelRunMetricsAreSelfConsistent) {
  ThreadPool pool(8);
  const PoolMetricsValues before = PoolMetricsValues::Read();
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(0, 10000, /*grain=*/7, [&](int64_t i) { sum += i; });
  const PoolMetricsValues after = PoolMetricsValues::Read();
  EXPECT_EQ(sum.load(), int64_t{10000} * 9999 / 2);
  const int64_t submitted = after.submitted - before.submitted;
  const int64_t run = after.run - before.run;
  // 10000 indices at grain 7 -> ceil(10000/7) chunks, all of which must
  // have run exactly once by the time ParallelFor returns.
  EXPECT_EQ(submitted, (10000 + 6) / 7);
  EXPECT_EQ(run, submitted);
  // Steals and submitter assists are scheduling-dependent, but each one
  // consumes a queued task, so neither can exceed the tasks that ran.
  EXPECT_GE(after.steals - before.steals, 0);
  EXPECT_GE(after.assists - before.assists, 0);
  EXPECT_LE((after.steals - before.steals) + (after.assists - before.assists),
            run);
  // Tasks were queued, so the high-water mark must register at least one.
  EXPECT_GE(obs::GetGauge("pool.peak_queue_depth").Value(), 1);
}

// ------------------------------------------- End-to-end determinism.

class PoolDeterminismTest : public ::testing::Test {
 protected:
  ~PoolDeterminismTest() override {
    EXPECT_TRUE(ThreadPool::SetGlobalThreadCount(0).ok());  // restore default
  }

  /// Everything a Tiny run produces through the parallel stages: the
  /// per-query rankings, CombMAP values, aggregate eval maps, and a
  /// batched BM25 score matrix.
  struct RunOutputs {
    std::vector<std::vector<EntityId>> rankings;
    std::vector<double> comb_map;
    EvalResult eval;
  };

  static RunOutputs RunTiny(int threads) {
    UW_CHECK_OK(ThreadPool::SetGlobalThreadCount(threads));
    // The pipeline build itself exercises EntityStore::Build and the
    // batched BM25 hard-negative mining under `threads` lanes.
    Pipeline pipeline = Pipeline::Build(PipelineConfig::Tiny());
    auto retexpan = pipeline.MakeRetExpan();
    RunOutputs out;
    for (const Query& query : pipeline.dataset().queries) {
      out.rankings.push_back(retexpan->Expand(query, 50));
    }
    out.comb_map = PerQueryCombMap(*retexpan, pipeline.dataset(), 50);
    out.eval = EvaluateExpander(*retexpan, pipeline.dataset());
    return out;
  }
};

TEST_F(PoolDeterminismTest, TinyRunBitIdenticalAcrossThreadCounts) {
  const RunOutputs seq = RunTiny(1);
  const RunOutputs par = RunTiny(8);

  ASSERT_FALSE(seq.rankings.empty());
  ASSERT_EQ(seq.rankings.size(), par.rankings.size());
  for (size_t q = 0; q < seq.rankings.size(); ++q) {
    ASSERT_EQ(seq.rankings[q], par.rankings[q]) << "query " << q;
  }

  ASSERT_EQ(seq.comb_map.size(), par.comb_map.size());
  for (size_t q = 0; q < seq.comb_map.size(); ++q) {
    // Exact equality on purpose: the ordered reduction must make the
    // parallel path bit-identical, not merely close.
    ASSERT_EQ(seq.comb_map[q], par.comb_map[q]) << "query " << q;
  }

  EXPECT_EQ(seq.eval.query_count, par.eval.query_count);
  for (const auto& [k, v] : seq.eval.pos_map) {
    ASSERT_EQ(v, par.eval.pos_map.at(k)) << "pos_map@" << k;
    ASSERT_EQ(seq.eval.neg_map.at(k), par.eval.neg_map.at(k));
    ASSERT_EQ(seq.eval.pos_p.at(k), par.eval.pos_p.at(k));
    ASSERT_EQ(seq.eval.neg_p.at(k), par.eval.neg_p.at(k));
  }
}

}  // namespace
}  // namespace ultrawiki
