#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <numeric>
#include <string>

#include "common/rng.h"
#include "math/matrix.h"
#include "math/sampling.h"
#include "math/simd_kernels.h"
#include "math/softmax.h"
#include "math/topk.h"
#include "math/vec.h"

namespace ultrawiki {
namespace {

// ------------------------------------------------------------------ vec.

TEST(VecTest, Dot) {
  Vec a = {1.0f, 2.0f, 3.0f};
  Vec b = {4.0f, -5.0f, 6.0f};
  EXPECT_FLOAT_EQ(Dot(a, b), 4.0f - 10.0f + 18.0f);
}

TEST(VecTest, Axpy) {
  Vec x = {1.0f, 2.0f};
  Vec y = {10.0f, 20.0f};
  Axpy(2.0f, x, y);
  EXPECT_FLOAT_EQ(y[0], 12.0f);
  EXPECT_FLOAT_EQ(y[1], 24.0f);
}

TEST(VecTest, NormAndNormalize) {
  Vec v = {3.0f, 4.0f};
  EXPECT_FLOAT_EQ(Norm(v), 5.0f);
  NormalizeInPlace(v);
  EXPECT_NEAR(Norm(v), 1.0f, 1e-6f);
}

TEST(VecTest, NormalizeZeroVectorIsNoop) {
  Vec v = {0.0f, 0.0f};
  NormalizeInPlace(v);
  EXPECT_FLOAT_EQ(v[0], 0.0f);
}

// --------------------------------------------------------------- matrix.

TEST(MatrixTest, RowAccessAndAt) {
  Matrix m(2, 3);
  m.At(1, 2) = 5.0f;
  EXPECT_FLOAT_EQ(m.Row(1)[2], 5.0f);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
}

TEST(MatrixTest, MatVec) {
  Matrix m(2, 2);
  m.At(0, 0) = 1.0f;
  m.At(0, 1) = 2.0f;
  m.At(1, 0) = 3.0f;
  m.At(1, 1) = 4.0f;
  Vec x = {5.0f, 6.0f};
  Vec y(2, 0.0f);
  m.MatVec(x, y);
  EXPECT_FLOAT_EQ(y[0], 17.0f);
  EXPECT_FLOAT_EQ(y[1], 39.0f);
}

TEST(MatrixTest, MatTVecIsTranspose) {
  Matrix m(2, 3);
  Rng rng(5);
  m.InitUniform(rng, 1.0f);
  Vec x = {1.0f, -2.0f};
  Vec y(3, 0.0f);
  m.MatTVec(x, y);
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_NEAR(y[c], m.At(0, c) * 1.0f + m.At(1, c) * -2.0f, 1e-6f);
  }
}

TEST(MatrixTest, InitUniformWithinScale) {
  Matrix m(10, 10);
  Rng rng(7);
  m.InitUniform(rng, 0.25f);
  for (float v : m.Flat()) {
    EXPECT_GE(v, -0.25f);
    EXPECT_LE(v, 0.25f);
  }
}

// -------------------------------------------------------------- softmax.

TEST(SoftmaxTest, SumsToOne) {
  Vec logits = {1.0f, 2.0f, 3.0f};
  SoftmaxInPlace(logits);
  EXPECT_NEAR(logits[0] + logits[1] + logits[2], 1.0f, 1e-6f);
  EXPECT_GT(logits[2], logits[1]);
  EXPECT_GT(logits[1], logits[0]);
}

TEST(SoftmaxTest, StableUnderLargeLogits) {
  Vec logits = {1000.0f, 1000.0f};
  SoftmaxInPlace(logits);
  EXPECT_NEAR(logits[0], 0.5f, 1e-6f);
}

// ------------------------------------------------------------- sampling.

TEST(AliasTableTest, MatchesWeights) {
  std::vector<double> weights = {1.0, 2.0, 7.0};
  AliasTable table(weights);
  EXPECT_NEAR(table.ProbabilityOf(0), 0.1, 1e-12);
  EXPECT_NEAR(table.ProbabilityOf(2), 0.7, 1e-12);
  Rng rng(3);
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 30000; ++i) ++counts[table.Sample(rng)];
  EXPECT_NEAR(counts[0] / 30000.0, 0.1, 0.01);
  EXPECT_NEAR(counts[1] / 30000.0, 0.2, 0.01);
  EXPECT_NEAR(counts[2] / 30000.0, 0.7, 0.01);
}

TEST(AliasTableTest, HandlesZeroWeightEntries) {
  std::vector<double> weights = {0.0, 1.0};
  AliasTable table(weights);
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(table.Sample(rng), 1u);
  }
}

TEST(AliasTableTest, SingleEntry) {
  AliasTable table({5.0});
  Rng rng(7);
  EXPECT_EQ(table.Sample(rng), 0u);
}

// ----------------------------------------------------------------- topk.

TEST(TopKTest, ReturnsSortedTop) {
  std::vector<float> scores = {0.1f, 0.9f, 0.5f, 0.7f};
  const auto top = TopK(scores, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].index, 1u);
  EXPECT_EQ(top[1].index, 3u);
}

TEST(TopKTest, KLargerThanInput) {
  std::vector<float> scores = {0.3f, 0.1f};
  const auto top = TopK(scores, 10);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].index, 0u);
}

TEST(TopKTest, TieBreaksByIndex) {
  std::vector<float> scores = {0.5f, 0.5f, 0.5f};
  const auto top = TopK(scores, 3);
  EXPECT_EQ(top[0].index, 0u);
  EXPECT_EQ(top[1].index, 1u);
  EXPECT_EQ(top[2].index, 2u);
}

TEST(TopKTest, EmptyInput) {
  EXPECT_TRUE(TopK({}, 5).empty());
}

TEST(SortByScoreTest, Descending) {
  std::vector<ScoredIndex> pairs = {{0.2f, 0}, {0.8f, 1}, {0.5f, 2}};
  SortByScoreDescending(pairs);
  EXPECT_EQ(pairs[0].index, 1u);
  EXPECT_EQ(pairs[2].index, 0u);
}

TEST(TopKTest, KZeroReturnsEmpty) {
  EXPECT_TRUE(TopK({0.4f, 0.2f}, 0).empty());
  EXPECT_TRUE(TopKOfPairs({{0.4f, 0}, {0.2f, 1}}, 0).empty());
}

TEST(TopKTest, AllDuplicateScoresOrderByIndex) {
  std::vector<float> scores(8, 0.25f);
  const auto top = TopK(scores, 5);
  ASSERT_EQ(top.size(), 5u);
  for (size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(top[i].index, i);
    EXPECT_FLOAT_EQ(top[i].score, 0.25f);
  }
}

// Regression: a bare `a.score > b.score` comparator is not a strict weak
// ordering when NaN is present (NaN > x and x > NaN are both false while
// NaN != x), which makes std::partial_sort UB. RanksBefore must rank NaN
// after every real score with the index tie-break, deterministically.
TEST(TopKTest, NaNScoresSortLastDeterministically) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> scores = {0.3f, nan, 0.9f, nan, -1.0f, 0.9f};
  const auto all = TopK(scores, scores.size());
  ASSERT_EQ(all.size(), scores.size());
  EXPECT_EQ(all[0].index, 2u);  // 0.9 first by index
  EXPECT_EQ(all[1].index, 5u);
  EXPECT_EQ(all[2].index, 0u);
  EXPECT_EQ(all[3].index, 4u);
  EXPECT_EQ(all[4].index, 1u);  // NaNs last, index order
  EXPECT_EQ(all[5].index, 3u);
  // NaNs never crowd out real scores in a truncated selection.
  const auto top = TopK(scores, 4);
  for (const ScoredIndex& s : top) {
    EXPECT_FALSE(std::isnan(s.score)) << "index " << s.index;
  }
  // partial_sort path (TopKOfPairs) agrees with the streaming path.
  std::vector<ScoredIndex> pairs;
  for (size_t i = 0; i < scores.size(); ++i) {
    pairs.push_back(ScoredIndex{scores[i], i});
  }
  EXPECT_EQ(TopKOfPairs(pairs, 4), top);
}

TEST(RanksBeforeTest, IsStrictAndTotalWithNaN) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<ScoredIndex> elems = {
      {0.5f, 0}, {0.5f, 1}, {nan, 2}, {nan, 3}, {-0.5f, 4}};
  for (const ScoredIndex& a : elems) {
    EXPECT_FALSE(RanksBefore(a, a));  // irreflexive
    for (const ScoredIndex& b : elems) {
      if (a.index == b.index) continue;
      // Totality: distinct elements are always strictly ordered one way.
      EXPECT_NE(RanksBefore(a, b), RanksBefore(b, a));
    }
  }
}

// ----------------------------------------------------------- TopKStream.

TEST(TopKStreamTest, MatchesTopKOfPairsOnRandomData) {
  Rng rng(17);
  for (const size_t n : {0u, 1u, 7u, 100u}) {
    for (const size_t k : {0u, 1u, 5u, 100u, 200u}) {
      std::vector<ScoredIndex> pairs;
      TopKStream stream(k);
      for (size_t i = 0; i < n; ++i) {
        // Coarse quantization forces plenty of score ties.
        const float score =
            static_cast<float>(rng.UniformUint64(16)) / 16.0f;
        pairs.push_back(ScoredIndex{score, i});
        stream.Push(score, i);
      }
      EXPECT_EQ(stream.TakeSortedDescending(), TopKOfPairs(pairs, k))
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(TopKStreamTest, KeepsBestKAndResetsOnTake) {
  TopKStream stream(2);
  stream.Push(0.1f, 0);
  stream.Push(0.9f, 1);
  stream.Push(0.5f, 2);
  stream.Push(0.7f, 3);
  EXPECT_EQ(stream.size(), 2u);
  const auto top = stream.TakeSortedDescending();
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].index, 1u);
  EXPECT_EQ(top[1].index, 3u);
  EXPECT_EQ(stream.size(), 0u);  // reusable after Take
  stream.Push(0.2f, 9);
  EXPECT_EQ(stream.TakeSortedDescending().front().index, 9u);
}

TEST(TopKStreamTest, NaNRanksBelowEveryRealScore) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  TopKStream stream(2);
  stream.Push(nan, 0);
  stream.Push(-5.0f, 1);
  stream.Push(nan, 2);
  const auto top = stream.TakeSortedDescending();
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].index, 1u);
  EXPECT_EQ(top[1].index, 0u);  // lower-index NaN retained
}

// -------------------------------------------------------- simd kernels.

TEST(SimdKernelsTest, DotBlockedMatchesDoubleReference) {
  Rng rng(23);
  for (const size_t dim : {0u, 1u, 3u, 8u, 17u, 256u, 1000u}) {
    Vec a(dim);
    Vec b(dim);
    for (size_t i = 0; i < dim; ++i) {
      a[i] = static_cast<float>(rng.UniformUint64(2000)) / 1000.0f - 1.0f;
      b[i] = static_cast<float>(rng.UniformUint64(2000)) / 1000.0f - 1.0f;
    }
    double want = 0.0;
    for (size_t i = 0; i < dim; ++i) {
      want += static_cast<double>(a[i]) * static_cast<double>(b[i]);
    }
    EXPECT_NEAR(DotBlocked(a, b), want, 1e-9) << "dim " << dim;
    double want_sq = 0.0;
    for (size_t i = 0; i < dim; ++i) {
      want_sq += static_cast<double>(a[i]) * static_cast<double>(a[i]);
    }
    EXPECT_NEAR(SquaredNormBlocked(a), want_sq, 1e-9);
    EXPECT_NEAR(NormBlocked(a), std::sqrt(want_sq), 1e-9);
  }
}

TEST(SimdKernelsTest, DotBatchScoresEveryRow) {
  const size_t dim = 24;
  const size_t rows = 7;
  Rng rng(29);
  std::vector<float> matrix(rows * dim);
  Vec query(dim);
  for (float& v : matrix) {
    v = static_cast<float>(rng.UniformUint64(100)) / 50.0f - 1.0f;
  }
  for (float& v : query) {
    v = static_cast<float>(rng.UniformUint64(100)) / 50.0f - 1.0f;
  }
  const std::vector<float> out = ScoreMany(matrix, dim, query);
  ASSERT_EQ(out.size(), rows);
  for (size_t r = 0; r < rows; ++r) {
    const std::span<const float> row(matrix.data() + r * dim, dim);
    EXPECT_EQ(out[r], static_cast<float>(DotBlocked(row, query)));
  }
}

/// Input regimes of the byte-identity tests.
enum class Inputs {
  /// Ordinary values mixed with ±0 and denormals.
  kFinite,
  /// Ordinary values mixed with NaN and ±inf, so inf * 0 makes the
  /// default NaN and NaN meets NaN of the other sign inside the lanes.
  kNonfinite,
  /// Order-revealing rows against an all-ones query: a few 1s plus a
  /// +2^60/-2^60 pair in one lane. A 1 added to a nonzero 2^60 partial
  /// sum is lost and the pair cancels, so the result counts the 1s that
  /// survived, and adding any element to another lane or in another
  /// order changes it. (Sums of a few ordinary products are exact in
  /// double and round alike in float, so they would not show this.)
  kCancel,
};

float KernelInput(Rng& rng, Inputs inputs) {
  const float kSpecials[] = {0.0f,
                             -0.0f,
                             std::numeric_limits<float>::denorm_min(),
                             -3e-40f,
                             std::numeric_limits<float>::max(),
                             std::numeric_limits<float>::quiet_NaN(),
                             std::numeric_limits<float>::infinity(),
                             -std::numeric_limits<float>::infinity()};
  const bool nonfinite = inputs == Inputs::kNonfinite;
  if (rng.UniformUint64(nonfinite ? 32 : 6) == 0) {
    return kSpecials[rng.UniformUint64(nonfinite ? std::size(kSpecials)
                                                 : 4)];
  }
  return rng.UniformFloat(-1.0f, 1.0f);
}

/// Fills the row-major `matrix` (rows of `query.size()` floats) and
/// `query` for one regime (see Inputs).
void FillKernelInputs(Rng& rng, Inputs inputs, std::vector<float>& matrix,
                      Vec& query) {
  if (inputs != Inputs::kCancel) {
    for (float& v : matrix) v = KernelInput(rng, inputs);
    for (float& v : query) v = KernelInput(rng, inputs);
    return;
  }
  const size_t dim = query.size();
  std::fill(query.begin(), query.end(), 1.0f);
  std::fill(matrix.begin(), matrix.end(), 0.0f);
  if (dim == 0) return;
  for (size_t begin = 0; begin < matrix.size(); begin += dim) {
    float* row = matrix.data() + begin;
    for (int one = 0; one < 8; ++one) row[rng.UniformUint64(dim)] = 1.0f;
    // Lane l holds elements l, l + kDotLanes, ...
    const size_t lane = rng.UniformUint64(std::min(dim, kDotLanes));
    const size_t members = (dim - lane + kDotLanes - 1) / kDotLanes;
    if (members < 2) continue;
    const size_t a = rng.UniformUint64(members);
    const size_t b = (a + 1 + rng.UniformUint64(members - 1)) % members;
    row[lane + a * kDotLanes] = std::ldexp(1.0f, 60);
    row[lane + b * kDotLanes] = -std::ldexp(1.0f, 60);
  }
}

/// memcmp, not ==: -0.0f against +0.0f, or two NaNs with different bits,
/// count as a mismatch.
bool SameBytes(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

TEST(SimdKernelsTest, DotGatherAndDotBatchMatchDotBlockedByteForByte) {
  Rng rng(37);
  size_t nan_outputs = 0;
  for (const Inputs inputs :
       {Inputs::kFinite, Inputs::kNonfinite, Inputs::kCancel}) {
    for (const size_t dim : {0u, 1u, 7u, 8u, 9u, 63u, 64u, 65u, 1000u}) {
      for (const size_t rows : {0u, 1u, 3u, 4u, 5u, 67u}) {
        std::vector<float> matrix(rows * dim);
        Vec query(dim);
        FillKernelInputs(rng, inputs, matrix, query);
        const auto row = [&](size_t r) {
          return std::span<const float>(matrix.data() + r * dim, dim);
        };
        std::vector<float> want(rows);
        for (size_t r = 0; r < rows; ++r) {
          want[r] = static_cast<float>(DotBlocked(row(r), query));
          if (std::isnan(want[r])) ++nan_outputs;
        }
        const std::string what = "dim " + std::to_string(dim) + " rows " +
                                 std::to_string(rows) + " inputs " +
                                 std::to_string(static_cast<int>(inputs));
        std::vector<float> batch(rows, 1.0f);
        DotBatch(matrix, dim, query, batch);
        EXPECT_TRUE(SameBytes(batch, want)) << "DotBatch " << what;
        if (dim > 0) {
          EXPECT_TRUE(SameBytes(ScoreMany(matrix, dim, query), want))
              << "ScoreMany " << what;
        }
        // Gather the rows in a shuffled order.
        std::vector<size_t> order(rows);
        std::iota(order.begin(), order.end(), 0);
        rng.Shuffle(order);
        std::vector<const float*> pointers;
        std::vector<float> want_gathered;
        for (const size_t r : order) {
          pointers.push_back(row(r).data());
          want_gathered.push_back(want[r]);
        }
        std::vector<float> gathered(rows, 1.0f);
        DotGather(pointers, query, gathered);
        EXPECT_TRUE(SameBytes(gathered, want_gathered)) << "DotGather " << what;
      }
    }
  }
  EXPECT_GT(nan_outputs, 0u) << "the nonfinite inputs must reach NaN sums";
}

TEST(SimdKernelsTest, DotGatherTakesRepeatedAndAliasedRows) {
  Rng rng(41);
  for (const size_t dim : {1u, 9u, 64u, 65u}) {
    std::vector<float> buffer(4 * dim + 3);
    for (float& v : buffer) v = KernelInput(rng, Inputs::kFinite);
    const std::span<const float> query(buffer.data(), dim);
    // Repeated rows, rows overlapping each other one float apart, and the
    // query buffer itself as a row.
    std::vector<const float*> pointers;
    for (size_t r = 0; r < 13; ++r) {
      pointers.push_back(buffer.data() + (r % 5 == 0 ? 0 : r % 4));
    }
    pointers.push_back(buffer.data() + 2 * dim);
    pointers.push_back(query.data());
    std::vector<float> want;
    for (const float* row : pointers) {
      want.push_back(static_cast<float>(
          DotBlocked(std::span<const float>(row, dim), query)));
    }
    std::vector<float> gathered(pointers.size());
    DotGather(pointers, query, gathered);
    EXPECT_TRUE(SameBytes(gathered, want)) << "dim " << dim;
  }
}

TEST(SimdKernelsTest, DotGatherInt8MatchesScalarIntegerReference) {
  Rng rng(47);
  for (const size_t dim : {1u, 15u, 16u, 17u, 64u, 100u}) {
    for (const size_t rows : {1u, 3u, 4u, 6u, 9u}) {
      // Rows one byte apart inside one buffer, so some start off any
      // alignment, and the extremes -128/127 and -32768/32767 appear.
      std::vector<int8_t> buffer(rows + dim);
      for (int8_t& v : buffer) {
        v = static_cast<int8_t>(static_cast<int>(rng.UniformUint64(256)) -
                                128);
      }
      buffer[0] = -128;
      buffer[buffer.size() - 1] = 127;
      std::vector<int16_t> query(dim);
      for (int16_t& v : query) {
        v = static_cast<int16_t>(
            static_cast<int>(rng.UniformUint64(65536)) - 32768);
      }
      query[0] = -32768;
      query[dim - 1] = 32767;
      std::vector<const int8_t*> pointers;
      std::vector<int32_t> want;
      for (size_t r = 0; r < rows; ++r) {
        pointers.push_back(buffer.data() + r);
        int64_t sum = 0;
        for (size_t i = 0; i < dim; ++i) {
          sum += int64_t{pointers.back()[i]} * int64_t{query[i]};
        }
        ASSERT_LE(std::llabs(sum), int64_t{2147483647});
        want.push_back(static_cast<int32_t>(sum));
      }
      std::vector<int32_t> got(rows, 0);
      DotGatherInt8(pointers, query, got);
      EXPECT_EQ(got, want) << "dim " << dim << " rows " << rows;
    }
  }
}

// Golden-ranking lock for the deterministic accumulation: at a large dim
// with near-tied candidates, a float running sum depends on summation
// order, so rankings could flip whenever kernels change the order. The
// blocked double path must agree with an order-independent(-enough)
// double reference ranking, run-to-run and path-to-path.
TEST(SimdKernelsTest, GoldenRankingStableAtLargeDim) {
  const size_t dim = 4096;
  const size_t n_candidates = 64;
  Rng rng(31);
  Vec query(dim);
  for (float& v : query) {
    v = static_cast<float>(rng.UniformUint64(1u << 20)) /
            static_cast<float>(1u << 19) -
        1.0f;
  }
  // Candidates are tiny perturbations of one base vector: their true
  // scores are separated by far less than the float rounding noise a
  // naive float accumulation produces at this dim.
  Vec base(dim);
  for (float& v : base) {
    v = static_cast<float>(rng.UniformUint64(1u << 20)) /
            static_cast<float>(1u << 19) -
        1.0f;
  }
  std::vector<Vec> candidates(n_candidates, base);
  for (size_t c = 0; c < n_candidates; ++c) {
    candidates[c][c % dim] += 1e-4f * static_cast<float>(c + 1);
  }
  std::vector<float> scores(n_candidates);
  std::vector<double> reference(n_candidates);
  for (size_t c = 0; c < n_candidates; ++c) {
    scores[c] = Dot(candidates[c], query);  // deterministic blocked path
    double sum = 0.0;
    for (size_t i = 0; i < dim; ++i) {
      sum += static_cast<double>(candidates[c][i]) *
             static_cast<double>(query[i]);
    }
    reference[c] = sum;
  }
  const auto got = TopK(scores, n_candidates);
  std::vector<ScoredIndex> want;
  for (size_t c = 0; c < n_candidates; ++c) {
    want.push_back(ScoredIndex{static_cast<float>(reference[c]), c});
  }
  SortByScoreDescending(want);
  for (size_t i = 0; i < n_candidates; ++i) {
    EXPECT_EQ(got[i].index, want[i].index) << "rank " << i;
  }
}

}  // namespace
}  // namespace ultrawiki
