#include "math/simd_kernels.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/logging.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace ultrawiki {
namespace {

/// Fixed pairwise tree over the lane accumulators. Written out explicitly
/// so the reduction order is part of the function's contract, not an
/// artifact of loop unrolling. A NaN sum comes out as the one canonical
/// quiet NaN: which input NaN's sign and payload an operation propagates
/// depends on the operand order the compiler picks and on the ISA, so
/// only the canonical NaN is the same on every build and machine.
inline double ReduceLanes(const double lanes[kDotLanes]) {
  static_assert(kDotLanes == 8, "ReduceLanes is written for 8 lanes");
  const double s01 = lanes[0] + lanes[1];
  const double s23 = lanes[2] + lanes[3];
  const double s45 = lanes[4] + lanes[5];
  const double s67 = lanes[6] + lanes[7];
  const double sum = (s01 + s23) + (s45 + s67);
  return std::isnan(sum) ? std::numeric_limits<double>::quiet_NaN() : sum;
}

/// Two adjacent double lanes, combined element-wise: every `+` and `*`
/// on it is the IEEE double operation of each lane on its own.
using Double2 = double __attribute__((vector_size(16)));

/// Scores `R` rows in one pass. Row r adds exactly DotBlocked's products
/// (float widened to double, times the widened query element) into its
/// own lanes in DotBlocked's element order, so each output is
/// float(DotBlocked(row r, query)); the R rows only share the loop, which
/// keeps R independent row loads in flight. The lanes are run as two
/// halves, 0-3 then 4-7 (the lanes are independent, so this reorders no
/// addition): R x 4 double accumulators fit the vector registers where
/// R x 8 would spill to the stack.
template <size_t R>
void DotRows(const float* const* rows, const double* query, size_t n,
             float* out) {
  constexpr size_t kHalf = kDotLanes / 2;
  double lanes[R][kDotLanes] = {};
  const size_t full = n - n % kDotLanes;
  for (size_t half = 0; half < kDotLanes; half += kHalf) {
    Double2 low[R] = {};
    Double2 high[R] = {};
    for (size_t i = half; i < full; i += kDotLanes) {
      const Double2 q_low = {query[i], query[i + 1]};
      const Double2 q_high = {query[i + 2], query[i + 3]};
#pragma GCC unroll 4
      for (size_t r = 0; r < R; ++r) {
        const float* x = rows[r] + i;
        low[r] += Double2{static_cast<double>(x[0]),
                          static_cast<double>(x[1])} * q_low;
        high[r] += Double2{static_cast<double>(x[2]),
                           static_cast<double>(x[3])} * q_high;
      }
    }
    for (size_t r = 0; r < R; ++r) {
      lanes[r][half] = low[r][0];
      lanes[r][half + 1] = low[r][1];
      lanes[r][half + 2] = high[r][0];
      lanes[r][half + 3] = high[r][1];
    }
  }
  for (size_t i = full; i < n; ++i) {
    for (size_t r = 0; r < R; ++r) {
      lanes[r][i - full] += static_cast<double>(rows[r][i]) * query[i];
    }
  }
  for (size_t r = 0; r < R; ++r) {
    out[r] = static_cast<float>(ReduceLanes(lanes[r]));
  }
}

/// DotGather over a query already widened to double (`n` elements).
void GatherWidened(std::span<const float* const> rows, const double* query,
                   size_t n, float* out) {
  size_t r = 0;
  for (; r + 4 <= rows.size(); r += 4) {
    DotRows<4>(rows.data() + r, query, n, out + r);
  }
  for (; r < rows.size(); ++r) {
    DotRows<1>(rows.data() + r, query, n, out + r);
  }
}

/// Integer dots of `R` int8 rows with an int16 query of `n` elements.
/// With SSE2, 16 elements per step: each row's bytes are sign-extended to
/// int16 and multiplied into int32 pair sums (pmaddwd); the elements past
/// the last full step, or all of them without SSE2, go one at a time.
/// Integer sums are exact, so the split does not change a result.
template <size_t R>
void DotRowsInt8(const int8_t* const* rows, const int16_t* query, size_t n,
                 int32_t* out) {
  int32_t sums[R] = {};
  size_t i = 0;
#if defined(__SSE2__)
  __m128i acc[R];
  for (size_t r = 0; r < R; ++r) acc[r] = _mm_setzero_si128();
  for (; i + 16 <= n; i += 16) {
    const __m128i q_low =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(query + i));
    const __m128i q_high =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(query + i + 8));
#pragma GCC unroll 4
    for (size_t r = 0; r < R; ++r) {
      const __m128i x =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(rows[r] + i));
      // Each byte lands in the high half of a 16-bit lane; the arithmetic
      // shift brings it down with its sign.
      const __m128i low = _mm_srai_epi16(_mm_unpacklo_epi8(x, x), 8);
      const __m128i high = _mm_srai_epi16(_mm_unpackhi_epi8(x, x), 8);
      acc[r] = _mm_add_epi32(acc[r],
                             _mm_add_epi32(_mm_madd_epi16(low, q_low),
                                           _mm_madd_epi16(high, q_high)));
    }
  }
  for (size_t r = 0; r < R; ++r) {
    alignas(16) int32_t lanes[4];
    _mm_store_si128(reinterpret_cast<__m128i*>(lanes), acc[r]);
    sums[r] = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  }
#endif
  for (; i < n; ++i) {
    for (size_t r = 0; r < R; ++r) {
      sums[r] += static_cast<int32_t>(rows[r][i]) *
                 static_cast<int32_t>(query[i]);
    }
  }
  for (size_t r = 0; r < R; ++r) out[r] = sums[r];
}

/// Rows DotBatch gathers per pass (a stack array of row pointers).
constexpr size_t kBatchBlock = 64;

}  // namespace

double DotBlocked(std::span<const float> a, std::span<const float> b) {
  UW_CHECK_EQ(a.size(), b.size());
  double lanes[kDotLanes] = {};
  const size_t n = a.size();
  const size_t full = n - n % kDotLanes;
  // Independent lane accumulators: the compiler may run the lanes in one
  // vector register because no lane depends on another.
  for (size_t i = 0; i < full; i += kDotLanes) {
    for (size_t l = 0; l < kDotLanes; ++l) {
      lanes[l] += static_cast<double>(a[i + l]) * static_cast<double>(b[i + l]);
    }
  }
  for (size_t i = full; i < n; ++i) {
    lanes[i - full] +=
        static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return ReduceLanes(lanes);
}

double SquaredNormBlocked(std::span<const float> x) {
  double lanes[kDotLanes] = {};
  const size_t n = x.size();
  const size_t full = n - n % kDotLanes;
  for (size_t i = 0; i < full; i += kDotLanes) {
    for (size_t l = 0; l < kDotLanes; ++l) {
      const double v = static_cast<double>(x[i + l]);
      lanes[l] += v * v;
    }
  }
  for (size_t i = full; i < n; ++i) {
    const double v = static_cast<double>(x[i]);
    lanes[i - full] += v * v;
  }
  return ReduceLanes(lanes);
}

double NormBlocked(std::span<const float> x) {
  return std::sqrt(SquaredNormBlocked(x));
}

void DotGather(std::span<const float* const> rows,
               std::span<const float> query, std::span<float> out) {
  UW_CHECK_EQ(rows.size(), out.size());
  // Widening float to double is exact, so converting the query once
  // yields the same factors DotBlocked converts per product.
  const std::vector<double> widened(query.begin(), query.end());
  GatherWidened(rows, widened.data(), widened.size(), out.data());
}

void DotGatherInt8(std::span<const int8_t* const> rows,
                   std::span<const int16_t> query, std::span<int32_t> out) {
  UW_CHECK_EQ(rows.size(), out.size());
  const size_t n = query.size();
  size_t r = 0;
  for (; r + 4 <= rows.size(); r += 4) {
    DotRowsInt8<4>(rows.data() + r, query.data(), n, out.data() + r);
  }
  for (; r < rows.size(); ++r) {
    DotRowsInt8<1>(rows.data() + r, query.data(), n, out.data() + r);
  }
}

void DotBatch(std::span<const float> matrix, size_t dim,
              std::span<const float> query, std::span<float> out) {
  UW_CHECK_EQ(query.size(), dim);
  UW_CHECK_EQ(matrix.size(), out.size() * dim);
  const std::vector<double> widened(query.begin(), query.end());
  const float* rows[kBatchBlock] = {};
  for (size_t begin = 0; begin < out.size(); begin += kBatchBlock) {
    const size_t count = std::min(kBatchBlock, out.size() - begin);
    for (size_t j = 0; j < count; ++j) {
      rows[j] = matrix.data() + (begin + j) * dim;
    }
    GatherWidened(std::span<const float* const>(rows, count),
                  widened.data(), dim, out.data() + begin);
  }
}

std::vector<float> ScoreMany(std::span<const float> matrix, size_t dim,
                             std::span<const float> query) {
  UW_CHECK_GT(dim, 0u);
  std::vector<float> out(matrix.size() / dim, 0.0f);
  DotBatch(matrix, dim, query, out);
  return out;
}

}  // namespace ultrawiki
