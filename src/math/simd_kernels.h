#ifndef ULTRAWIKI_MATH_SIMD_KERNELS_H_
#define ULTRAWIKI_MATH_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace ultrawiki {

/// Blocked, compiler-vectorizable reduction kernels with a *fixed*
/// reduction order.
///
/// Every kernel accumulates into `kDotLanes` independent double-precision
/// lane accumulators (element i goes to lane i % kDotLanes) and reduces
/// the lanes with a fixed pairwise tree. Because the abstract-machine
/// operation order is fully determined by the input length — never by the
/// SIMD width the compiler picks, the thread count, or the machine — the
/// result is bit-identical everywhere, while the independent lanes leave
/// the compiler free to vectorize the inner loop without reassociating
/// floating-point math. A NaN result is always the canonical quiet NaN,
/// never whichever input NaN the operations happened to propagate.
inline constexpr size_t kDotLanes = 8;

/// Dot product of `a` and `b` with deterministic blocked double
/// accumulation. Spans must have equal length.
double DotBlocked(std::span<const float> a, std::span<const float> b);

/// Sum of squares of `x` (same blocked accumulation as DotBlocked, single
/// pass).
double SquaredNormBlocked(std::span<const float> x);

/// L2 norm of `x` via SquaredNormBlocked.
double NormBlocked(std::span<const float> x);

/// Scores gathered rows against `query`: `rows[r]` points at
/// `query.size()` floats, and `out[r] = float(DotBlocked(row r, query))`
/// byte for byte. The query is widened to double once; rows are scored
/// four per pass, each row keeping its own `kDotLanes` lane accumulators
/// fed in DotBlocked's element order (the `dim % kDotLanes` tail and a
/// `rows % 4` remainder use the same lanes), so interleaving rows only
/// overlaps their loads and never changes an accumulation. Rows may
/// repeat or alias. `out.size()` must equal `rows.size()`.
void DotGather(std::span<const float* const> rows,
               std::span<const float> query, std::span<float> out);

/// Exact integer gather: `rows[r]` points at `query.size()` int8 values
/// and `out[r] = sum_i rows[r][i] * query[i]`, computed in int32. The
/// result is exact, so it is the same on every build and machine, as
/// long as the caller keeps sum_i |rows[r][i] * query[i]| below 2^31
/// (true for |row| <= 127 and |query| <= 32767 up to 516 elements).
/// Rows are scored four per pass, 16 elements at a time, with an
/// element-by-element tail. Rows may repeat or alias. `out.size()` must
/// equal `rows.size()`.
void DotGatherInt8(std::span<const int8_t* const> rows,
                   std::span<const int16_t> query, std::span<int32_t> out);

/// Scores every row of the row-major `matrix` (`out.size()` rows of
/// `dim` floats each; `matrix.size() == out.size() * dim`) against
/// `query` through DotGather, writing
/// `out[r] = float(DotBlocked(row r, query))`. Each output is a pure
/// function of its row and the query, so the batch is deterministic at
/// any thread count.
void DotBatch(std::span<const float> matrix, size_t dim,
              std::span<const float> query, std::span<float> out);

/// Convenience wrapper over DotBatch that allocates the output.
std::vector<float> ScoreMany(std::span<const float> matrix, size_t dim,
                             std::span<const float> query);

}  // namespace ultrawiki

#endif  // ULTRAWIKI_MATH_SIMD_KERNELS_H_
