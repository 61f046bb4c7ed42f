#ifndef ULTRAWIKI_MATH_VEC_H_
#define ULTRAWIKI_MATH_VEC_H_

#include <cstddef>
#include <span>
#include <vector>

namespace ultrawiki {

/// Dense float vector used for entity/context representations.
using Vec = std::vector<float>;

/// Dot product; spans must have equal length. Accumulates with the
/// deterministic blocked double-precision kernel (simd_kernels.h), so the
/// result is bit-identical across machines, SIMD widths, and UW_THREADS.
float Dot(std::span<const float> a, std::span<const float> b);

/// y += alpha * x
void Axpy(float alpha, std::span<const float> x, std::span<float> y);

/// x *= alpha
void Scale(float alpha, std::span<float> x);

/// Euclidean norm (deterministic blocked accumulation, see Dot).
float Norm(std::span<const float> x);

/// In-place L2 normalization; leaves zero vectors untouched.
void NormalizeInPlace(std::span<float> x);

/// Element-wise sum accumulated into `acc` (acc += x).
void AccumulateInPlace(std::span<float> acc, std::span<const float> x);

/// Sets all entries to zero.
void ZeroInPlace(std::span<float> x);

}  // namespace ultrawiki

#endif  // ULTRAWIKI_MATH_VEC_H_
