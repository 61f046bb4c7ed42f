#include "math/vec.h"

#include "common/logging.h"
#include "math/simd_kernels.h"

namespace ultrawiki {

float Dot(std::span<const float> a, std::span<const float> b) {
  // Same deterministic blocked double accumulation as the batch kernels:
  // a single running float sum loses low-order bits at large dims, where
  // near-tied candidates would flip order whenever a code change (or a
  // vectorizer) reassociated the summation.
  return static_cast<float>(DotBlocked(a, b));
}

void Axpy(float alpha, std::span<const float> x, std::span<float> y) {
  UW_CHECK_EQ(x.size(), y.size());
  for (size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void Scale(float alpha, std::span<float> x) {
  for (float& v : x) v *= alpha;
}

float Norm(std::span<const float> x) {
  return static_cast<float>(NormBlocked(x));
}

void NormalizeInPlace(std::span<float> x) {
  const float norm = Norm(x);
  if (norm <= 0.0f) return;
  Scale(1.0f / norm, x);
}

void AccumulateInPlace(std::span<float> acc, std::span<const float> x) {
  UW_CHECK_EQ(acc.size(), x.size());
  for (size_t i = 0; i < acc.size(); ++i) acc[i] += x[i];
}

void ZeroInPlace(std::span<float> x) {
  for (float& v : x) v = 0.0f;
}

}  // namespace ultrawiki
