#include "math/matrix.h"

namespace ultrawiki {

void Matrix::InitUniform(Rng& rng, float scale) {
  for (float& v : data_) v = rng.UniformFloat(-scale, scale);
}

void Matrix::MatVec(std::span<const float> x, std::span<float> y) const {
  UW_CHECK_EQ(x.size(), cols_);
  UW_CHECK_EQ(y.size(), rows_);
  for (size_t r = 0; r < rows_; ++r) {
    const float* row = data_.data() + r * cols_;
    float sum = 0.0f;
    for (size_t c = 0; c < cols_; ++c) sum += row[c] * x[c];
    y[r] = sum;
  }
}

void Matrix::MatTVec(std::span<const float> x, std::span<float> y) const {
  UW_CHECK_EQ(x.size(), rows_);
  UW_CHECK_EQ(y.size(), cols_);
  for (size_t c = 0; c < cols_; ++c) y[c] = 0.0f;
  for (size_t r = 0; r < rows_; ++r) {
    const float* row = data_.data() + r * cols_;
    const float xr = x[r];
    if (xr == 0.0f) continue;
    for (size_t c = 0; c < cols_; ++c) y[c] += xr * row[c];
  }
}

}  // namespace ultrawiki
