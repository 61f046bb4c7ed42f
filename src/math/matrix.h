#ifndef ULTRAWIKI_MATH_MATRIX_H_
#define ULTRAWIKI_MATH_MATRIX_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"

namespace ultrawiki {

/// Row-major dense float matrix. Rows are the natural unit (one embedding
/// per row), so row access returns a span over contiguous storage.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}

  /// Allocates a rows × cols matrix initialized to zero.
  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  std::span<float> Row(size_t r) {
    UW_CHECK_LT(r, rows_);
    return std::span<float>(data_.data() + r * cols_, cols_);
  }
  std::span<const float> Row(size_t r) const {
    UW_CHECK_LT(r, rows_);
    return std::span<const float>(data_.data() + r * cols_, cols_);
  }

  float& At(size_t r, size_t c) {
    UW_CHECK_LT(r, rows_);
    UW_CHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }
  float At(size_t r, size_t c) const {
    UW_CHECK_LT(r, rows_);
    UW_CHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }

  std::span<float> Flat() { return std::span<float>(data_); }
  std::span<const float> Flat() const {
    return std::span<const float>(data_);
  }

  /// Fills entries with U(-scale, scale); the standard embedding init.
  void InitUniform(Rng& rng, float scale);

  /// y = M x   (y has rows() entries, x has cols() entries).
  void MatVec(std::span<const float> x, std::span<float> y) const;

  /// y = M^T x  (y has cols() entries, x has rows() entries).
  void MatTVec(std::span<const float> x, std::span<float> y) const;

 private:
  size_t rows_;
  size_t cols_;
  std::vector<float> data_;
};

}  // namespace ultrawiki

#endif  // ULTRAWIKI_MATH_MATRIX_H_
