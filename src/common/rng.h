#ifndef ULTRAWIKI_COMMON_RNG_H_
#define ULTRAWIKI_COMMON_RNG_H_

#include <cstdint>
#include <vector>

#include "common/logging.h"

namespace ultrawiki {

/// Deterministic pseudo-random generator (xoshiro256** seeded via
/// splitmix64). Every stochastic component in the library takes an explicit
/// Rng so all experiments are reproducible bit-for-bit across runs.
class Rng {
 public:
  /// Seeds the generator; equal seeds produce equal streams.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64-bit value.
  uint64_t NextUint64();

  /// Uniform integer in [0, bound). `bound` must be > 0.
  uint64_t UniformUint64(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int UniformInt(int lo, int hi);

  /// Uniform double in [0, 1).
  double UniformDouble();

  /// Uniform float in [lo, hi).
  float UniformFloat(float lo, float hi);

  /// Bernoulli draw with success probability `p`.
  bool Bernoulli(double p);

  /// Draws an index in [0, weights.size()) with probability proportional to
  /// `weights[i]`. Weights must be non-negative with a positive sum.
  size_t Categorical(const std::vector<double>& weights);

  /// Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    if (items.size() < 2) return;
    for (size_t i = items.size() - 1; i > 0; --i) {
      size_t j = UniformUint64(i + 1);
      using std::swap;
      swap(items[i], items[j]);
    }
  }

  /// Samples `k` distinct items uniformly without replacement. If
  /// `k >= items.size()` returns a shuffled copy of all items.
  template <typename T>
  std::vector<T> SampleWithoutReplacement(const std::vector<T>& items,
                                          size_t k) {
    std::vector<T> pool = items;
    Shuffle(pool);
    if (k < pool.size()) pool.resize(k);
    return pool;
  }

  /// Derives an independent child generator; useful for giving each
  /// component its own stream while keeping one top-level seed.
  Rng Fork();

 private:
  uint64_t state_[4];
};

}  // namespace ultrawiki

#endif  // ULTRAWIKI_COMMON_RNG_H_
