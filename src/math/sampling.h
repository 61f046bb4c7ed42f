#ifndef ULTRAWIKI_MATH_SAMPLING_H_
#define ULTRAWIKI_MATH_SAMPLING_H_

#include <cstddef>
#include <vector>

#include "common/rng.h"

namespace ultrawiki {

/// Walker alias table for O(1) sampling from a fixed discrete distribution.
/// Used for unigram-frequency negative sampling in the embedding trainer.
class AliasTable {
 public:
  /// Builds the table from non-negative `weights` (sum must be positive).
  explicit AliasTable(const std::vector<double>& weights);

  /// Draws an index with probability proportional to its weight.
  size_t Sample(Rng& rng) const;

  size_t size() const { return probabilities_.size(); }

  /// Probability mass assigned to index `i` (for testing).
  double ProbabilityOf(size_t i) const;

 private:
  std::vector<double> probabilities_;  // Acceptance probability per slot.
  std::vector<size_t> aliases_;        // Fallback index per slot.
  std::vector<double> normalized_;     // Original normalized weights.
};

}  // namespace ultrawiki

#endif  // ULTRAWIKI_MATH_SAMPLING_H_
