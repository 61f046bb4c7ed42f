#include "lm/count_rows.h"

#include <algorithm>

namespace ultrawiki {

int32_t CountRows::Row::CountOf(TokenId target) const {
  const auto it = std::lower_bound(targets.begin(), targets.end(), target);
  if (it == targets.end() || *it != target) return 0;
  return counts[it - targets.begin()];
}

std::string CountRows::Validate(size_t vocab_size) const {
  if (offsets.size() != totals.size() + 1) {
    return "row offsets do not match the row count";
  }
  if (offsets.front() != 0 || offsets.back() != targets.size() ||
      counts.size() != targets.size()) {
    return "row offsets do not span the target arrays";
  }
  for (size_t r = 0; r < totals.size(); ++r) {
    const uint32_t begin = offsets[r];
    const uint32_t end = offsets[r + 1];
    if (end < begin || end > targets.size()) {
      return "row offsets are not monotone";
    }
    int64_t sum = 0;
    for (uint32_t i = begin; i < end; ++i) {
      if (targets[i] < 0 || static_cast<size_t>(targets[i]) >= vocab_size) {
        return "row target outside the vocabulary";
      }
      if (i > begin && targets[i] <= targets[i - 1]) {
        return "row targets are not strictly ascending";
      }
      if (counts[i] <= 0) return "row count is not positive";
      sum += counts[i];
    }
    if (totals[r] != sum) return "row total is not the sum of its counts";
  }
  return {};
}

}  // namespace ultrawiki
