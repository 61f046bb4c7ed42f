#ifndef ULTRAWIKI_LM_COUNT_ROWS_H_
#define ULTRAWIKI_LM_COUNT_ROWS_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "text/vocabulary.h"

namespace ultrawiki {

/// The frozen, serving form of an LM channel's count table, in compressed
/// sparse row layout: row r holds `targets[offsets[r], offsets[r+1])`,
/// strictly ascending by token id, with `counts` alongside (each > 0) and
/// `totals[r]`, the sum of the row's counts. Four flat arrays replace one
/// hash map per row, so a frozen model is a few allocations that a
/// snapshot writes and reads in bulk.
struct CountRows {
  std::vector<uint32_t> offsets = {0};
  std::vector<TokenId> targets;
  std::vector<int32_t> counts;
  std::vector<int64_t> totals;

  /// One row, resolved: its sorted targets, their counts and the total.
  struct Row {
    std::span<const TokenId> targets;
    const int32_t* counts = nullptr;
    int64_t total = 0;

    /// The count of `target` in this row, 0 when absent.
    int32_t CountOf(TokenId target) const;
  };

  size_t row_count() const { return totals.size(); }
  Row row(size_t r) const {
    const uint32_t begin = offsets[r];
    const uint32_t end = offsets[r + 1];
    return Row{std::span<const TokenId>(targets).subspan(begin, end - begin),
               counts.data() + begin, totals[r]};
  }

  /// Checks every invariant above, with targets below `vocab_size`.
  /// Returns an empty string when they hold, else the first violation —
  /// the gate a snapshot's untrusted arrays pass before serving.
  std::string Validate(size_t vocab_size) const;
};

}  // namespace ultrawiki

#endif  // ULTRAWIKI_LM_COUNT_ROWS_H_
