#include "lm/association.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace ultrawiki {

AssociationModel::AssociationModel(size_t vocab_size)
    : vocab_size_(vocab_size),
      training_(std::make_unique<Training>(vocab_size)) {}

AssociationModel::Training::Training(size_t vocab_size) {
  rows.reserve(vocab_size);
  for (size_t t = 0; t < vocab_size; ++t) rows.emplace_back(&arena);
}

void AssociationModel::AddSentence(std::span<const TokenId> sentence) {
  UW_CHECK(!frozen()) << "AddSentence on a frozen AssociationModel";
  for (size_t i = 0; i < sentence.size(); ++i) {
    const TokenId a = sentence[i];
    if (a < 0 || static_cast<size_t>(a) >= vocab_size_) continue;
    TargetCounts& row = training_->rows[static_cast<size_t>(a)];
    for (size_t j = 0; j < sentence.size(); ++j) {
      if (i == j) continue;
      const TokenId b = sentence[j];
      if (b < 0 || static_cast<size_t>(b) >= vocab_size_) continue;
      ++row[b];
    }
  }
}

void AssociationModel::TruncateRows(int top_k) {
  UW_CHECK(!frozen()) << "TruncateRows on a frozen AssociationModel";
  if (top_k <= 0) return;
  for (TargetCounts& row : training_->rows) {
    if (row.size() <= static_cast<size_t>(top_k)) continue;
    std::vector<std::pair<TokenId, int32_t>> entries(row.begin(), row.end());
    std::nth_element(
        entries.begin(), entries.begin() + top_k, entries.end(),
        [](const auto& a, const auto& b) {
          if (a.second != b.second) return a.second > b.second;
          return a.first < b.first;
        });
    entries.resize(static_cast<size_t>(top_k));
    row.clear();
    row.insert(entries.begin(), entries.end());
  }
}

void AssociationModel::Freeze() {
  UW_CHECK(!frozen()) << "AssociationModel frozen twice";
  const std::vector<TargetCounts>& rows = training_->rows;
  rows_.offsets.resize(rows.size() + 1);
  rows_.totals.resize(rows.size());
  uint64_t size = 0;
  for (size_t r = 0; r < rows.size(); ++r) {
    rows_.offsets[r] = static_cast<uint32_t>(size);
    size += rows[r].size();
    UW_CHECK_LE(size, std::numeric_limits<uint32_t>::max());
  }
  rows_.offsets[rows.size()] = static_cast<uint32_t>(size);
  rows_.targets.resize(size);
  rows_.counts.resize(size);
  // Each row sorts into its own slice and writes its own total, so the
  // result does not depend on the thread count or the maps' order.
  ThreadPool::Global().ParallelFor(
      0, static_cast<int64_t>(rows.size()), 256, [&](int64_t index) {
        const size_t r = static_cast<size_t>(index);
        // Reused per thread: one buffer instead of one per row.
        thread_local std::vector<std::pair<TokenId, int32_t>> entries;
        entries.assign(rows[r].begin(), rows[r].end());
        std::sort(entries.begin(), entries.end());
        int64_t total = 0;
        size_t slot = rows_.offsets[r];
        for (const auto& [target, count] : entries) {
          rows_.targets[slot] = target;
          rows_.counts[slot] = count;
          total += count;
          ++slot;
        }
        rows_.totals[r] = total;
      });
  training_.reset();
}

StatusOr<AssociationModel> AssociationModel::Restore(size_t vocab_size,
                                                     CountRows rows) {
  if (rows.row_count() != vocab_size) {
    return Status::Internal("association rows do not cover the vocab");
  }
  const std::string reason = rows.Validate(vocab_size);
  if (!reason.empty()) return Status::Internal("association: " + reason);
  AssociationModel model(vocab_size);
  model.training_.reset();
  model.rows_ = std::move(rows);
  return model;
}

double AssociationModel::Probability(TokenId context, TokenId next) const {
  UW_CHECK(frozen()) << "AssociationModel scored before Freeze";
  const double floor = 1.0 / static_cast<double>(vocab_size_);
  if (context < 0 || next < 0 ||
      static_cast<size_t>(context) >= rows_.row_count()) {
    return floor;
  }
  const CountRows::Row row = rows_.row(static_cast<size_t>(context));
  if (row.total == 0) return floor;
  const double count = static_cast<double>(row.CountOf(next));
  // Uniform interpolation keeps unseen targets strictly positive without
  // letting the smoothing mass drown the observed counts (rows are much
  // smaller than the vocabulary).
  constexpr double kUniformWeight = 0.05;
  return (1.0 - kUniformWeight) * count / static_cast<double>(row.total) +
         kUniformWeight * floor;
}

}  // namespace ultrawiki
