#include "lm/ngram_lm.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace ultrawiki {

/// One open-addressed table per backoff level, kept at most half full.
/// Each counted n-gram costs one probe of one flat array (the context
/// hash and the next token together are the key), and Freeze sorts the
/// live slots in place: no per-context map to build or to free.
struct NgramLm::Training {
  struct Entry {
    uint64_t key = 0;
    TokenId target = 0;
    int32_t count = 0;  // 0 marks an empty slot
  };

  struct Table {
    std::vector<Entry> slots = std::vector<Entry>(64);
    size_t size = 0;

    static size_t Home(uint64_t key, TokenId target, size_t mask) {
      const uint64_t mixed =
          (key ^ (static_cast<uint64_t>(static_cast<uint32_t>(target)) *
                  0x9E3779B97F4A7C15ULL)) *
          0xFF51AFD7ED558CCDULL;
      return static_cast<size_t>(mixed >> 32) & mask;
    }

    void Increment(uint64_t key, TokenId target) {
      if (2 * (size + 1) > slots.size()) Grow();
      const size_t mask = slots.size() - 1;
      for (size_t i = Home(key, target, mask);; i = (i + 1) & mask) {
        Entry& entry = slots[i];
        if (entry.count == 0) {
          entry = Entry{key, target, 1};
          ++size;
          return;
        }
        if (entry.key == key && entry.target == target) {
          ++entry.count;
          return;
        }
      }
    }

    void Grow() {
      std::vector<Entry> old(slots.size() * 2);
      old.swap(slots);
      const size_t mask = slots.size() - 1;
      for (const Entry& entry : old) {
        if (entry.count == 0) continue;
        size_t i = Home(entry.key, entry.target, mask);
        while (slots[i].count != 0) i = (i + 1) & mask;
        slots[i] = entry;
      }
    }

    /// The live entries sorted by (key, target); empties the table.
    std::vector<Entry> TakeSorted() {
      std::vector<Entry> entries = std::move(slots);
      entries.erase(std::remove_if(entries.begin(), entries.end(),
                                   [](const Entry& e) { return e.count == 0; }),
                    entries.end());
      std::sort(entries.begin(), entries.end(),
                [](const Entry& a, const Entry& b) {
                  if (a.key != b.key) return a.key < b.key;
                  return a.target < b.target;
                });
      return entries;
    }
  };

  std::vector<Table> levels;
};

NgramLm::NgramLm(size_t vocab_size, NgramLmConfig config)
    : config_(config),
      vocab_size_(vocab_size),
      unigram_counts_(vocab_size, 0),
      training_(std::make_unique<Training>()) {
  UW_CHECK_GE(config.order, 1);
  UW_CHECK_GT(config.discount, 0.0);
  UW_CHECK_LT(config.discount, 1.0);
  training_->levels.resize(static_cast<size_t>(config.order - 1));
}

NgramLm::~NgramLm() = default;
NgramLm::NgramLm(NgramLm&&) noexcept = default;
NgramLm& NgramLm::operator=(NgramLm&&) noexcept = default;

uint64_t NgramLm::HashContext(std::span<const TokenId> context) {
  // FNV-1a over the token ids plus the length, so contexts of different
  // lengths never collide by construction.
  uint64_t hash = 1469598103934665603ULL;
  auto mix = [&hash](uint64_t v) {
    hash ^= v;
    hash *= 1099511628211ULL;
  };
  mix(static_cast<uint64_t>(context.size()));
  for (TokenId token : context) {
    mix(static_cast<uint64_t>(static_cast<uint32_t>(token)));
  }
  return hash;
}

void NgramLm::AddSentence(std::span<const TokenId> sentence) {
  UW_CHECK(!frozen()) << "AddSentence on a frozen NgramLm";
  for (size_t i = 0; i < sentence.size(); ++i) {
    const TokenId next = sentence[i];
    if (next < 0 || static_cast<size_t>(next) >= vocab_size_) continue;
    ++unigram_counts_[static_cast<size_t>(next)];
    ++total_tokens_;
    const int max_len = std::min<int>(config_.order - 1, static_cast<int>(i));
    for (int len = 1; len <= max_len; ++len) {
      const std::span<const TokenId> context =
          sentence.subspan(i - static_cast<size_t>(len),
                           static_cast<size_t>(len));
      training_->levels[static_cast<size_t>(len - 1)].Increment(
          HashContext(context), next);
    }
  }
}

void NgramLm::Freeze() {
  UW_CHECK(!frozen()) << "NgramLm frozen twice";
  levels_.resize(training_->levels.size());
  // Levels are independent: each sorts its own table and fills its own
  // Level, so the result does not depend on the thread count.
  ThreadPool::Global().ParallelFor(
      0, static_cast<int64_t>(levels_.size()), 1, [&](int64_t k) {
        const std::vector<Training::Entry> entries =
            training_->levels[static_cast<size_t>(k)].TakeSorted();
        UW_CHECK_LE(entries.size(), std::numeric_limits<uint32_t>::max());
        Level& level = levels_[static_cast<size_t>(k)];
        CountRows& rows = level.rows;
        rows.targets.reserve(entries.size());
        rows.counts.reserve(entries.size());
        for (size_t i = 0; i < entries.size(); ++i) {
          const Training::Entry& entry = entries[i];
          if (i == 0 || entry.key != entries[i - 1].key) {
            if (i > 0) rows.offsets.push_back(static_cast<uint32_t>(i));
            level.keys.push_back(entry.key);
            rows.totals.push_back(0);
          }
          rows.targets.push_back(entry.target);
          rows.counts.push_back(entry.count);
          rows.totals.back() += entry.count;
        }
        if (!entries.empty()) {
          rows.offsets.push_back(static_cast<uint32_t>(entries.size()));
        }
      });
  training_.reset();
}

StatusOr<NgramLm> NgramLm::Restore(size_t vocab_size, NgramLmConfig config,
                                   std::vector<int64_t> unigram_counts,
                                   std::vector<Level> levels) {
  if (config.order < 1 || !(config.discount > 0.0) ||
      !(config.discount < 1.0)) {
    return Status::InvalidArgument("n-gram config out of range");
  }
  if (unigram_counts.size() != vocab_size) {
    return Status::Internal("n-gram unigram counts do not cover the vocab");
  }
  if (levels.size() != static_cast<size_t>(config.order - 1)) {
    return Status::Internal("n-gram level count does not match the order");
  }
  int64_t total_tokens = 0;
  for (const int64_t count : unigram_counts) {
    if (count < 0 ||
        count > std::numeric_limits<int64_t>::max() - total_tokens) {
      return Status::Internal("n-gram unigram count out of range");
    }
    total_tokens += count;
  }
  for (const Level& level : levels) {
    if (level.keys.size() != level.rows.row_count()) {
      return Status::Internal("n-gram level keys do not match its rows");
    }
    for (size_t i = 1; i < level.keys.size(); ++i) {
      if (level.keys[i] <= level.keys[i - 1]) {
        return Status::Internal(
            "n-gram context keys are not strictly ascending");
      }
    }
    const std::string reason = level.rows.Validate(vocab_size);
    if (!reason.empty()) return Status::Internal("n-gram level: " + reason);
  }
  NgramLm lm(vocab_size, config);
  lm.training_.reset();
  lm.total_tokens_ = total_tokens;
  lm.unigram_counts_ = std::move(unigram_counts);
  lm.levels_ = std::move(levels);
  return lm;
}

NgramLm::ScoringContext NgramLm::ResolveContext(
    std::span<const TokenId> context) const {
  UW_CHECK(frozen()) << "NgramLm scored before Freeze";
  ScoringContext resolved;
  resolved.lm_ = this;
  const int max_len = std::min<int>(config_.order - 1,
                                    static_cast<int>(context.size()));
  resolved.chain_.resize(static_cast<size_t>(std::max(max_len, 0)));
  for (int len = 1; len <= max_len; ++len) {
    const std::span<const TokenId> suffix =
        context.subspan(context.size() - static_cast<size_t>(len));
    const Level& level = levels_[static_cast<size_t>(len - 1)];
    const uint64_t key = HashContext(suffix);
    const auto it =
        std::lower_bound(level.keys.begin(), level.keys.end(), key);
    // A missing or empty level backs off, exactly like the recursive
    // chain: leave the slot's total 0 so evaluation skips it.
    if (it != level.keys.end() && *it == key) {
      resolved.chain_[static_cast<size_t>(len - 1)] = level.rows.row(
          static_cast<size_t>(it - level.keys.begin()));
    }
  }
  return resolved;
}

double NgramLm::ScoringContext::Probability(TokenId next) const {
  UW_DCHECK(lm_ != nullptr);
  if (next < 0 || static_cast<size_t>(next) >= lm_->vocab_size_) return 0.0;
  // Bottom-up evaluation of the same expression tree the recursive
  // backoff builds top-down: p_len = direct + backoff_mass * p_{len-1},
  // seeded with the smoothed unigram floor. Identical operations in
  // identical order, so the result is bit-identical to the recursion.
  const double alpha = lm_->config_.unigram_alpha;
  const double numer =
      static_cast<double>(
          lm_->unigram_counts_[static_cast<size_t>(next)]) +
      alpha;
  const double denom =
      static_cast<double>(lm_->total_tokens_) +
      alpha * static_cast<double>(lm_->vocab_size_);
  double p = numer / denom;
  const double discount = lm_->config_.discount;
  for (const CountRows::Row& row : chain_) {
    if (row.total == 0) continue;
    const double total = static_cast<double>(row.total);
    const double count = static_cast<double>(row.CountOf(next));
    const double direct = std::max(count - discount, 0.0) / total;
    const double backoff_mass =
        discount * static_cast<double>(row.targets.size()) / total;
    p = direct + backoff_mass * p;
  }
  return p;
}

double NgramLm::Probability(std::span<const TokenId> context,
                            TokenId next) const {
  return ResolveContext(context).Probability(next);
}

double NgramLm::SequenceLogProbability(
    std::span<const TokenId> context,
    std::span<const TokenId> tokens) const {
  // Rolling (order-1)-token suffix instead of a full context rebuild per
  // step; only the suffix can influence the backoff chain.
  const size_t window = static_cast<size_t>(std::max(config_.order - 1, 0));
  std::vector<TokenId> suffix;
  if (context.size() > window) {
    suffix.assign(context.end() - static_cast<ptrdiff_t>(window),
                  context.end());
  } else {
    suffix.assign(context.begin(), context.end());
  }
  double log_prob = 0.0;
  for (TokenId token : tokens) {
    const double p = ResolveContext(suffix).Probability(token);
    log_prob += std::log(std::max(p, 1e-12));
    suffix.push_back(token);
    if (suffix.size() > window) suffix.erase(suffix.begin());
  }
  return log_prob;
}

}  // namespace ultrawiki
