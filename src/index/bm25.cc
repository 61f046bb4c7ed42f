#include "index/bm25.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"

namespace ultrawiki {
namespace {

/// Relative slack applied to double-precision score bounds before they
/// are compared against the float admission threshold. Actual document
/// scores are accumulated in float (one rounding per term contribution,
/// each computed in double then cast), so a float score can exceed the
/// exact double sum by a factor of at most (1 + 2^-24) per operation;
/// 1e-4 dominates that for any realistic query width. Inflating bounds by
/// the slack keeps pruning strictly conservative: a block or document is
/// only skipped when even its inflated bound cannot beat the threshold,
/// which preserves bit-identical results vs. an unpruned scan.
constexpr double kBoundSlack = 1.0 + 1e-4;

/// Upper bound on the BM25 term kernel tf*(k1+1)/(tf + k1*(1-b+b*dl/avgdl))
/// over any posting with term frequency <= max_tf and document length >=
/// min_dl: the kernel is monotone increasing in tf and decreasing in dl,
/// and IEEE rounding is monotone, so evaluating it at the extremes
/// dominates every posting the metadata covers.
double KernelBound(int32_t max_tf, int32_t min_dl, double avgdl,
                   const Bm25Params& params) {
  const double tf = static_cast<double>(max_tf);
  const double dl = static_cast<double>(min_dl);
  const double denom =
      tf + params.k1 * (1.0 - params.b + params.b * dl / avgdl);
  return tf * (params.k1 + 1.0) / denom;
}

/// One query term's state during a cursor-based search.
struct TermState {
  TokenId term = 0;
  int qtf = 0;
  double idf = 0.0;
  double list_bound = 0.0;  // idf * qtf * max block kernel bound
  PostingCursor cursor;
};

}  // namespace

Bm25Scorer::Bm25Scorer(const InvertedIndex* index, Bm25Params params)
    : index_(index), params_(params) {
  UW_CHECK_NE(index, nullptr);
  UW_CHECK(index->is_frozen())
      << "Bm25Scorer requires a frozen index (call InvertedIndex::Freeze)";
}

double Bm25Scorer::Idf(TokenId term) const {
  const double n = static_cast<double>(index_->document_count());
  const double df = static_cast<double>(index_->DocumentFrequency(term));
  // +1 inside the log keeps IDF positive for very common terms.
  return std::log(1.0 + (n - df + 0.5) / (df + 0.5));
}

std::vector<float> Bm25Scorer::ScoreAll(
    const std::vector<TokenId>& query) const {
  obs::GetCounter("bm25.queries").Increment();
  if (query.empty()) {
    UW_LOG_EVERY_N(Warning, 100) << "BM25 called with an empty query";
  }
  std::vector<float> scores(index_->document_count(), 0.0f);
  const double avgdl = index_->AverageDocumentLength();
  if (avgdl <= 0.0) return scores;

  // Collapse duplicate query terms; qtf scales the contribution.
  std::map<TokenId, int> query_tf;
  for (TokenId term : query) ++query_tf[term];

  // Accumulated locally and flushed once per call: one atomic add per
  // query instead of one per posting.
  int64_t postings_scanned = 0;
  int64_t docs_scored = 0;
  int64_t blocks_decoded = 0;
  for (const auto& [term, qtf] : query_tf) {
    PostingCursor cursor = index_->OpenCursor(term);
    if (cursor.at_end()) continue;
    const double idf = Idf(term);
    postings_scanned += cursor.doc_frequency();
    for (; !cursor.at_end(); cursor.Next()) {
      const double tf = static_cast<double>(cursor.term_frequency());
      const double dl =
          static_cast<double>(index_->DocumentLength(cursor.doc()));
      const double denom =
          tf + params_.k1 * (1.0 - params_.b + params_.b * dl / avgdl);
      const double contribution =
          idf * tf * (params_.k1 + 1.0) / denom * static_cast<double>(qtf);
      float& slot = scores[static_cast<size_t>(cursor.doc())];
      if (slot == 0.0f) ++docs_scored;  // first term touching this doc
      slot += static_cast<float>(contribution);
    }
    blocks_decoded += cursor.blocks_decoded();
  }
  obs::GetCounter("bm25.postings_scanned").Increment(postings_scanned);
  obs::GetCounter("bm25.scores_computed").Increment(docs_scored);
  obs::GetCounter("index.blocks_decoded").Increment(blocks_decoded);
  return scores;
}

std::vector<ScoredIndex> Bm25Scorer::Search(const std::vector<TokenId>& query,
                                            size_t k) const {
  obs::GetCounter("bm25.queries").Increment();
  if (query.empty()) {
    UW_LOG_EVERY_N(Warning, 100) << "BM25 called with an empty query";
  }
  const double avgdl = index_->AverageDocumentLength();
  if (k == 0 || avgdl <= 0.0) return {};

  std::map<TokenId, int> query_tf;
  for (TokenId term : query) ++query_tf[term];

  std::vector<TermState> terms;
  terms.reserve(query_tf.size());
  for (const auto& [term, qtf] : query_tf) {
    PostingCursor cursor = index_->OpenCursor(term);
    if (cursor.at_end()) continue;
    TermState state;
    state.term = term;
    state.qtf = qtf;
    state.idf = Idf(term);
    double kernel = 0.0;
    for (const PostingBlockMeta& meta : cursor.blocks()) {
      kernel = std::max(kernel,
                        KernelBound(meta.max_tf, meta.min_dl, avgdl, params_));
    }
    state.list_bound = state.idf * kernel * static_cast<double>(qtf);
    state.cursor = std::move(cursor);
    terms.push_back(std::move(state));
  }
  if (terms.empty()) return {};

  // MaxScore partition order: ascending list bound (term id breaks ties
  // deterministically). `prefix[i]` bounds the total contribution of
  // order[0..i]; the non-essential prefix is the longest one whose bound
  // cannot alone beat the admission threshold.
  std::vector<size_t> order(terms.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&terms](size_t a, size_t b) {
    if (terms[a].list_bound != terms[b].list_bound) {
      return terms[a].list_bound < terms[b].list_bound;
    }
    return terms[a].term < terms[b].term;
  });
  std::vector<double> prefix(order.size());
  double running = 0.0;
  for (size_t i = 0; i < order.size(); ++i) {
    running += terms[order[i]].list_bound;
    prefix[i] = running;
  }

  TopKStream stream(k);
  size_t first_essential = 0;  // order[0..first_essential) is non-essential
  bool have_threshold = false;
  float threshold = 0.0f;
  const auto update_partition = [&]() {
    while (first_essential < order.size() &&
           prefix[first_essential] * kBoundSlack <=
               static_cast<double>(threshold)) {
      ++first_essential;
    }
  };

  int64_t postings_scanned = 0;
  int64_t docs_scored = 0;
  std::vector<std::pair<TokenId, double>> contributions;
  const auto contribution_at = [&](const TermState& state) {
    const double tf = static_cast<double>(state.cursor.term_frequency());
    const double dl =
        static_cast<double>(index_->DocumentLength(state.cursor.doc()));
    const double denom =
        tf + params_.k1 * (1.0 - params_.b + params_.b * dl / avgdl);
    // Same expression, in the same order, as the dense ScoreAll loop, so
    // a surviving document accumulates bit-identical float terms.
    return state.idf * tf * (params_.k1 + 1.0) / denom *
           static_cast<double>(state.qtf);
  };

  while (first_essential < order.size()) {
    // Candidate: the lowest current doc across the essential cursors.
    // Every posting of an essential list surfaces as a candidate, so no
    // admissible document is missed; non-essential lists are bounded by
    // the partition invariant.
    DocId candidate = INT32_MAX;
    bool any_active = false;
    for (size_t i = first_essential; i < order.size(); ++i) {
      const TermState& state = terms[order[i]];
      if (!state.cursor.at_end()) {
        any_active = true;
        candidate = std::min(candidate, state.cursor.doc());
      }
    }
    if (!any_active) break;

    contributions.clear();
    double sum_exact = 0.0;
    for (size_t i = first_essential; i < order.size(); ++i) {
      TermState& state = terms[order[i]];
      if (!state.cursor.at_end() && state.cursor.doc() == candidate) {
        const double c = contribution_at(state);
        contributions.emplace_back(state.term, c);
        sum_exact += c;
      }
    }

    // Non-essential lists, strongest bound first: probe each only while
    // the document could still beat the threshold, skipping whole blocks
    // via their metadata and dropping the document as soon as its best
    // possible total is provably sub-threshold.
    bool drop_document = false;
    for (size_t j = first_essential; j-- > 0;) {
      if (have_threshold &&
          (sum_exact + prefix[j]) * kBoundSlack <=
              static_cast<double>(threshold)) {
        drop_document = true;
        break;
      }
      TermState& state = terms[order[j]];
      const double rest = j > 0 ? prefix[j - 1] : 0.0;
      if (!state.cursor.SkipBlocksTo(candidate)) continue;
      const PostingBlockMeta& block = state.cursor.current_block();
      const double block_bound =
          state.idf * KernelBound(block.max_tf, block.min_dl, avgdl, params_) *
          static_cast<double>(state.qtf);
      if (have_threshold &&
          (sum_exact + block_bound + rest) * kBoundSlack <=
              static_cast<double>(threshold)) {
        drop_document = true;
        break;
      }
      if (state.cursor.SeekTo(candidate) &&
          state.cursor.doc() == candidate) {
        const double c = contribution_at(state);
        contributions.emplace_back(state.term, c);
        sum_exact += c;
      }
    }

    if (!drop_document) {
      // Accumulate in ascending term id order — the exact float addition
      // sequence the dense scan produces for this document.
      std::sort(contributions.begin(), contributions.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      float score = 0.0f;
      for (const auto& [term, c] : contributions) {
        score += static_cast<float>(c);
      }
      postings_scanned += static_cast<int64_t>(contributions.size());
      ++docs_scored;
      stream.Push(score, static_cast<size_t>(candidate));
      if (stream.AtCapacity()) {
        const float worst = stream.Worst().score;
        if (!have_threshold || worst > threshold) {
          threshold = worst;
          have_threshold = true;
          update_partition();
        }
      }
    }

    for (size_t i = first_essential; i < order.size(); ++i) {
      TermState& state = terms[order[i]];
      if (!state.cursor.at_end() && state.cursor.doc() == candidate) {
        state.cursor.Next();
      }
    }
  }

  int64_t blocks_skipped = 0;
  int64_t blocks_decoded = 0;
  for (const TermState& state : terms) {
    blocks_skipped += state.cursor.blocks_skipped();
    blocks_decoded += state.cursor.blocks_decoded();
  }
  obs::GetCounter("bm25.postings_scanned").Increment(postings_scanned);
  obs::GetCounter("bm25.scores_computed").Increment(docs_scored);
  obs::GetCounter("index.blocks_skipped").Increment(blocks_skipped);
  obs::GetCounter("index.blocks_decoded").Increment(blocks_decoded);
  // Pruning only engages once the top-k heap fills and forms an admission
  // threshold; searches where k >= the number of matching documents never
  // get one, so every list stays essential and no block is skipped. These
  // two counters make that visible: a workload with threshold_formed == 0
  // (e.g. table2's hard-negative mining, where k is large relative to the
  // matched set) legitimately reports blocks_skipped == 0.
  obs::GetCounter("bm25.pruned_searches").Increment();
  if (have_threshold) {
    obs::GetCounter("bm25.threshold_formed").Increment();
  }
  return stream.TakeSortedDescending();
}

std::vector<std::vector<ScoredIndex>> Bm25Scorer::SearchBatch(
    const std::vector<std::vector<TokenId>>& queries, size_t k) const {
  return ThreadPool::Global().ParallelMap<std::vector<ScoredIndex>>(
      static_cast<int64_t>(queries.size()), [&](int64_t q) {
        return Search(queries[static_cast<size_t>(q)], k);
      });
}

}  // namespace ultrawiki
