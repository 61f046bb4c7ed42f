#ifndef ULTRAWIKI_INDEX_INVERTED_INDEX_H_
#define ULTRAWIKI_INDEX_INVERTED_INDEX_H_

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "index/block_codec.h"
#include "text/vocabulary.h"

namespace ultrawiki {

/// Document identifier within an index.
using DocId = int32_t;

/// A posting: document plus term frequency.
struct Posting {
  DocId doc = 0;
  int32_t term_frequency = 0;

  friend bool operator==(const Posting& a, const Posting& b) {
    return a.doc == b.doc && a.term_frequency == b.term_frequency;
  }
};

/// Metadata for one compressed posting block: enough to skip it without
/// decoding (last_doc) and to bound the BM25 score of any posting inside
/// it (max_tf with min_dl — the BM25 term kernel is monotone increasing in
/// tf and decreasing in document length, so f(max_tf, min_dl) dominates
/// every posting in the block for any k1/b).
struct PostingBlockMeta {
  DocId last_doc = 0;      // highest doc id in the block
  uint64_t offset = 0;     // byte offset of the block in the payload
  uint32_t length = 0;     // encoded byte length
  uint32_t count = 0;      // postings in the block, 1..kPostingBlockSize
  int32_t max_tf = 0;      // maximum term frequency in the block
  int32_t min_dl = 0;      // minimum document length among the block's docs
};

/// One term's frozen posting list: a slice of the shared block array.
struct CompressedTermList {
  TokenId term = 0;
  int64_t doc_frequency = 0;  // total postings across the blocks
  uint32_t block_begin = 0;   // [block_begin, block_end) into blocks()
  uint32_t block_end = 0;
};

class PostingCursor;

/// Token-id keyed inverted index over bag-of-token documents. Serves BM25
/// retrieval (hard-negative mining, CaSE lexical features, retrieval
/// lookups).
///
/// Two-phase lifecycle: documents are added to a mutable raw build map,
/// then `Freeze()` compresses every posting list into delta-encoded varint
/// blocks of `kPostingBlockSize` postings with per-block skip/max-score
/// metadata and drops the raw map. All scoring (Bm25Scorer) runs against
/// the frozen form through `PostingCursor`s; a frozen index is immutable.
class InvertedIndex {
 public:
  InvertedIndex() = default;

  /// Adds a document; returns its DocId (dense, in insertion order).
  /// Must not be called after Freeze().
  DocId AddDocument(const std::vector<TokenId>& tokens);

  /// Compresses every posting list into immutable blocks and releases the
  /// raw build storage. Idempotent; required before constructing a
  /// Bm25Scorer, opening cursors, or saving a snapshot.
  void Freeze();

  bool is_frozen() const { return frozen_; }

  size_t document_count() const { return doc_lengths_.size(); }

  /// Length (token count) of `doc`.
  int32_t DocumentLength(DocId doc) const;

  /// Average document length; 0 when empty.
  double AverageDocumentLength() const;

  /// Number of documents containing `term` (works frozen or not).
  int32_t DocumentFrequency(TokenId term) const;

  /// Raw postings of `term` during the build phase; empty if unseen.
  /// Only valid before Freeze() — frozen lists are read through cursors.
  const std::vector<Posting>& PostingsOf(TokenId term) const;

  /// Materializes `term`'s postings (decoding blocks when frozen). For
  /// tests and validation — scoring uses cursors.
  std::vector<Posting> DecodedPostings(TokenId term) const;

  /// Opens a decode cursor over `term`'s frozen posting list. The cursor
  /// is exhausted immediately if the term is unseen. Requires Freeze().
  PostingCursor OpenCursor(TokenId term) const;

  // --- Frozen-form accessors (serialization + stats; require Freeze()).

  /// Term directory, ascending by term id.
  const std::vector<CompressedTermList>& frozen_terms() const;
  /// Shared block metadata array (terms hold [block_begin, block_end)).
  const std::vector<PostingBlockMeta>& frozen_blocks() const;
  /// Concatenated encoded blocks.
  const std::string& compressed_payload() const;
  /// Bytes the raw `std::vector<Posting>` form of the postings would
  /// occupy (the memory the compression saved).
  uint64_t raw_posting_bytes() const;

  /// Rebuilds a frozen index directly from its compressed parts (the
  /// snapshot load path). Performs a full fail-closed validation pass:
  /// every block is decoded and checked against its metadata (count,
  /// last_doc, max_tf, min_dl recomputed from doc_lengths), terms must be
  /// strictly ascending, offsets/lengths must tile the payload exactly,
  /// and doc ids must be strictly ascending within each list and within
  /// [0, doc_lengths.size()). Returns false on any violation.
  static bool RestoreCompressed(std::vector<int32_t> doc_lengths,
                                std::vector<CompressedTermList> terms,
                                std::vector<PostingBlockMeta> blocks,
                                std::string payload, InvertedIndex* out);

 private:
  friend class PostingCursor;

  const CompressedTermList* FindTerm(TokenId term) const;

  bool frozen_ = false;
  std::unordered_map<TokenId, std::vector<Posting>> postings_;  // build only
  std::vector<int32_t> doc_lengths_;
  int64_t total_length_ = 0;
  int64_t total_postings_ = 0;

  // Frozen form (empty until Freeze()).
  std::vector<CompressedTermList> terms_;  // ascending term id
  std::vector<PostingBlockMeta> blocks_;
  std::string payload_;
};

/// Forward-only decode cursor over one frozen posting list. Blocks are
/// decoded lazily: `SkipBlocksTo` advances over whole blocks using only
/// their `last_doc` metadata (counted as skipped when never decoded), and
/// a block is decoded at most once per traversal. Cheap to construct; not
/// thread-safe (open one per thread).
class PostingCursor {
 public:
  /// An exhausted cursor over nothing (unseen term).
  PostingCursor() = default;

  bool at_end() const { return at_end_; }
  DocId doc() const { return decoded_docs_[pos_]; }
  int32_t term_frequency() const { return decoded_tfs_[pos_]; }
  int64_t doc_frequency() const { return list_.doc_frequency; }

  /// Block metadata slice for this list (for list/block max-score bounds).
  std::span<const PostingBlockMeta> blocks() const;
  /// Metadata of the block the cursor is currently positioned on.
  /// Valid only while !at_end().
  const PostingBlockMeta& current_block() const;

  /// Advances to the next posting.
  void Next();

  /// Positions the cursor's block on the first block whose last_doc >=
  /// `target`, without decoding. Returns false (and exhausts the cursor)
  /// when no such block exists. Forward-only.
  bool SkipBlocksTo(DocId target);

  /// Advances to the first posting with doc >= `target` (decoding the
  /// positioned block). Returns false when the list is exhausted first.
  /// Forward-only: `target` must not decrease across calls.
  bool SeekTo(DocId target);

  /// Blocks passed over by SkipBlocksTo without ever being decoded.
  int64_t blocks_skipped() const { return blocks_skipped_; }
  /// Blocks decoded by this cursor.
  int64_t blocks_decoded() const { return blocks_decoded_; }

 private:
  friend class InvertedIndex;

  PostingCursor(const InvertedIndex* index, const CompressedTermList& list);

  void DecodeCurrentBlock();

  const InvertedIndex* index_ = nullptr;
  CompressedTermList list_;
  uint32_t block_ = 0;         // current block index (absolute in blocks_)
  bool block_decoded_ = false;
  bool at_end_ = true;
  size_t pos_ = 0;             // position within the decoded block
  size_t count_ = 0;           // postings in the decoded block
  int64_t blocks_skipped_ = 0;
  int64_t blocks_decoded_ = 0;
  std::array<int32_t, kPostingBlockSize> decoded_docs_;
  std::array<int32_t, kPostingBlockSize> decoded_tfs_;
};

}  // namespace ultrawiki

#endif  // ULTRAWIKI_INDEX_INVERTED_INDEX_H_
