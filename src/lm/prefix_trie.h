#ifndef ULTRAWIKI_LM_PREFIX_TRIE_H_
#define ULTRAWIKI_LM_PREFIX_TRIE_H_

#include <span>
#include <vector>

#include "corpus/types.h"
#include "text/vocabulary.h"

namespace ultrawiki {

/// Token-level prefix tree over candidate-entity surface forms (paper
/// Fig. 6). During constrained decoding the beam may only follow root→leaf
/// paths, guaranteeing every generated entity is a real candidate — the
/// property that separates GenExpan from hallucinating baselines.
class PrefixTrie {
 public:
  PrefixTrie();

  /// Inserts an entity surface form. Duplicate token sequences keep the
  /// first entity (candidate names are unique in practice). New nodes are
  /// numbered in insertion order, whatever their token.
  void Insert(std::span<const TokenId> name, EntityId entity);

  /// Node handle; 0 is the root.
  using NodeId = int32_t;
  static constexpr NodeId kRoot = 0;

  /// A node's children as parallel arrays sorted by ascending token id:
  /// child i is reached by `tokens[i]` and has node id `nodes[i]`.
  struct Children {
    std::span<const TokenId> tokens;
    std::span<const NodeId> nodes;
    size_t size() const { return tokens.size(); }
    bool empty() const { return tokens.empty(); }
  };

  Children ChildrenOf(NodeId node) const;

  /// Entity completed at `node`, or kInvalidEntityId.
  EntityId TerminalOf(NodeId node) const;

  /// Walks `tokens` from the root; returns the reached node or -1.
  NodeId Walk(std::span<const TokenId> tokens) const;

  size_t node_count() const { return nodes_.size(); }
  size_t entity_count() const { return entity_count_; }

 private:
  struct Node {
    std::vector<TokenId> child_tokens;  // sorted ascending
    std::vector<NodeId> child_nodes;    // parallel to child_tokens
    EntityId terminal = kInvalidEntityId;
  };

  std::vector<Node> nodes_;
  size_t entity_count_ = 0;
};

}  // namespace ultrawiki

#endif  // ULTRAWIKI_LM_PREFIX_TRIE_H_
