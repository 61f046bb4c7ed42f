#include "lm/prefix_trie.h"

#include <algorithm>

#include "common/logging.h"

namespace ultrawiki {

PrefixTrie::PrefixTrie() { nodes_.emplace_back(); }

void PrefixTrie::Insert(std::span<const TokenId> name, EntityId entity) {
  UW_CHECK(!name.empty());
  NodeId current = kRoot;
  for (TokenId token : name) {
    Node& node = nodes_[static_cast<size_t>(current)];
    const auto it = std::lower_bound(node.child_tokens.begin(),
                                     node.child_tokens.end(), token);
    const auto slot = it - node.child_tokens.begin();
    if (it != node.child_tokens.end() && *it == token) {
      current = node.child_nodes[static_cast<size_t>(slot)];
      continue;
    }
    const NodeId fresh = static_cast<NodeId>(nodes_.size());
    node.child_tokens.insert(it, token);
    node.child_nodes.insert(node.child_nodes.begin() + slot, fresh);
    nodes_.emplace_back();  // invalidates `node`
    current = fresh;
  }
  Node& leaf = nodes_[static_cast<size_t>(current)];
  if (leaf.terminal == kInvalidEntityId) {
    leaf.terminal = entity;
    ++entity_count_;
  }
}

PrefixTrie::Children PrefixTrie::ChildrenOf(NodeId node) const {
  UW_CHECK_GE(node, 0);
  UW_CHECK_LT(static_cast<size_t>(node), nodes_.size());
  const Node& n = nodes_[static_cast<size_t>(node)];
  return Children{n.child_tokens, n.child_nodes};
}

EntityId PrefixTrie::TerminalOf(NodeId node) const {
  UW_CHECK_GE(node, 0);
  UW_CHECK_LT(static_cast<size_t>(node), nodes_.size());
  return nodes_[static_cast<size_t>(node)].terminal;
}

PrefixTrie::NodeId PrefixTrie::Walk(std::span<const TokenId> tokens) const {
  NodeId current = kRoot;
  for (TokenId token : tokens) {
    const Node& node = nodes_[static_cast<size_t>(current)];
    const auto it = std::lower_bound(node.child_tokens.begin(),
                                     node.child_tokens.end(), token);
    if (it == node.child_tokens.end() || *it != token) return -1;
    current = node.child_nodes[static_cast<size_t>(
        it - node.child_tokens.begin())];
  }
  return current;
}

}  // namespace ultrawiki
