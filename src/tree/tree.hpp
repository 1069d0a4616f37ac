/// \file tree.hpp
/// \brief Rooted tree over local indices: children CSR, depth, subtree size.
///
/// All traversals are iterative — cluster trees can be paths of 10^5+
/// vertices and recursion would overflow the stack.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/spt.hpp"

namespace croute {

/// Rooted tree given by a parent array over local ids [0, n).
/// Exactly one node (the root) has parent == kNoLocal.
class Tree {
 public:
  /// Builds from a parent array; children of each node are ordered by
  /// ascending local id. Validates single-rootedness and acyclicity.
  explicit Tree(std::vector<std::uint32_t> parent);

  /// Convenience: tree structure of a LocalTree (ports/globals ignored).
  static Tree from_local_tree(const LocalTree& t) { return Tree(t.parent); }

  std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(parent_.size());
  }
  std::uint32_t root() const noexcept { return root_; }

  std::uint32_t parent(std::uint32_t v) const { return parent_[v]; }
  bool is_root(std::uint32_t v) const { return parent_[v] == kNoLocal; }

  std::span<const std::uint32_t> children(std::uint32_t v) const {
    return {children_.data() + child_offset_[v],
            child_offset_[v + 1] - child_offset_[v]};
  }
  std::uint32_t num_children(std::uint32_t v) const {
    return child_offset_[v + 1] - child_offset_[v];
  }
  bool is_leaf(std::uint32_t v) const { return num_children(v) == 0; }

  /// Edge-count depth: depth(root) == 0.
  std::uint32_t depth(std::uint32_t v) const { return depth_[v]; }

  /// Number of vertices in v's subtree, including v.
  std::uint32_t subtree_size(std::uint32_t v) const { return size_[v]; }

  /// Nodes in a preorder where children are visited in the order given by
  /// children() (ascending id). Computed once, cached.
  const std::vector<std::uint32_t>& preorder() const { return preorder_; }

  /// Height: max depth over nodes.
  std::uint32_t height() const noexcept { return height_; }

 private:
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> child_offset_;  ///< n+1 offsets into children_
  std::vector<std::uint32_t> children_;
  std::vector<std::uint32_t> depth_;
  std::vector<std::uint32_t> size_;
  std::vector<std::uint32_t> preorder_;
  std::uint32_t root_ = kNoLocal;
  std::uint32_t height_ = 0;
};

}  // namespace croute
