/// \file heavy_path.hpp
/// \brief Heavy-path (heavy-light) decomposition and heavy-first DFS order.
///
/// Following Thorup–Zwick §2: the *heavy child* of a non-leaf v is its
/// child with the largest subtree (ties broken toward the smallest local
/// id). An edge to a non-heavy child is *light*; descending a light edge
/// at least halves the subtree size, so every root-leaf path contains at
/// most floor(log2 n) light edges. The tree-routing schemes rest on two
/// artifacts computed here:
///  - a DFS numbering in which each node's heavy child is visited first
///    and remaining children are visited in decreasing subtree size, and
///  - the light depth of each node (number of light edges on its root path).
///
/// Layout: one array per field, indexed by local id, plus the visit order
/// as one CSR array (a copy of Tree's children array with each node's
/// slice sorted heavy-first). The decomposition owns all of it, so it
/// may outlive the Tree it was built from.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tree/tree.hpp"

namespace croute {

/// Heavy-path decomposition of a Tree.
class HeavyPathDecomposition {
 public:
  explicit HeavyPathDecomposition(const Tree& tree);

  /// Heavy child of v, or kNoLocal for leaves.
  std::uint32_t heavy_child(std::uint32_t v) const { return heavy_child_[v]; }

  /// True if the edge (parent(v) → v) is light; the root edge counts as
  /// heavy by convention (root has no parent edge).
  bool is_light(std::uint32_t v) const { return light_[v]; }

  /// Number of light edges on the root → v path. At most floor(log2 n).
  std::uint32_t light_depth(std::uint32_t v) const { return light_depth_[v]; }

  /// Topmost node of v's heavy path.
  std::uint32_t head(std::uint32_t v) const { return head_[v]; }

  /// Heavy-first DFS numbers: dfs_in(v) is v's preorder index, the
  /// subtree of v occupies [dfs_in(v), dfs_out(v)).
  std::uint32_t dfs_in(std::uint32_t v) const { return dfs_in_[v]; }
  std::uint32_t dfs_out(std::uint32_t v) const { return dfs_out_[v]; }

  /// Inverse of dfs_in: node with preorder index i.
  std::uint32_t node_at(std::uint32_t dfs_index) const {
    return order_[dfs_index];
  }

  /// Children of v in visit order (heavy first, then decreasing size).
  std::span<const std::uint32_t> visit_order(std::uint32_t v) const {
    return {visit_.data() + visit_off_[v], visit_off_[v + 1] - visit_off_[v]};
  }

  /// Max light depth over all nodes (the scheme's label-length driver).
  std::uint32_t max_light_depth() const noexcept { return max_light_depth_; }

 private:
  std::vector<std::uint32_t> heavy_child_;
  std::vector<std::uint8_t> light_;
  std::vector<std::uint32_t> light_depth_;
  std::vector<std::uint32_t> head_;
  std::vector<std::uint32_t> dfs_in_;
  std::vector<std::uint32_t> dfs_out_;
  std::vector<std::uint32_t> order_;
  std::vector<std::uint32_t> visit_off_;  ///< n+1 offsets into visit_
  std::vector<std::uint32_t> visit_;      ///< children, heavy-first per node
  std::uint32_t max_light_depth_ = 0;
};

}  // namespace croute
