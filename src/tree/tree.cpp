#include "tree/tree.hpp"

#include <algorithm>

namespace croute {

Tree::Tree(std::vector<std::uint32_t> parent) : parent_(std::move(parent)) {
  const std::uint32_t n = size();
  CROUTE_REQUIRE(n >= 1, "a tree needs at least one node");

  // Locate the root and count children: child_offset_[p + 2] counts p's
  // children, so after the prefix sum child_offset_[p + 1] is where p's
  // slice starts and the fill below can advance it in place.
  child_offset_.assign(std::size_t{n} + 2, 0);
  for (std::uint32_t v = 0; v < n; ++v) {
    if (parent_[v] == kNoLocal) {
      CROUTE_REQUIRE(root_ == kNoLocal, "multiple roots in parent array");
      root_ = v;
    } else {
      CROUTE_REQUIRE(parent_[v] < n, "parent index out of range");
      CROUTE_REQUIRE(parent_[v] != v, "self-parent");
      ++child_offset_[parent_[v] + 2];
    }
  }
  CROUTE_REQUIRE(root_ != kNoLocal, "no root in parent array");
  for (std::size_t i = 2; i < child_offset_.size(); ++i) {
    child_offset_[i] += child_offset_[i - 1];
  }
  // Ascending ids per parent: the fill emits ascending v.
  children_.resize(n - 1);
  for (std::uint32_t v = 0; v < n; ++v) {
    if (parent_[v] != kNoLocal) children_[child_offset_[parent_[v] + 1]++] = v;
  }
  child_offset_.pop_back();  // now child_offset_[v] is v's slice start

  // Iterative preorder; also computes depth and detects cycles (a node
  // reachable from the root count must equal n).
  depth_.assign(n, 0);
  preorder_.clear();
  preorder_.reserve(n);
  std::vector<std::uint32_t> stack;
  stack.reserve(n);
  stack.push_back(root_);
  while (!stack.empty()) {
    const std::uint32_t v = stack.back();
    stack.pop_back();
    preorder_.push_back(v);
    const auto kids = children(v);
    // Push in reverse so that children pop in ascending order.
    for (std::size_t i = kids.size(); i > 0; --i) {
      const std::uint32_t c = kids[i - 1];
      depth_[c] = depth_[v] + 1;
      height_ = std::max(height_, depth_[c]);
      stack.push_back(c);
    }
  }
  CROUTE_REQUIRE(preorder_.size() == n,
                 "parent array contains a cycle or unreachable nodes");

  // Subtree sizes: reverse preorder is a valid post-order for accumulation.
  size_.assign(n, 1);
  for (std::size_t i = preorder_.size(); i > 0; --i) {
    const std::uint32_t v = preorder_[i - 1];
    if (parent_[v] != kNoLocal) size_[parent_[v]] += size_[v];
  }
}

}  // namespace croute
