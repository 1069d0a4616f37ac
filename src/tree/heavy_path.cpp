#include "tree/heavy_path.hpp"

#include <algorithm>

namespace croute {

HeavyPathDecomposition::HeavyPathDecomposition(const Tree& tree) {
  const std::uint32_t n = tree.size();
  heavy_child_.assign(n, kNoLocal);
  light_.assign(n, 0);
  light_depth_.assign(n, 0);
  head_.assign(n, kNoLocal);
  dfs_in_.assign(n, 0);
  dfs_out_.assign(n, 0);
  order_.assign(n, 0);

  // Visit orders: Tree's children CSR, each node's slice sorted heavy
  // first; the slice's first entry is the heavy child.
  visit_off_.resize(std::size_t{n} + 1);
  visit_.reserve(n - 1);
  for (std::uint32_t v = 0; v < n; ++v) {
    visit_off_[v] = static_cast<std::uint32_t>(visit_.size());
    const auto kids = tree.children(v);
    if (kids.empty()) continue;
    visit_.insert(visit_.end(), kids.begin(), kids.end());
    std::sort(visit_.begin() + visit_off_[v], visit_.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                const std::uint32_t sa = tree.subtree_size(a);
                const std::uint32_t sb = tree.subtree_size(b);
                if (sa != sb) return sa > sb;
                return a < b;
              });
    heavy_child_[v] = visit_[visit_off_[v]];
  }
  visit_off_[n] = static_cast<std::uint32_t>(visit_.size());

  // Heavy-first DFS numbers, top down: a node's children take consecutive
  // intervals in visit order, each as wide as its subtree. Tree's preorder
  // lists parents before children, which is all this pass needs.
  const std::uint32_t root = tree.root();
  head_[root] = root;
  for (const std::uint32_t v : tree.preorder()) {
    dfs_out_[v] = dfs_in_[v] + tree.subtree_size(v);
    order_[dfs_in_[v]] = v;
    std::uint32_t next = dfs_in_[v] + 1;
    for (const std::uint32_t c : visit_order(v)) {
      light_[c] = c != heavy_child_[v];
      light_depth_[c] = light_depth_[v] + light_[c];
      max_light_depth_ = std::max(max_light_depth_, light_depth_[c]);
      head_[c] = light_[c] ? c : head_[v];
      dfs_in_[c] = next;
      next += tree.subtree_size(c);
    }
    CROUTE_ASSERT(next == dfs_out_[v], "children must tile the subtree");
  }
}

}  // namespace croute
