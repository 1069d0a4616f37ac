// Unit tests for tree/tree and tree/heavy_path: structural invariants,
// the light-depth ≤ floor(log2 n) theorem, and DFS interval nesting.

#include "tree/tree.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "graph/dijkstra.hpp"
#include "graph/generators.hpp"
#include "graph/spt.hpp"
#include "tree/heavy_path.hpp"
#include "util/random.hpp"

namespace croute {
namespace {

/// Rooted tree over a tree-shaped graph, rooted at `root`.
Tree tree_of(const Graph& g, VertexId root) {
  return Tree::from_local_tree(make_local_tree(dijkstra(g, root)));
}

TEST(Tree, SingleNode) {
  const Tree t(std::vector<std::uint32_t>{kNoLocal});
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.root(), 0u);
  EXPECT_TRUE(t.is_leaf(0));
  EXPECT_EQ(t.depth(0), 0u);
  EXPECT_EQ(t.subtree_size(0), 1u);
  EXPECT_EQ(t.height(), 0u);
}

TEST(Tree, SmallExplicitTree) {
  //      0
  //     / .
  //    1   2
  //   /|
  //  3 4
  const Tree t({kNoLocal, 0, 0, 1, 1});
  EXPECT_EQ(t.root(), 0u);
  EXPECT_EQ(t.num_children(0), 2u);
  EXPECT_EQ(t.num_children(1), 2u);
  EXPECT_TRUE(t.is_leaf(3));
  EXPECT_EQ(t.depth(4), 2u);
  EXPECT_EQ(t.subtree_size(1), 3u);
  EXPECT_EQ(t.subtree_size(0), 5u);
  EXPECT_EQ(t.height(), 2u);
  EXPECT_EQ(t.parent(3), 1u);
  EXPECT_TRUE(t.is_root(0));
}

TEST(Tree, PreorderVisitsParentsFirst) {
  Rng rng(1);
  const Graph g = random_tree(200, rng);
  const Tree t = tree_of(g, 0);
  const auto& pre = t.preorder();
  ASSERT_EQ(pre.size(), t.size());
  std::vector<std::uint32_t> position(t.size());
  for (std::uint32_t i = 0; i < pre.size(); ++i) position[pre[i]] = i;
  for (std::uint32_t v = 0; v < t.size(); ++v) {
    if (!t.is_root(v)) {
      ASSERT_LT(position[t.parent(v)], position[v]);
    }
  }
}

TEST(Tree, TwoRootsRejected) {
  EXPECT_THROW(Tree({kNoLocal, kNoLocal}), std::invalid_argument);
}

TEST(Tree, CycleRejected) {
  EXPECT_THROW(Tree({1, 0}), std::invalid_argument);
  EXPECT_THROW(Tree({kNoLocal, 2, 1}), std::invalid_argument);
}

TEST(Tree, SubtreeSizesSumCorrectly) {
  Rng rng(2);
  const Graph g = random_tree(300, rng);
  const Tree t = tree_of(g, 5);
  for (std::uint32_t v = 0; v < t.size(); ++v) {
    std::uint32_t child_sum = 1;
    for (const auto c : t.children(v)) child_sum += t.subtree_size(c);
    ASSERT_EQ(t.subtree_size(v), child_sum);
  }
  EXPECT_EQ(t.subtree_size(t.root()), t.size());
}

// ------------------------------------------------------------ heavy path ---

TEST(HeavyPath, HeavyChildHasMaxSubtree) {
  Rng rng(3);
  const Graph g = random_tree(400, rng);
  const Tree t = tree_of(g, 0);
  const HeavyPathDecomposition h(t);
  for (std::uint32_t v = 0; v < t.size(); ++v) {
    if (t.is_leaf(v)) {
      EXPECT_EQ(h.heavy_child(v), kNoLocal);
      continue;
    }
    const std::uint32_t hc = h.heavy_child(v);
    for (const auto c : t.children(v)) {
      ASSERT_GE(t.subtree_size(hc), t.subtree_size(c));
    }
  }
}

TEST(HeavyPath, LightDepthLogBound) {
  Rng rng(4);
  for (const VertexId n : {2u, 10u, 100u, 1000u, 5000u}) {
    const Graph g = random_tree(n, rng);
    const Tree t = tree_of(g, 0);
    const HeavyPathDecomposition h(t);
    const auto bound =
        static_cast<std::uint32_t>(std::floor(std::log2(n)));
    EXPECT_LE(h.max_light_depth(), bound) << "n = " << n;
  }
}

TEST(HeavyPath, LightDepthLogBoundWorstCases) {
  Rng rng(5);
  // Star: all children light except the heavy one; depth 1.
  {
    const Tree t = tree_of(star_graph(100), 0);
    const HeavyPathDecomposition h(t);
    EXPECT_LE(h.max_light_depth(), 1u);
  }
  // Path: a single heavy path, no light edges at all.
  {
    const Tree t = tree_of(path_graph(100), 0);
    const HeavyPathDecomposition h(t);
    EXPECT_EQ(h.max_light_depth(), 0u);
  }
  // Balanced binary tree: light depth ≈ log2 n.
  {
    const Tree t = tree_of(balanced_tree(255, 2), 0);
    const HeavyPathDecomposition h(t);
    EXPECT_LE(h.max_light_depth(), 7u);
    EXPECT_GE(h.max_light_depth(), 6u);
  }
}

TEST(HeavyPath, DfsIntervalsNestExactly) {
  Rng rng(6);
  const Graph g = random_tree(500, rng);
  const Tree t = tree_of(g, 7);
  const HeavyPathDecomposition h(t);
  for (std::uint32_t v = 0; v < t.size(); ++v) {
    ASSERT_EQ(h.dfs_out(v) - h.dfs_in(v), t.subtree_size(v));
    ASSERT_EQ(h.node_at(h.dfs_in(v)), v);
    if (!t.is_root(v)) {
      const std::uint32_t p = t.parent(v);
      ASSERT_LE(h.dfs_in(p) + 1, h.dfs_in(v));
      ASSERT_LE(h.dfs_out(v), h.dfs_out(p));
    }
  }
  EXPECT_EQ(h.dfs_in(t.root()), 0u);
  EXPECT_EQ(h.dfs_out(t.root()), t.size());
}

TEST(HeavyPath, HeavyChildVisitedFirst) {
  Rng rng(7);
  const Graph g = random_tree(300, rng);
  const Tree t = tree_of(g, 0);
  const HeavyPathDecomposition h(t);
  for (std::uint32_t v = 0; v < t.size(); ++v) {
    if (t.is_leaf(v)) continue;
    const std::uint32_t hc = h.heavy_child(v);
    ASSERT_EQ(h.dfs_in(hc), h.dfs_in(v) + 1);
    ASSERT_FALSE(h.is_light(hc));
    const auto& order = h.visit_order(v);
    ASSERT_EQ(order.front(), hc);
    // Visit order is by non-increasing subtree size.
    for (std::size_t i = 1; i < order.size(); ++i) {
      ASSERT_GE(t.subtree_size(order[i - 1]), t.subtree_size(order[i]));
      if (i >= 1) {
        ASSERT_TRUE(h.is_light(order[i]));
      }
    }
  }
}

TEST(HeavyPath, LightDepthAccumulatesAlongPaths) {
  Rng rng(8);
  const Graph g = random_tree(300, rng);
  const Tree t = tree_of(g, 0);
  const HeavyPathDecomposition h(t);
  for (std::uint32_t v = 0; v < t.size(); ++v) {
    if (t.is_root(v)) {
      ASSERT_EQ(h.light_depth(v), 0u);
      continue;
    }
    const std::uint32_t expect =
        h.light_depth(t.parent(v)) + (h.is_light(v) ? 1 : 0);
    ASSERT_EQ(h.light_depth(v), expect);
  }
}

TEST(HeavyPath, HeadIsTopOfHeavyPath) {
  Rng rng(9);
  const Graph g = random_tree(300, rng);
  const Tree t = tree_of(g, 0);
  const HeavyPathDecomposition h(t);
  for (std::uint32_t v = 0; v < t.size(); ++v) {
    const std::uint32_t head = h.head(v);
    // head and v lie on one heavy path: walking heavy children from head
    // reaches v.
    std::uint32_t x = head;
    bool found = false;
    while (x != kNoLocal) {
      if (x == v) {
        found = true;
        break;
      }
      x = h.heavy_child(x);
    }
    ASSERT_TRUE(found) << "node " << v;
    // head itself starts the path: either root or reached by a light edge.
    ASSERT_TRUE(t.is_root(head) || h.is_light(head));
  }
}

}  // namespace
}  // namespace croute
