// Exhaustive correctness of the §2 tree-routing schemes: every ordered pair
// of a tree must be routed along the unique tree path, in both the
// fixed-port scheme (TreeRoutingScheme) and the designer-port scheme
// (IntervalTreeScheme). Label-size bounds are validated against the
// theorems, and the codec round-trips bit-exactly.
//
// TEST_P sweeps cover tree families × sizes × seeds.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <tuple>
#include <vector>

#include "graph/dijkstra.hpp"
#include "graph/generators.hpp"
#include "graph/spt.hpp"
#include "sim/simulator.hpp"
#include "tree/tree_router.hpp"
#include "util/random.hpp"

namespace croute {
namespace {

/// Unique tree-path length between two vertices of a tree graph.
Weight tree_distance(const Graph& g, VertexId s, VertexId t) {
  return distances_from(g, s)[t];
}

LocalTree span(const Graph& g, VertexId root) {
  return make_local_tree(dijkstra(g, root));
}

// ------------------------------------------------ fixed-port tree scheme ---

struct TreeCase {
  const char* family;
  VertexId n;
  std::uint64_t seed;
};

Graph make_tree_graph(const TreeCase& c) {
  Rng rng(c.seed);
  const std::string f = c.family;
  if (f == "random") return random_tree(c.n, rng);
  if (f == "path") return path_graph(c.n);
  if (f == "star") return star_graph(c.n);
  if (f == "binary") return balanced_tree(c.n, 2);
  if (f == "caterpillar") {
    return caterpillar(std::max<VertexId>(1, c.n / 4), 3,
                       WeightModel::unit(), rng);
  }
  return random_tree(c.n, rng, WeightModel::uniform_real(1.0, 5.0));
}

class TreeRoutingSweep : public ::testing::TestWithParam<TreeCase> {};

TEST_P(TreeRoutingSweep, AllPairsExactFixedPort) {
  const TreeCase c = GetParam();
  const Graph g = make_tree_graph(c);
  const LocalTree tree = span(g, 0);
  const TreeRoutingScheme trs(tree);
  const Simulator sim(g);

  // Exact pairwise distances in a tree: one Dijkstra per source.
  for (std::uint32_t s = 0; s < tree.size(); ++s) {
    const auto ds = distances_from(g, tree.global[s]);
    for (std::uint32_t t = 0; t < tree.size(); ++t) {
      const RouteResult r = route_tree(sim, tree, trs, s, t);
      ASSERT_TRUE(r.delivered())
          << c.family << " n=" << c.n << ": " << r.describe();
      ASSERT_NEAR(r.length, ds[tree.global[t]], 1e-9)
          << "tree route must follow the unique tree path";
    }
  }
}

TEST_P(TreeRoutingSweep, AllPairsExactDesignerPort) {
  const TreeCase c = GetParam();
  const Graph g = make_tree_graph(c);
  const LocalTree tree = span(g, 0);
  const IntervalTreeScheme its(tree);
  const Simulator sim(g);

  for (std::uint32_t s = 0; s < tree.size(); ++s) {
    const auto ds = distances_from(g, tree.global[s]);
    for (std::uint32_t t = 0; t < tree.size(); ++t) {
      const RouteResult r = route_interval_tree(sim, tree, its, s, t);
      ASSERT_TRUE(r.delivered()) << c.family << " n=" << c.n;
      ASSERT_NEAR(r.length, ds[tree.global[t]], 1e-9);
    }
  }
}

// The pooled label against its definition: the down ports of the light
// edges on the root → v path, root side first. Light means not the child
// with the largest subtree (ties to the smallest local id). Sizes and
// heavy children are recomputed here from the parent array alone.
TEST_P(TreeRoutingSweep, PooledLabelMatchesBruteForceDefinition) {
  const TreeCase c = GetParam();
  const Graph g = make_tree_graph(c);
  const LocalTree tree = span(g, 0);
  const TreeRoutingScheme trs(tree);
  const std::uint32_t n = tree.size();

  std::vector<std::uint32_t> size(n, 0);
  for (std::uint32_t v = 0; v < n; ++v) {
    for (std::uint32_t u = v; u != kNoLocal; u = tree.parent[u]) ++size[u];
  }
  std::vector<std::uint32_t> heavy(n, kNoLocal);
  for (std::uint32_t v = 0; v < n; ++v) {
    const std::uint32_t p = tree.parent[v];
    if (p == kNoLocal) continue;
    const std::uint32_t h = heavy[p];
    if (h == kNoLocal || size[v] > size[h] || (size[v] == size[h] && v < h)) {
      heavy[p] = v;
    }
  }

  for (std::uint32_t v = 0; v < n; ++v) {
    std::vector<Port> expected;
    for (std::uint32_t u = v; tree.parent[u] != kNoLocal; u = tree.parent[u]) {
      if (heavy[tree.parent[u]] != u) expected.push_back(tree.down_port[u]);
    }
    std::reverse(expected.begin(), expected.end());

    const std::span<const Port> got = trs.light_ports(v);
    ASSERT_EQ(std::vector<Port>(got.begin(), got.end()), expected)
        << c.family << " n=" << c.n << " v=" << v;
    ASSERT_EQ(got.size(), trs.record(v).light_depth) << "v=" << v;
    ASSERT_EQ(trs.label(v), (TreeLabel{trs.record(v).dfs_in, expected}))
        << "v=" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, TreeRoutingSweep,
    ::testing::Values(TreeCase{"random", 2, 1}, TreeCase{"random", 3, 2},
                      TreeCase{"random", 17, 3}, TreeCase{"random", 64, 4},
                      TreeCase{"random", 200, 5}, TreeCase{"path", 50, 6},
                      TreeCase{"star", 50, 7}, TreeCase{"binary", 63, 8},
                      TreeCase{"caterpillar", 80, 9},
                      TreeCase{"weighted", 120, 10}),
    [](const ::testing::TestParamInfo<TreeCase>& info) {
      return std::string(info.param.family) + "_n" +
             std::to_string(info.param.n) + "_s" +
             std::to_string(info.param.seed);
    });

// --------------------------------------------------------- label bounds ---

TEST(TreeLabels, LightPortsBoundedByLogN) {
  Rng rng(20);
  for (const VertexId n : {10u, 100u, 1000u, 4000u}) {
    const Graph g = random_tree(n, rng);
    const LocalTree tree = span(g, 0);
    const TreeRoutingScheme trs(tree);
    const auto bound = static_cast<std::size_t>(std::floor(std::log2(n)));
    for (std::uint32_t v = 0; v < trs.size(); ++v) {
      ASSERT_LE(trs.label(v).light_ports.size(), bound) << "n=" << n;
    }
  }
}

TEST(TreeLabels, PathTreeLabelsAreOneWord) {
  // A path decomposes into one heavy path: labels carry no light ports at
  // all, so the scheme hits its (1+o(1))·log n designer-bound even in the
  // fixed-port model.
  const Graph g = path_graph(500);
  const LocalTree tree = span(g, 0);
  const TreeRoutingScheme trs(tree);
  for (std::uint32_t v = 0; v < trs.size(); ++v) {
    EXPECT_TRUE(trs.label(v).light_ports.empty());
  }
}

TEST(TreeLabels, IntervalLabelIsCeilLog2N) {
  Rng rng(21);
  for (const VertexId n : {2u, 100u, 1000u}) {
    const Graph g = random_tree(n, rng);
    const IntervalTreeScheme its(span(g, 0));
    EXPECT_EQ(its.label_bits(), bits_for_universe(n)) << "n=" << n;
  }
}

TEST(TreeLabels, CodecRoundTrip) {
  Rng rng(22);
  const Graph g = random_tree(300, rng);
  const LocalTree tree = span(g, 0);
  const TreeRoutingScheme trs(tree);
  const TreeRoutingScheme::Codec codec(tree.size(), g.max_degree());
  for (std::uint32_t v = 0; v < trs.size(); ++v) {
    BitWriter w;
    TreeRoutingScheme::encode_label(trs.label(v), codec, w);
    EXPECT_EQ(w.bit_size(), TreeRoutingScheme::label_bits(trs.label(v), codec));
    BitReader r(w);
    const TreeLabel back = TreeRoutingScheme::decode_label(codec, r);
    ASSERT_EQ(back, trs.label(v));
  }
}

TEST(TreeRecords, CodecRoundTrip) {
  Rng rng(23);
  const Graph g = random_tree(300, rng);
  const LocalTree tree = span(g, 0);
  const TreeRoutingScheme trs(tree);
  const TreeRoutingScheme::Codec codec(tree.size(), g.max_degree());
  for (std::uint32_t v = 0; v < trs.size(); ++v) {
    BitWriter w;
    TreeRoutingScheme::encode_record(trs.record(v), codec, w);
    EXPECT_EQ(w.bit_size(),
              TreeRoutingScheme::record_bits(trs.record(v), codec));
    BitReader r(w);
    const TreeNodeRecord back = TreeRoutingScheme::decode_record(codec, r);
    EXPECT_EQ(back.dfs_in, trs.record(v).dfs_in);
    EXPECT_EQ(back.dfs_out, trs.record(v).dfs_out);
    EXPECT_EQ(back.heavy_in, trs.record(v).heavy_in);
    EXPECT_EQ(back.heavy_out, trs.record(v).heavy_out);
    EXPECT_EQ(back.heavy_port, trs.record(v).heavy_port);
    EXPECT_EQ(back.parent_port, trs.record(v).parent_port);
    EXPECT_EQ(back.light_depth, trs.record(v).light_depth);
  }
}

TEST(TreeLabels, FixedPortLabelGrowthIsSubquadraticInLogN) {
  // Measured worst-case label bits on balanced binary trees (the
  // worst case for light depth) must stay within O(log² n).
  Rng rng(24);
  for (const VertexId n : {63u, 255u, 1023u, 4095u}) {
    const Graph g = balanced_tree(n, 2);
    const LocalTree tree = span(g, 0);
    const TreeRoutingScheme trs(tree);
    const TreeRoutingScheme::Codec codec(tree.size(), g.max_degree());
    std::uint64_t worst = 0;
    for (std::uint32_t v = 0; v < trs.size(); ++v) {
      worst = std::max(worst,
                       TreeRoutingScheme::label_bits(trs.label(v), codec));
    }
    const double log_n = std::log2(static_cast<double>(n) + 1);
    EXPECT_LE(static_cast<double>(worst), 3.0 * log_n * log_n + 16)
        << "n=" << n;
  }
}

// ---------------------------------------------------------- decision fn ---

TEST(TreeDecision, DeliversOnlyAtDestination) {
  Rng rng(25);
  const Graph g = random_tree(100, rng);
  const LocalTree tree = span(g, 0);
  const TreeRoutingScheme trs(tree);
  for (std::uint32_t v = 0; v < trs.size(); ++v) {
    for (std::uint32_t t = 0; t < trs.size(); ++t) {
      const TreeDecision d =
          TreeRoutingScheme::decide(trs.record(v), trs.label(t));
      ASSERT_EQ(d.deliver, v == t);
      if (!d.deliver) {
        ASSERT_NE(d.port, kNoPort);
      }
    }
  }
}

TEST(TreeDecision, NextHopIsOnTheTreePath) {
  Rng rng(26);
  const Graph g = random_tree(150, rng);
  const LocalTree tree = span(g, 0);
  const TreeRoutingScheme trs(tree);
  // At each vertex the decision must move strictly closer to t in the tree.
  for (std::uint32_t s = 0; s < tree.size(); s += 13) {
    for (std::uint32_t t = 0; t < tree.size(); t += 7) {
      if (s == t) continue;
      const TreeDecision d =
          TreeRoutingScheme::decide(trs.record(s), trs.label(t));
      const VertexId next = g.neighbor(tree.global[s], d.port);
      const Weight before = tree_distance(g, tree.global[s], tree.global[t]);
      const Weight after = tree_distance(g, next, tree.global[t]);
      ASSERT_LT(after, before);
    }
  }
}

TEST(IntervalScheme, DesignerPortsArePermutationPerVertex) {
  Rng rng(27);
  const Graph g = random_tree(120, rng);
  const LocalTree tree = span(g, 0);
  const IntervalTreeScheme its(tree);
  const Tree t = Tree::from_local_tree(tree);
  for (std::uint32_t v = 0; v < its.size(); ++v) {
    // Designer port 0 is the parent (non-root only); ports 1..#children
    // lead to children in heavy-first order. All map to distinct graph
    // ports.
    std::vector<bool> used(g.degree(tree.global[v]), false);
    const std::uint32_t first = t.is_root(v) ? 1 : 0;
    for (std::uint32_t p = first; p <= t.num_children(v); ++p) {
      const Port gp = its.to_graph_port(v, p);
      ASSERT_LT(gp, g.degree(tree.global[v]));
      ASSERT_FALSE(used[gp]);
      used[gp] = true;
    }
  }
}

TEST(IntervalScheme, NodeAtInvertsLabels) {
  Rng rng(28);
  const Graph g = random_tree(90, rng);
  const LocalTree tree = span(g, 0);
  const IntervalTreeScheme its(tree);
  for (std::uint32_t v = 0; v < its.size(); ++v) {
    ASSERT_EQ(its.node_at(its.label(v)), v);
  }
}

}  // namespace
}  // namespace croute
