// Unit and property tests for graph/dijkstra: single-source against a
// Bellman–Ford reference, multi-source lexicographic pivots against brute
// force, and the cluster-restricted run against an exhaustive definition.

#include "graph/dijkstra.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "graph/generators.hpp"
#include "graph/spt.hpp"
#include "util/random.hpp"

namespace croute {
namespace {

/// Bellman–Ford reference distances (slow, obviously correct).
std::vector<Weight> reference_distances(const Graph& g, VertexId s) {
  std::vector<Weight> d(g.num_vertices(), kInfiniteWeight);
  d[s] = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (d[v] >= kInfiniteWeight) continue;
      for (const Arc& a : g.arcs(v)) {
        if (d[v] + a.weight < d[a.head]) {
          d[a.head] = d[v] + a.weight;
          changed = true;
        }
      }
    }
  }
  return d;
}

Graph random_weighted(VertexId n, std::uint64_t m, std::uint64_t seed) {
  Rng rng(seed);
  return erdos_renyi_gnm(n, m, rng, WeightModel::uniform_real(0.5, 4.0));
}

TEST(Dijkstra, MatchesBellmanFord) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const Graph g = random_weighted(60, 150, seed);
    for (const VertexId s : {VertexId{0}, VertexId{13}, VertexId{59}}) {
      const ShortestPathTree spt = dijkstra(g, s);
      const std::vector<Weight> ref = reference_distances(g, s);
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        ASSERT_NEAR(spt.dist[v] >= kInfiniteWeight ? -1 : spt.dist[v],
                    ref[v] >= kInfiniteWeight ? -1 : ref[v], 1e-9)
            << "seed " << seed << " source " << s << " vertex " << v;
      }
    }
  }
}

TEST(Dijkstra, ParentChainsReconstructDistances) {
  const Graph g = random_weighted(80, 240, 4);
  const ShortestPathTree spt = dijkstra(g, 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (!spt.reached(v) || v == 0) continue;
    // Following parents accumulates exactly dist[v].
    Weight total = 0;
    VertexId x = v;
    std::uint32_t steps = 0;
    while (x != 0) {
      const VertexId p = spt.parent[x];
      ASSERT_NE(p, kNoVertex);
      // parent_port at x leads to p; down_port at p leads back to x.
      ASSERT_EQ(g.neighbor(x, spt.parent_port[x]), p);
      ASSERT_EQ(g.neighbor(p, spt.down_port[x]), x);
      total += g.arc(x, spt.parent_port[x]).weight;
      x = p;
      ASSERT_LT(++steps, g.num_vertices());
    }
    EXPECT_NEAR(total, spt.dist[v], 1e-9);
  }
}

TEST(Dijkstra, UnreachableVerticesMarked) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  const Graph g = b.build();
  const ShortestPathTree spt = dijkstra(g, 0);
  EXPECT_TRUE(spt.reached(1));
  EXPECT_FALSE(spt.reached(2));
  EXPECT_FALSE(spt.reached(3));
  EXPECT_EQ(spt.parent[2], kNoVertex);
}

TEST(Dijkstra, SingleVertex) {
  const Graph g = GraphBuilder(1).build();
  const ShortestPathTree spt = dijkstra(g, 0);
  EXPECT_EQ(spt.dist[0], 0);
  EXPECT_EQ(spt.parent[0], kNoVertex);
}

TEST(DistancesFrom, MatchesFullRun) {
  const Graph g = random_weighted(50, 120, 5);
  const auto d = distances_from(g, 7);
  const ShortestPathTree spt = dijkstra(g, 7);
  EXPECT_EQ(d, spt.dist);
}

TEST(AllPairs, SymmetricOnUndirected) {
  const Graph g = random_weighted(40, 100, 6);
  const auto d = all_pairs_distances(g);
  for (VertexId u = 0; u < 40; ++u) {
    for (VertexId v = 0; v < 40; ++v) {
      ASSERT_NEAR(d[u][v], d[v][u], 1e-9);
    }
  }
}

// --------------------------------------------------------- multi-source ---

TEST(MultiSource, OwnerIsLexNearestSource) {
  Rng rng(7);
  const Graph g = erdos_renyi_gnm(70, 200, rng,
                                  WeightModel::uniform_int(1, 3));
  const auto rank = rng.permutation(70);
  const std::vector<VertexId> sources = {3, 17, 42, 55};
  const MultiSourceResult ms = multi_source_dijkstra(g, sources, rank);

  // Brute force: per vertex, the (distance, rank) minimum over sources.
  std::vector<std::vector<Weight>> from_source;
  for (const VertexId s : sources) from_source.push_back(distances_from(g, s));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    LexDist best{};
    VertexId best_src = kNoVertex;
    for (std::size_t i = 0; i < sources.size(); ++i) {
      const LexDist cand{from_source[i][v], rank[sources[i]]};
      if (cand < best) {
        best = cand;
        best_src = sources[i];
      }
    }
    ASSERT_EQ(ms.owner[v], best_src) << "vertex " << v;
    ASSERT_NEAR(ms.dist[v], best.d, 1e-9);
  }
}

TEST(MultiSource, SourceOwnsItself) {
  Rng rng(8);
  const Graph g = erdos_renyi_gnm(50, 150, rng);
  const auto rank = rng.permutation(50);
  const std::vector<VertexId> sources = {5, 6, 7};
  const MultiSourceResult ms = multi_source_dijkstra(g, sources, rank);
  for (const VertexId s : sources) {
    EXPECT_EQ(ms.owner[s], s);
    EXPECT_EQ(ms.dist[s], 0);
    EXPECT_EQ(ms.parent[s], kNoVertex);
  }
}

TEST(MultiSource, EmptySourceSetAllUnreached) {
  Rng rng(9);
  const Graph g = erdos_renyi_gnm(10, 20, rng);
  const auto rank = rng.permutation(10);
  const MultiSourceResult ms = multi_source_dijkstra(g, {}, rank);
  for (VertexId v = 0; v < 10; ++v) EXPECT_FALSE(ms.reached(v));
}

TEST(MultiSource, ForestParentsPointTowardOwner) {
  Rng rng(10);
  const Graph g = erdos_renyi_gnm(60, 180, rng);
  const auto rank = rng.permutation(60);
  const std::vector<VertexId> sources = {1, 2, 3};
  const MultiSourceResult ms = multi_source_dijkstra(g, sources, rank);
  for (VertexId v = 0; v < 60; ++v) {
    if (ms.parent[v] == kNoVertex) continue;
    // Parent must share the owner and be closer.
    EXPECT_EQ(ms.owner[ms.parent[v]], ms.owner[v]);
    EXPECT_LT(ms.dist[ms.parent[v]], ms.dist[v] + 1e-12);
    EXPECT_EQ(g.neighbor(v, ms.parent_port[v]), ms.parent[v]);
  }
}

// ------------------------------------------------------------ restricted ---

/// Exhaustive definition of a cluster: all v with (d(w,v), rank(w)) <lex
/// (d(A,v), rank(owner)). Computed from full APSP.
std::vector<VertexId> brute_force_cluster(
    const Graph& g, VertexId w, const std::vector<std::uint32_t>& rank,
    const MultiSourceResult& guard) {
  const auto dw = distances_from(g, w);
  std::vector<VertexId> members;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const LexDist mine{dw[v], rank[w]};
    const LexDist bound = guard.reached(v)
                              ? LexDist{guard.dist[v], rank[guard.owner[v]]}
                              : LexDist{};
    if (v == w || mine < bound) members.push_back(v);
  }
  return members;
}

TEST(RestrictedDijkstra, MatchesBruteForceClusters) {
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    Rng rng(seed);
    const Graph g =
        erdos_renyi_gnm(60, 150, rng, WeightModel::uniform_int(1, 2));
    const auto rank = rng.permutation(60);
    const std::vector<VertexId> landmarks = {10, 20, 30};
    const MultiSourceResult guard = multi_source_dijkstra(g, landmarks, rank);
    RestrictedDijkstra rd(g);
    auto guard_fn = [&](VertexId v) { return guard.guard(v, rank); };
    for (VertexId w = 0; w < g.num_vertices(); ++w) {
      if (std::find(landmarks.begin(), landmarks.end(), w) != landmarks.end())
        continue;
      const auto run = rd.run(w, rank[w], guard_fn);
      std::vector<VertexId> got;
      for (const auto& m : run) got.push_back(m.v);
      std::sort(got.begin(), got.end());
      const auto expected = brute_force_cluster(g, w, rank, guard);
      ASSERT_EQ(got, expected) << "seed " << seed << " center " << w;
    }
  }
}

TEST(RestrictedDijkstra, DistancesAreExact) {
  Rng rng(14);
  const Graph g =
      erdos_renyi_gnm(60, 180, rng, WeightModel::uniform_real(0.5, 2.0));
  const auto rank = rng.permutation(60);
  const MultiSourceResult guard = multi_source_dijkstra(g, {0, 1}, rank);
  RestrictedDijkstra rd(g);
  auto guard_fn = [&](VertexId v) { return guard.guard(v, rank); };
  for (const VertexId w : {VertexId{10}, VertexId{25}, VertexId{50}}) {
    const auto dw = distances_from(g, w);
    for (const auto& m : rd.run(w, rank[w], guard_fn)) {
      ASSERT_NEAR(m.dist, dw[m.v], 1e-9);
    }
  }
}

TEST(RestrictedDijkstra, SettleOrderIsNonDecreasing) {
  Rng rng(15);
  const Graph g = erdos_renyi_gnm(80, 240, rng);
  const auto rank = rng.permutation(80);
  const MultiSourceResult guard = multi_source_dijkstra(g, {0}, rank);
  RestrictedDijkstra rd(g);
  auto guard_fn = [&](VertexId v) { return guard.guard(v, rank); };
  const auto run = rd.run(33, rank[33], guard_fn);
  for (std::size_t i = 1; i < run.size(); ++i) {
    ASSERT_GE(run[i].dist, run[i - 1].dist);
  }
  ASSERT_EQ(run.front().v, 33u);
  ASSERT_EQ(run.front().dist, 0);
}

TEST(RestrictedDijkstra, MaxMembersAborts) {
  Rng rng(16);
  const Graph g = erdos_renyi_gnm(100, 400, rng);
  const auto rank = rng.permutation(100);
  RestrictedDijkstra rd(g);
  // No guard at all: the "cluster" is the whole graph; cap at 10.
  auto no_guard = [](VertexId) { return LexDist{}; };
  const auto run = rd.run(0, rank[0], no_guard, 10);
  EXPECT_EQ(run.size(), 10u);
}

TEST(RestrictedDijkstra, WorkspaceReuseIsClean) {
  // Two consecutive runs from different centers must not leak state.
  Rng rng(17);
  const Graph g = erdos_renyi_gnm(50, 120, rng);
  const auto rank = rng.permutation(50);
  const MultiSourceResult guard = multi_source_dijkstra(g, {7}, rank);
  auto guard_fn = [&](VertexId v) { return guard.guard(v, rank); };
  RestrictedDijkstra rd(g);
  const auto run1 = rd.run(3, rank[3], guard_fn);
  const auto run2 = rd.run(3, rank[3], guard_fn);
  ASSERT_EQ(run1.size(), run2.size());
  for (std::size_t i = 0; i < run1.size(); ++i) {
    ASSERT_EQ(run1[i].v, run2[i].v);
    ASSERT_EQ(run1[i].dist, run2[i].dist);
  }
}

// ------------------------------------------------------- subpath closure ---

TEST(Clusters, SubpathClosureProperty) {
  // If v ∈ C(w), every vertex on the SPT path w→v is also in C(w) — the
  // property that makes restricted Dijkstra exact (file comment of
  // dijkstra.hpp). Verified on unit-weight graphs where ties are rampant.
  Rng rng(18);
  const Graph g = erdos_renyi_gnm(70, 170, rng);  // unit weights
  const auto rank = rng.permutation(70);
  const MultiSourceResult guard = multi_source_dijkstra(g, {0, 1, 2}, rank);
  RestrictedDijkstra rd(g);
  auto guard_fn = [&](VertexId v) { return guard.guard(v, rank); };
  for (VertexId w = 3; w < 30; ++w) {
    const auto run = rd.run(w, rank[w], guard_fn);
    std::vector<bool> in_cluster(g.num_vertices(), false);
    std::vector<VertexId> parent(g.num_vertices(), kNoVertex);
    for (const auto& m : run) {
      in_cluster[m.v] = true;
      parent[m.v] = m.parent;
    }
    for (const auto& m : run) {
      VertexId x = m.parent;
      while (x != kNoVertex) {
        ASSERT_TRUE(in_cluster[x]);
        x = parent[x];
      }
    }
  }
}

// ----------------------------------------------------------- local trees ---

TEST(LocalTree, FromClusterRun) {
  Rng rng(19);
  const Graph g = erdos_renyi_gnm(40, 100, rng);
  const auto rank = rng.permutation(40);
  RestrictedDijkstra rd(g);
  auto no_guard = [](VertexId) { return LexDist{}; };
  const auto run = rd.run(5, rank[5], no_guard);
  std::vector<std::uint32_t> local_of(g.num_vertices(), kNoLocal);
  const LocalTree t = make_local_tree(run, local_of);
  ASSERT_EQ(t.size(), run.size());
  EXPECT_EQ(t.root(), 5u);
  EXPECT_EQ(t.parent[0], kNoLocal);
  for (std::uint32_t i = 1; i < t.size(); ++i) {
    ASSERT_LT(t.parent[i], i);  // parents settle first
    // Ports are consistent with the graph.
    const VertexId me = t.global[i], pa = t.global[t.parent[i]];
    ASSERT_EQ(g.neighbor(me, t.parent_port[i]), pa);
    ASSERT_EQ(g.neighbor(pa, t.down_port[i]), me);
    ASSERT_GT(t.dist[i], 0);
  }
}

TEST(LocalTree, FromFullSpt) {
  Rng rng(20);
  const Graph g = erdos_renyi_gnm(40, 120, rng);
  const ShortestPathTree spt = dijkstra(g, 3);
  const LocalTree t = make_local_tree(spt);
  EXPECT_EQ(t.size(), g.num_vertices());
  EXPECT_EQ(t.root(), 3u);
  for (std::uint32_t i = 0; i < t.size(); ++i) {
    EXPECT_NEAR(t.dist[i], spt.dist[t.global[i]], 1e-12);
  }
}

TEST(ExtractPath, EndsAreCorrect) {
  Rng rng(21);
  const Graph g = erdos_renyi_gnm(30, 80, rng);
  const ShortestPathTree spt = dijkstra(g, 2);
  for (VertexId t = 0; t < 30; ++t) {
    if (!spt.reached(t)) continue;
    const auto path = extract_path(spt, t);
    ASSERT_EQ(path.front(), 2u);
    ASSERT_EQ(path.back(), t);
    // Consecutive vertices are adjacent and total weight is dist.
    Weight total = 0;
    for (std::size_t i = 1; i < path.size(); ++i) {
      const Port p = g.port_to(path[i - 1], path[i]);
      ASSERT_NE(p, kNoPort);
      total += g.arc(path[i - 1], p).weight;
    }
    EXPECT_NEAR(total, spt.dist[t], 1e-9);
  }
}

}  // namespace
}  // namespace croute
