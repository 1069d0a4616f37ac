/// \file spt.hpp
/// \brief Shortest-path-tree extraction into compact local index space.
///
/// Cluster trees T_w span only C(w) ⊆ V, so tree-routing structures are
/// built over *local* indices 0..|C(w)|-1 with a mapping back to graph
/// vertices. Local index 0 is always the root. Ports stored here are graph
/// ports (indices into Graph::arcs of the respective vertex), which is what
/// the routing simulator consumes.

#pragma once

#include <cstdint>
#include <vector>

#include "graph/dijkstra.hpp"
#include "graph/graph.hpp"

namespace croute {

/// Sentinel for "no local vertex".
inline constexpr std::uint32_t kNoLocal = ~std::uint32_t{0};

/// A rooted tree over a subset of graph vertices, in local index space.
struct LocalTree {
  std::vector<VertexId> global;       ///< local index -> graph vertex
  std::vector<std::uint32_t> parent;  ///< local parent; kNoLocal at root (local 0)
  std::vector<Port> parent_port;      ///< graph port at global[i] toward its parent
  std::vector<Port> down_port;        ///< graph port at the parent toward global[i]
  std::vector<Weight> dist;           ///< distance from the root

  std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(global.size());
  }
  VertexId root() const { return global.at(0); }
};

/// Builds a LocalTree from the members of a restricted Dijkstra run
/// (settle order guarantees parents precede children). members[0] is the
/// center and becomes the root. \p local_of is a dense VertexId →
/// local-index array the caller owns: sized past every member id and
/// all kNoLocal on entry, and left that way on return, so one array
/// serves a whole sweep of clusters.
LocalTree make_local_tree(const std::vector<ClusterVertex>& members,
                          std::vector<std::uint32_t>& local_of);

/// Builds a LocalTree spanning all reached vertices of a full SPT.
LocalTree make_local_tree(const ShortestPathTree& spt);

/// Builds the *canonical* shortest-path tree of an exact distance field:
/// members ordered by (dist, id) and every non-root vertex parented
/// through its smallest port p with dist[neighbor] + weight == dist[v]
/// (such a port exists by the Bellman fixpoint; exact double equality is
/// deliberate — distance fields are bitwise execution-independent).
///
/// Unlike a Dijkstra-produced tree, the result is a pure function of
/// (graph, dist): it does not depend on heap tie-breaking or settle
/// order. Top-level (whole-graph) cluster trees are built through this
/// so an incremental rebuild may recompute the distance field any exact
/// way — e.g. re-running Dijkstra only over the delta's orphaned region
/// seeded with still-valid boundary distances — and still reproduce a
/// from-scratch build byte-for-byte. Requires every vertex reached
/// (connected graph) and positive weights.
LocalTree make_canonical_spt(const Graph& g, VertexId root,
                             const std::vector<Weight>& dist);

/// Vertices of the path source → t following SPT parents (inclusive).
/// Requires t reached.
std::vector<VertexId> extract_path(const ShortestPathTree& spt, VertexId t);

}  // namespace croute
