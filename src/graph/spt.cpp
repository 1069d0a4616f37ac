#include "graph/spt.hpp"

#include <algorithm>

namespace croute {

LocalTree make_local_tree(const std::vector<ClusterVertex>& members,
                          std::vector<std::uint32_t>& local_of) {
  CROUTE_REQUIRE(!members.empty(), "cannot build a tree from no vertices");
  LocalTree t;
  const std::uint32_t size = static_cast<std::uint32_t>(members.size());
  t.global.resize(size);
  t.parent.resize(size);
  t.parent_port.resize(size);
  t.down_port.resize(size);
  t.dist.resize(size);
  for (std::uint32_t i = 0; i < size; ++i) {
    const ClusterVertex& m = members[i];
    CROUTE_ASSERT(m.v < local_of.size(), "member id outside local_of");
    t.global[i] = m.v;
    t.dist[i] = m.dist;
    t.parent_port[i] = m.parent_port;
    t.down_port[i] = m.down_port;
    if (m.parent == kNoVertex) {
      CROUTE_ASSERT(i == 0, "only the center may lack a parent");
      t.parent[i] = kNoLocal;
    } else {
      CROUTE_ASSERT(m.parent < local_of.size() && local_of[m.parent] != kNoLocal,
                    "settle order violated: parent not seen before child");
      t.parent[i] = local_of[m.parent];
    }
    CROUTE_ASSERT(local_of[m.v] == kNoLocal,
                  "duplicate vertex in cluster membership");
    local_of[m.v] = i;
  }
  for (const VertexId v : t.global) local_of[v] = kNoLocal;
  return t;
}

LocalTree make_local_tree(const ShortestPathTree& spt) {
  // Sort reached vertices by (dist, id) so parents precede children, then
  // reuse the member-list construction.
  std::vector<ClusterVertex> members;
  members.reserve(spt.dist.size());
  for (VertexId v = 0; v < spt.dist.size(); ++v) {
    if (spt.dist[v] >= kInfiniteWeight) continue;
    members.push_back(ClusterVertex{v, spt.dist[v], spt.parent[v],
                                    spt.parent_port[v], spt.down_port[v]});
  }
  std::sort(members.begin(), members.end(),
            [](const ClusterVertex& a, const ClusterVertex& b) {
              if (a.dist != b.dist) return a.dist < b.dist;
              // Roots first among zero-distance ties; otherwise id order.
              const bool ra = a.parent == kNoVertex, rb = b.parent == kNoVertex;
              if (ra != rb) return ra;
              return a.v < b.v;
            });
  // With zero-weight-free graphs, (dist, root-first) ordering puts every
  // parent strictly before its children because parent.dist < child.dist.
  std::vector<std::uint32_t> local_of(spt.dist.size(), kNoLocal);
  return make_local_tree(members, local_of);
}

CROUTE_DETERMINISTIC LocalTree make_canonical_spt(const Graph& g,
                                                  VertexId root,
                             const std::vector<Weight>& dist) {
  const VertexId n = g.num_vertices();
  CROUTE_REQUIRE(dist.size() == n, "distance field size mismatch");
  CROUTE_REQUIRE(root < n && dist[root] == 0, "root must have distance 0");
  LocalTree t;
  t.global.resize(n);
  for (VertexId v = 0; v < n; ++v) t.global[v] = v;
  std::sort(t.global.begin(), t.global.end(), [&](VertexId a, VertexId b) {
    if (dist[a] != dist[b]) return dist[a] < dist[b];
    return a < b;
  });
  CROUTE_ASSERT(t.global[0] == root,
                "positive weights make the root the unique 0-distance vertex");
  std::vector<std::uint32_t> local(n);
  for (std::uint32_t i = 0; i < n; ++i) local[t.global[i]] = i;
  t.parent.resize(n);
  t.parent_port.resize(n);
  t.down_port.resize(n);
  t.dist.resize(n);
  t.parent[0] = kNoLocal;
  t.parent_port[0] = kNoPort;
  t.down_port[0] = kNoPort;
  t.dist[0] = 0;
  for (std::uint32_t i = 1; i < n; ++i) {
    const VertexId v = t.global[i];
    CROUTE_REQUIRE(dist[v] < kInfiniteWeight,
                   "canonical SPT requires a connected graph");
    t.dist[i] = dist[v];
    const auto adj = g.arcs(v);
    Port chosen = kNoPort;
    for (Port p = 0; p < adj.size(); ++p) {
      if (dist[adj[p].head] + adj[p].weight == dist[v]) {
        chosen = p;
        break;
      }
    }
    CROUTE_ASSERT(chosen != kNoPort,
                  "exact distance field admits no predecessor");
    t.parent_port[i] = chosen;
    t.down_port[i] = adj[chosen].reverse_port;
    t.parent[i] = local[adj[chosen].head];
  }
  return t;
}

std::vector<VertexId> extract_path(const ShortestPathTree& spt, VertexId t) {
  CROUTE_REQUIRE(t < spt.dist.size(), "vertex out of range");
  CROUTE_REQUIRE(spt.reached(t), "target unreachable from the SPT source");
  std::vector<VertexId> path;
  for (VertexId v = t; v != kNoVertex; v = spt.parent[v]) {
    path.push_back(v);
    CROUTE_ASSERT(path.size() <= spt.dist.size(), "parent cycle detected");
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace croute
