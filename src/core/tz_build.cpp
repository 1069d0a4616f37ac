#include "core/tz_build.hpp"

#include "core/clusters.hpp"

namespace croute {
namespace tz_build {

CROUTE_DETERMINISTIC NeededLabels label_skeletons(const TZPreprocessing& pre,
                             std::vector<RoutingLabel>& labels) {
  const VertexId n = pre.graph().num_vertices();
  const std::uint32_t k = pre.k();
  labels.resize(n);
  NeededLabels needed(n);
  for (VertexId t = 0; t < n; ++t) {
    RoutingLabel& label = labels[t];
    label.t = t;
    VertexId last_pivot = kNoVertex;
    for (std::uint32_t i = 0; i < k; ++i) {
      const std::uint32_t j = pre.effective_level(i, t);
      const VertexId w = pre.pivot(j, t);
      CROUTE_ASSERT(w != kNoVertex, "missing pivot on a connected graph");
      if (w == last_pivot) continue;  // same run
      last_pivot = w;
      LabelEntry e;
      e.level = i;
      e.w = w;
      e.dist = pre.pivot_dist(i, t);  // == pivot_dist(j, t) along the run
      label.entries.push_back(std::move(e));
      needed[w].emplace_back(
          t, static_cast<std::uint32_t>(label.entries.size() - 1));
    }
  }
  return needed;
}

CROUTE_DETERMINISTIC void consume_cluster(VertexId w, std::uint32_t level,
                                          const LocalTree& tree,
                     const TreeRoutingScheme::Codec& tree_codec,
                     std::uint32_t id_bits,
                     std::vector<PendingTable>& pending,
                     std::vector<ClusterDirectory>& dirs,
                     std::vector<RoutingLabel>& labels,
                     const NeededLabels& needed,
                     std::vector<std::uint32_t>& local_index,
                     std::vector<std::uint8_t>* fresh_contrib) {
  const TreeRoutingScheme trs(tree);
  // Rule-0 directories exist only for level-0 centers. For a landmark
  // source s ∈ A_1 the rule-0 certificate d(t, A_1) ≤ d(s, t) holds
  // trivially (s itself is in A_1), so its directory may be empty —
  // and must be, or top-level centers (C(w) = V) would store Θ(n log n)
  // bits and break the paper's Õ(n^{1/k}) per-vertex table bound.
  if (level == 0) {
    dirs[w] = ClusterDirectory(tree, trs, tree_codec, id_bits);
  }
  for (std::uint32_t i = 0; i < tree.size(); ++i) {
    const VertexId v = tree.global[i];
    PendingTable& pt = pending[v];
    TableEntry e;
    e.w = w;
    e.level = level;
    e.dist = tree.dist[i];
    e.record = trs.record(i);
    const std::span<const Port> own = trs.light_ports(i);
    e.light_off = static_cast<std::uint32_t>(pt.light_pool.size());
    e.light_len = static_cast<std::uint32_t>(own.size());
    pt.light_pool.insert(pt.light_pool.end(), own.begin(), own.end());
    pt.entries.push_back(std::move(e));
    if (fresh_contrib != nullptr) (*fresh_contrib)[v] = 1;
  }
  if (!needed[w].empty()) {
    for (std::uint32_t i = 0; i < tree.size(); ++i) {
      local_index[tree.global[i]] = i;
    }
    for (const auto& [t, entry_idx] : needed[w]) {
      const std::uint32_t i = local_index[t];
      CROUTE_ASSERT(i != kNoLocal,
                    "label references a tree that misses its destination "
                    "(effective-pivot invariant violated)");
      labels[t].entries[entry_idx].tree = trs.label(i);
    }
    for (const VertexId v : tree.global) local_index[v] = kNoLocal;
  }
}

}  // namespace tz_build
}  // namespace croute
