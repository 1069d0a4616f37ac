#include "core/clusters.hpp"

#include "graph/connectivity.hpp"

namespace croute {

CROUTE_DETERMINISTIC TZPreprocessing::TZPreprocessing(const Graph& g,
                                 const PreprocessOptions& options, Rng& rng)
    : g_(&g) {
  CROUTE_REQUIRE(g.num_vertices() >= 1, "graph must be non-empty");
  CROUTE_REQUIRE(is_connected(g),
                 "TZ preprocessing requires a connected graph "
                 "(run per component, see connectivity.hpp)");
  rank_ = rng.permutation(g.num_vertices());
  hierarchy_ = build_hierarchy(g, options.k, rank_, rng, options.hierarchy);

  // Pivots per level. Level 0 is trivial (every vertex is its own pivot);
  // computing it via the same code path keeps invariants uniform.
  pivots_.reserve(k());
  for (std::uint32_t i = 0; i < k(); ++i) {
    pivots_.push_back(multi_source_dijkstra(g, hierarchy_.levels[i], rank_));
    // Connectivity ⇒ every vertex has a level-i pivot.
    CROUTE_ASSERT(pivots_.back().reached(0) || g.num_vertices() == 0,
                  "pivot computation failed");
  }
}

CROUTE_HOT std::uint32_t TZPreprocessing::effective_level(
    std::uint32_t level, VertexId v) const {
  CROUTE_REQUIRE(level < k(), "level out of range");
  std::uint32_t j = level;
  while (j + 1 < k() && pivots_[j].owner[v] == pivots_[j + 1].owner[v]) {
    ++j;
  }
  return j;
}

namespace {

/// Top-level clusters span all of V (their guard is +∞): build the
/// canonical tree of the plain-Dijkstra distance field. Canonical trees
/// are pure functions of the distances, which is what lets delta-aware
/// rebuilds recompute only orphaned regions
/// (core/incremental_rebuild.hpp) and still match a fresh build
/// byte-for-byte.
LocalTree canonical_top_tree(const Graph& g, VertexId w) {
  return make_canonical_spt(g, w, dijkstra(g, w).dist);
}

}  // namespace

LocalTree TZPreprocessing::build_cluster(VertexId w) const {
  const std::uint32_t level = center_level(w);
  if (level + 1 >= k()) return canonical_top_tree(*g_, w);
  RestrictedDijkstra rd(*g_);
  auto guard_fn = [&](VertexId v) { return cluster_guard(level, v); };
  std::vector<std::uint32_t> local_of(g_->num_vertices(), kNoLocal);
  return make_local_tree(rd.run(w, rank_[w], guard_fn), local_of);
}

void TZPreprocessing::for_each_cluster(
    const std::function<void(VertexId, const LocalTree&)>& consumer) const {
  // One shared restricted-Dijkstra workspace and one dense local-index
  // array serve every sub-top-level cluster; top-level centers (few,
  // whole-graph trees) each run a plain Dijkstra and the canonical tree
  // construction instead.
  RestrictedDijkstra rd(*g_);
  std::vector<std::uint32_t> local_of(g_->num_vertices(), kNoLocal);
  for (VertexId w = 0; w < g_->num_vertices(); ++w) {
    const std::uint32_t level = center_level(w);
    if (level + 1 >= k()) {
      // Same dispatch as build_cluster (top-level short-circuits before
      // its workspace is ever constructed).
      consumer(w, build_cluster(w));
      continue;
    }
    auto guard_fn = [&](VertexId v) { return cluster_guard(level, v); };
    const LocalTree tree =
        make_local_tree(rd.run(w, rank_[w], guard_fn), local_of);
    consumer(w, tree);
  }
}

std::vector<std::uint32_t> TZPreprocessing::cluster_sizes() const {
  RestrictedDijkstra rd(*g_);
  std::vector<std::uint32_t> sizes(g_->num_vertices(), 0);
  for (VertexId w = 0; w < g_->num_vertices(); ++w) {
    const std::uint32_t level = center_level(w);
    auto guard_fn = [&](VertexId v) { return cluster_guard(level, v); };
    sizes[w] =
        static_cast<std::uint32_t>(rd.run(w, rank_[w], guard_fn).size());
  }
  return sizes;
}

}  // namespace croute
