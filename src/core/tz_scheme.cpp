#include "core/tz_scheme.hpp"

#include "core/tz_build.hpp"

namespace croute {

CROUTE_DETERMINISTIC TZScheme::TZScheme(const Graph& g,
                                        const TZSchemeOptions& options,
                                        Rng& rng)
    : g_(&g),
      options_(options),
      pre_(g, options.pre, rng),
      tree_codec_(g.num_vertices(), g.max_degree()),
      codec_(g.num_vertices(), g.max_degree(),
             options.labels_carry_distances) {
  const VertexId n = g.num_vertices();
  const std::uint32_t id_bits = bits_for_universe(n);

  // ---- label skeletons: per destination, the distinct effective pivots;
  // needed[w] lists the tree labels the cluster sweep must extract.
  // Shared with the delta-aware rebuilder (core/tz_build.hpp), which
  // must reproduce this construction byte-for-byte.
  const tz_build::NeededLabels needed =
      tz_build::label_skeletons(pre_, labels_);

  // ---- cluster sweep: build T_w, scatter records, extract labels, and
  //      record w's cluster directory (rule-0 routing state).
  // Every top-level cluster spans V, so each vertex receives exactly one
  // entry per center in A_{k-1}: a lower bound on every table's size.
  std::vector<tz_build::PendingTable> pending(n);
  const std::size_t top_centers = pre_.hierarchy().levels[pre_.k() - 1].size();
  for (tz_build::PendingTable& pt : pending) pt.entries.reserve(top_centers);
  dirs_.resize(n);
  std::vector<std::uint32_t> local_index(n, kNoLocal);
  pre_.for_each_cluster([&](VertexId w, const LocalTree& tree) {
    tz_build::consume_cluster(w, pre_.center_level(w), tree, tree_codec_,
                              id_bits, pending, dirs_, labels_, needed,
                              local_index);
  });

  // ---- finalize tables.
  tables_.reserve(n);
  for (VertexId v = 0; v < n; ++v) {
    tables_.emplace_back(std::move(pending[v].entries),
                         std::move(pending[v].light_pool), tree_codec_,
                         id_bits);
    if (options.hash_index) tables_.back().build_hash_index(rng);
  }
}

std::uint64_t TZScheme::total_table_bits() const {
  std::uint64_t total = 0;
  for (VertexId v = 0; v < g_->num_vertices(); ++v) total += table_bits(v);
  return total;
}

std::uint64_t TZScheme::max_table_bits() const {
  std::uint64_t best = 0;
  for (VertexId v = 0; v < g_->num_vertices(); ++v) {
    best = std::max(best, table_bits(v));
  }
  return best;
}

std::vector<std::uint32_t> TZScheme::bunch_sizes() const {
  std::vector<std::uint32_t> sizes(g_->num_vertices());
  for (VertexId v = 0; v < g_->num_vertices(); ++v) {
    sizes[v] = tables_[v].size();
  }
  return sizes;
}

}  // namespace croute
