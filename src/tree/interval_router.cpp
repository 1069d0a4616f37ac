#include "tree/interval_router.hpp"

#include <algorithm>

#include "util/bit_io.hpp"

namespace croute {

IntervalTreeScheme::IntervalTreeScheme(const LocalTree& local) {
  const Tree tree = Tree::from_local_tree(local);
  const HeavyPathDecomposition hpd(tree);
  n_ = tree.size();
  label_bits_ = bits_for_universe(n_);
  dfs_in_.resize(n_);
  dfs_out_.resize(n_);
  order_.resize(n_);
  for (std::uint32_t v = 0; v < n_; ++v) {
    dfs_in_[v] = hpd.dfs_in(v);
    dfs_out_[v] = hpd.dfs_out(v);
    order_[dfs_in_[v]] = v;
  }

  start_offset_.assign(n_ + 1, 0);
  port_offset_.assign(n_ + 1, 0);
  for (std::uint32_t v = 0; v < n_; ++v) {
    const std::uint32_t kids =
        static_cast<std::uint32_t>(hpd.visit_order(v).size());
    start_offset_[v + 1] = start_offset_[v] + kids;
    // Designer ports: 0 = parent (non-root only), then one per child.
    port_offset_[v + 1] = port_offset_[v] + kids + 1;
  }
  starts_.assign(start_offset_[n_], 0);
  graph_port_.assign(port_offset_[n_], kNoPort);
  for (std::uint32_t v = 0; v < n_; ++v) {
    const auto kids = hpd.visit_order(v);
    // Port 0: parent (kNoPort at the root — never used by decide()).
    graph_port_[port_offset_[v]] = local.parent_port[v];
    for (std::uint32_t i = 0; i < kids.size(); ++i) {
      starts_[start_offset_[v] + i] = hpd.dfs_in(kids[i]);
      graph_port_[port_offset_[v] + 1 + i] = local.down_port[kids[i]];
    }
    // Heavy-first DFS makes children's intervals consecutive and ascending.
    CROUTE_DCHECK(
        std::is_sorted(starts_.begin() +
                           static_cast<std::ptrdiff_t>(start_offset_[v]),
                       starts_.begin() +
                           static_cast<std::ptrdiff_t>(start_offset_[v + 1])),
        "child intervals must ascend in visit order");
  }
}

IntervalTreeScheme::Decision IntervalTreeScheme::decide(
    std::uint32_t local, std::uint32_t dest) const {
  CROUTE_REQUIRE(local < n_ && dest < n_, "node or label out of range");
  if (dest == dfs_in_[local]) return Decision{true, 0};
  if (dest < dfs_in_[local] || dest >= dfs_out_[local]) {
    return Decision{false, 0};  // up to the parent
  }
  // Find the last child start <= dest.
  const auto starts = child_starts(local);
  const auto it = std::upper_bound(starts.begin(), starts.end(), dest);
  CROUTE_ASSERT(it != starts.begin(), "descendant below no child");
  const std::uint32_t child_index =
      static_cast<std::uint32_t>(it - starts.begin() - 1);
  return Decision{false, child_index + 1};
}

Port IntervalTreeScheme::to_graph_port(std::uint32_t local,
                                       std::uint32_t designer_port) const {
  CROUTE_REQUIRE(local < n_, "node out of range");
  const std::size_t width = port_offset_[local + 1] - port_offset_[local];
  CROUTE_REQUIRE(designer_port < width, "designer port out of range");
  const Port p = graph_port_[port_offset_[local] + designer_port];
  CROUTE_ASSERT(p != kNoPort, "designer port 0 used at the root");
  return p;
}

}  // namespace croute
