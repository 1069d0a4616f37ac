/// \file tz_build.hpp
/// \brief Shared internals of TZ scheme construction (fresh + incremental).
///
/// The delta-aware rebuilder (incremental_rebuild.cpp) promises results
/// **byte-identical** to the fresh constructor (tz_scheme.cpp). That
/// contract would be one unsynchronized edit away from silently breaking
/// if the two kept private copies of the construction bodies, so the
/// pieces both must agree on live here and nowhere else:
///
///  - the per-vertex scatter buffers (PendingTable) whose append order
///    defines the serialized light-pool layout;
///  - the label-skeleton pass (effective pivots per destination and the
///    needed[w] extraction lists);
///  - the per-cluster consumer (tree-routing structures, rule-0
///    directory, table scatter, label extraction).
///
/// Internal header: not part of the public scheme API.

#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/tz_labels.hpp"
#include "core/tz_tables.hpp"
#include "graph/spt.hpp"

namespace croute {

class TZPreprocessing;

namespace tz_build {

/// Scatter buffers for one vertex's table under construction. The
/// append order (interleaved across the ascending-center sweep) defines
/// every pool offset the serializer writes verbatim.
struct PendingTable {
  std::vector<TableEntry> entries;
  std::vector<Port> light_pool;
};

/// Per-center extraction list: (destination, label entry index) pairs
/// whose tree label must be filled from T_w during the cluster sweep.
using NeededLabels =
    std::vector<std::vector<std::pair<VertexId, std::uint32_t>>>;

/// Fills \p labels with the per-destination skeletons (distinct
/// effective pivots, ascending level; tree labels left empty) and
/// returns the needed[w] extraction lists.
NeededLabels label_skeletons(const TZPreprocessing& pre,
                             std::vector<RoutingLabel>& labels);

/// The fresh-construction consumer for one cluster tree T_w: build the
/// tree-routing structures, record the rule-0 directory (level 0),
/// scatter every member's table entry into \p pending, and extract the
/// labels \p needed from this tree. \p local_index is the sweep's dense
/// VertexId → local-index array: n entries, all kNoLocal between calls.
/// A tree that some label needs sets it for its members and resets it
/// before returning, so one array serves the whole sweep without a
/// per-tree map. \p fresh_contrib (optional) marks vertices that
/// received a freshly built entry.
void consume_cluster(VertexId w, std::uint32_t level, const LocalTree& tree,
                     const TreeRoutingScheme::Codec& tree_codec,
                     std::uint32_t id_bits,
                     std::vector<PendingTable>& pending,
                     std::vector<ClusterDirectory>& dirs,
                     std::vector<RoutingLabel>& labels,
                     const NeededLabels& needed,
                     std::vector<std::uint32_t>& local_index,
                     std::vector<std::uint8_t>* fresh_contrib = nullptr);

}  // namespace tz_build
}  // namespace croute
