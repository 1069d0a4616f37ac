/// \file tree_router.hpp
/// \brief Thorup–Zwick tree routing, fixed-port model (§2 of SPAA'01).
///
/// Each node keeps an O(1)-word record; each destination gets a label of
/// O(log²n / log log n) bits in the worst case (DFS index plus the ports of
/// the ≤ floor(log2 n) light edges on its root path). Given the record of
/// the current node and the label of the destination, the next port is
/// computed in O(1):
///
///   at node v with record R, destination label L:
///     1. L.dfs == R.dfs_in            → deliver;
///     2. L.dfs outside [R.dfs_in+1, R.dfs_out) → v is not a proper
///        ancestor of t → go to the parent (R.parent_port);
///     3. L.dfs in R's heavy child interval → R.heavy_port;
///     4. otherwise the next edge toward t is light, and because v has
///        R.light_depth light edges above it, the wanted port is entry
///        R.light_depth of L's light-port sequence.
///
/// Correctness rests on heavy-first DFS numbering (heavy_path.hpp) and on
/// the light-depth counting argument in the file comment there.
///
/// Routing is *stateless*: intermediate nodes never modify the header.
/// This is the scheme embedded into the Thorup–Zwick graph schemes, which
/// store one NodeRecord per (vertex, cluster-tree) pair in their routing
/// tables and one Label per (destination, pivot-tree) pair in their
/// address labels.
///
/// Layout: a TreeRoutingScheme keeps one record per node and the light
/// halves of all labels in one Port pool per tree, filled in heavy-first
/// preorder. A heavy child's light ports equal its parent's, so it shares
/// the parent's slice; a light child appends the parent's ports plus its
/// own down port. Each node stores one 32-bit offset into the pool, and
/// its slice length is its record's light_depth. The graph-scheme build
/// copies slices straight into its own pools; label() materializes a
/// TreeLabel for callers that want one.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/spt.hpp"
#include "tree/heavy_path.hpp"
#include "util/bit_io.hpp"

namespace croute {

/// Routing verdict at one node.
struct TreeDecision {
  bool deliver = false;
  Port port = kNoPort;  ///< valid when !deliver
};

/// The O(1)-word information a vertex stores for one tree.
struct TreeNodeRecord {
  std::uint32_t dfs_in = 0;
  std::uint32_t dfs_out = 0;     ///< subtree interval [dfs_in, dfs_out)
  std::uint32_t heavy_in = 0;
  std::uint32_t heavy_out = 0;   ///< heavy child's interval (empty for leaves)
  Port heavy_port = kNoPort;     ///< graph port toward the heavy child
  Port parent_port = kNoPort;    ///< graph port toward the parent (root: unset)
  std::uint32_t light_depth = 0; ///< light edges on the root path
};

/// The destination-side label for one tree.
struct TreeLabel {
  std::uint32_t dfs_in = 0;
  /// Graph port taken at the i-th light branch point of the root → t path.
  std::vector<Port> light_ports;

  bool operator==(const TreeLabel&) const = default;
};

/// Tree routing scheme over a LocalTree (cluster SPT); local index space.
class TreeRoutingScheme {
 public:
  /// Builds records and labels for every node of \p tree.
  explicit TreeRoutingScheme(const LocalTree& tree);

  std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(records_.size());
  }

  const TreeNodeRecord& record(std::uint32_t local) const {
    return records_[local];
  }

  /// Graph ports of \p local's label: one per light edge on its root
  /// path, root side first. A slice of the tree's pool, valid while the
  /// scheme lives; its length is record(local).light_depth.
  std::span<const Port> light_ports(std::uint32_t local) const {
    return {light_pool_.data() + light_off_[local],
            records_[local].light_depth};
  }

  /// The label of \p local, materialized: {record(local).dfs_in,
  /// light_ports(local)}.
  TreeLabel label(std::uint32_t local) const;

  /// O(1) routing decision (static: needs only the two arguments).
  static TreeDecision decide(const TreeNodeRecord& here, const TreeLabel& dest);

  /// --- bit-exact serialization -------------------------------------------
  /// Sizing context: the number of tree nodes (bounds dfs fields) and the
  /// maximum graph degree (bounds port fields).
  struct Codec {
    std::uint32_t dfs_bits = 1;   ///< bits per DFS index
    std::uint32_t port_bits = 1;  ///< bits per port number
    Codec() = default;  ///< placeholder; overwritten by deserialization
    Codec(std::uint32_t tree_size, Port max_degree)
        : dfs_bits(bits_for_universe(std::uint64_t{tree_size} + 1)),
          port_bits(bits_for_universe(std::uint64_t{max_degree} + 1)) {}
  };

  static void encode_label(const TreeLabel& l, const Codec& c, BitWriter& w);
  static TreeLabel decode_label(const Codec& c, BitReader& r);
  static std::uint64_t label_bits(const TreeLabel& l, const Codec& c);
  /// Same accounting from the light-port count alone (no materialized
  /// label) — the tables' finalize pass sizes pooled labels with this.
  static std::uint64_t label_bits(std::uint64_t light_port_count,
                                  const Codec& c);

  static void encode_record(const TreeNodeRecord& rec, const Codec& c,
                            BitWriter& w);
  static TreeNodeRecord decode_record(const Codec& c, BitReader& r);
  static std::uint64_t record_bits(const TreeNodeRecord& rec, const Codec& c);

 private:
  std::vector<TreeNodeRecord> records_;
  std::vector<std::uint32_t> light_off_;  ///< per node: slice start in pool
  std::vector<Port> light_pool_;          ///< see the file comment
};

}  // namespace croute
