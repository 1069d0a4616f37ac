/// \file tz_tables.hpp
/// \brief Per-vertex routing tables for the Thorup–Zwick schemes.
///
/// The routing table of vertex v holds one entry per tree that contains v,
/// i.e. one entry per w ∈ B(v) (bunches and clusters are inverse
/// relations). An entry stores v's *node record* in T_w — everything the
/// tree-routing decision needs at v — plus v's own tree label in T_w (used
/// as the destination side during handshakes) and the exact distance
/// d(v, w) (runtime metadata; not part of the paper's table and excluded
/// from the default bit accounting).
///
/// Lookup is by the tree root w: binary search over a sorted array by
/// default, or an optional FKS perfect-hash index for the O(1) worst-case
/// decision time the paper advertises (bench `micro` measures both).
///
/// Bit accounting (`bit_size()`) is the exact serialized size of what the
/// *routing algorithm* consults: for each entry, the key w, the level
/// (gamma-coded), the node record, and the entry's own tree label
/// (variable-length, see tree_router.hpp codecs).
///
/// The second half of a vertex's table is its ClusterDirectory: for every
/// destination t in the vertex's *own* cluster C(w), the tree-routing
/// label of t in T_w. This is what lets a source s recognize `t ∈ C(s)`
/// and write an exact-descent header — the first routing rule of the
/// paper, and the step that improves the label-pivot-only stretch 4k−3 to
/// the advertised 4k−5 (stretch 3 at k = 2).
///
/// Directories are built only for level-0 centers. A landmark source
/// s ∈ A_1 satisfies the rule-0 certificate d(t, A_1) ≤ d(s, t) for free,
/// so its directory is empty — by design: a top-level center's cluster is
/// all of V, and materializing its directory would store Θ(n log n) bits
/// at one vertex, voiding the paper's Õ(n^{1/k}) table bound. With this
/// split, both halves together are O(n^{1/k} log n) entries per vertex:
/// |B(w)| + |C(w)| with C capped by the center() resampling.

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "hash/perfect_hash.hpp"
#include "tree/tree_router.hpp"

namespace croute {

/// One routing-table entry of vertex v: its view of the tree T_w.
struct TableEntry {
  VertexId w = kNoVertex;    ///< cluster center / tree root (the key)
  std::uint32_t level = 0;   ///< hierarchy level of w
  Weight dist = 0;           ///< d(v, w) — metadata, not bit-accounted
  TreeNodeRecord record;     ///< v's record in T_w
  std::uint32_t light_off = 0;  ///< v's own label ports: pool slice
  std::uint32_t light_len = 0;
};

/// The routing table of a single vertex.
class VertexTable {
 public:
  VertexTable() = default;

  /// Takes ownership of entries, which must arrive sorted by strictly
  /// increasing w (both cluster sweeps append one entry per center in
  /// ascending center id, so no sort is needed), and of the light-port
  /// pool the entries' slices point into.
  /// \p vertex_id_bits is ceil(log2 n) — the width of key fields.
  VertexTable(std::vector<TableEntry> entries, std::vector<Port> light_pool,
              const TreeRoutingScheme::Codec& codec,
              std::uint32_t vertex_id_bits);

  /// Entry for tree root \p w, or nullptr. O(log |B(v)|), or O(1) after
  /// build_hash_index().
  const TableEntry* find(VertexId w) const noexcept;

  /// v's own tree label in T_w for a found entry.
  TreeLabel own_label(const TableEntry& e) const;

  /// Light-port slice of v's own label in T_w, without materializing a
  /// TreeLabel (no allocation — the flat compiler reads these straight
  /// into its pools; the dfs half is e.record.dfs_in).
  std::span<const Port> own_light_ports(const TableEntry& e) const noexcept {
    return {light_pool_.data() + e.light_off, e.light_len};
  }

  std::span<const TableEntry> entries() const noexcept { return entries_; }
  std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(entries_.size());
  }

  /// Exact bit size of the serialized table (see file comment).
  std::uint64_t bit_size() const noexcept { return bit_size_; }

  /// Builds the optional FKS index (adds overhead_bits() to hash_bits()).
  void build_hash_index(Rng& rng);
  bool has_hash_index() const noexcept { return hash_.has_value(); }
  std::uint64_t hash_bits() const noexcept {
    return hash_ ? hash_->overhead_bits() : 0;
  }

 private:
  friend class SchemeSerializer;
  friend class IncrementalRebuilder;  // wholesale table reuse (zero delta)

  std::vector<TableEntry> entries_;  ///< sorted by w
  std::vector<Port> light_pool_;
  std::optional<PerfectHashMap> hash_;
  std::uint64_t bit_size_ = 0;
};

/// The cluster half of a vertex's routing state: tree labels in T_w for
/// every member t of C(w), keyed by t (sorted; pool-flattened to avoid
/// per-entry heap blocks — directories dominate preprocessing memory).
class ClusterDirectory {
 public:
  ClusterDirectory() = default;

  /// Builds the directory of \p tree's root from the tree's routing
  /// structures. \p vertex_id_bits sizes the key field of the accounting.
  ClusterDirectory(const LocalTree& tree, const TreeRoutingScheme& trs,
                   const TreeRoutingScheme::Codec& codec,
                   std::uint32_t vertex_id_bits);

  /// Sentinel returned by find_index when t ∉ C(w).
  static constexpr std::uint32_t kNoIndex = ~std::uint32_t{0};

  /// Index of member \p t, or kNoIndex. One binary search — the rule-0
  /// probe of TZRouter::prepare (and any contains-then-find caller) pays
  /// for a single lookup instead of two.
  std::uint32_t find_index(VertexId t) const noexcept;

  /// Tree label of \p t in T_w, or nullopt if t ∉ C(w).
  /// O(log |C(w)|).
  std::optional<TreeLabel> find(VertexId t) const;

  bool contains(VertexId t) const noexcept {
    return find_index(t) != kNoIndex;
  }

  /// Label pieces of member \p index without materializing a TreeLabel
  /// (the flat compiler reads these straight into its pools).
  std::uint32_t dfs_at(std::uint32_t index) const {
    CROUTE_DCHECK(index < ts_.size(), "directory index out of range");
    return dfs_[index];
  }
  std::span<const Port> light_ports_at(std::uint32_t index) const {
    CROUTE_DCHECK(index < ts_.size(), "directory index out of range");
    return {pool_.data() + light_off_[index],
            light_off_[index + 1] - light_off_[index]};
  }

  /// Materializes the tree label of member \p index.
  TreeLabel label_at(std::uint32_t index) const;

  std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(ts_.size());
  }

  /// Total light ports across all members (flat-compile sizing pass).
  std::uint32_t light_pool_size() const noexcept {
    return static_cast<std::uint32_t>(pool_.size());
  }

  /// Members in ascending id (the keys).
  std::span<const VertexId> members() const noexcept { return ts_; }

  /// Exact serialized size: per member, key id + tree label.
  std::uint64_t bit_size() const noexcept { return bit_size_; }

 private:
  friend class SchemeSerializer;
  friend class IncrementalRebuilder;  // directory splice + re-accounting

  std::vector<VertexId> ts_;            ///< sorted member ids
  std::vector<std::uint32_t> dfs_;      ///< label dfs index per member
  std::vector<std::uint32_t> light_off_;  ///< size()+1 offsets into pool_
  std::vector<Port> pool_;
  std::uint64_t bit_size_ = 0;
};

}  // namespace croute
