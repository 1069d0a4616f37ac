/// \file full_table.hpp
/// \brief Baseline: full shortest-path routing tables (stretch 1).
///
/// Every vertex stores the outgoing port of the exact shortest path to
/// every destination: Θ(n·log deg) bits per vertex — the space anchor in
/// the space/stretch trade-off (F2). By Gavoille–Gengler, *any* scheme
/// with stretch < 3 must pay Ω(n) bits on some vertex, so this baseline
/// is the canonical representative of the "stretch below 3" regime.
///
/// Construction is n Dijkstras (parallelized); memory O(n²) ports —
/// intended for graphs up to a few thousand vertices.

#pragma once

#include <cstdint>
#include <vector>

#include "graph/dijkstra.hpp"
#include "graph/graph.hpp"

namespace croute {

/// Exact shortest-path routing via per-destination port tables.
class FullTableScheme {
 public:
  /// Preprocesses \p g, which must outlive *this (a reference is kept).
  explicit FullTableScheme(const Graph& g);

  const Graph& graph() const noexcept { return *g_; }

  /// Port at \p v of the first edge of a shortest v→t path; kNoPort when
  /// v == t.
  Port next_hop(VertexId v, VertexId t) const {
    CROUTE_DCHECK(v < n_ && t < n_, "vertex out of range");
    return hops_[std::size_t{v} * n_ + t];
  }

  /// Table size: (n-1) port entries of ceil(log2 deg(v)) bits each.
  std::uint64_t table_bits(VertexId v) const;

  /// Address labels are plain vertex ids.
  std::uint64_t label_bits() const;

 private:
  const Graph* g_;
  VertexId n_;
  std::vector<Port> hops_;  ///< n*n, row per source
};

}  // namespace croute
