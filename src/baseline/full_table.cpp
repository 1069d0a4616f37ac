#include "baseline/full_table.hpp"

#include "util/bit_io.hpp"
#include "util/parallel.hpp"

namespace croute {

FullTableScheme::FullTableScheme(const Graph& g)
    : g_(&g), n_(g.num_vertices()) {
  CROUTE_REQUIRE(n_ >= 1, "graph must be non-empty");
  hops_.assign(std::size_t{n_} * n_, kNoPort);
  parallel_for(n_, [&](std::uint64_t src) {
    const VertexId s = static_cast<VertexId>(src);
    const ShortestPathTree spt = dijkstra(*g_, s);
    Port* row = hops_.data() + std::size_t{s} * n_;
    // row[t]: the port at s of the first edge on the s→t path.
    // Memoized walk up the parent chain; parents settle before children,
    // but iteration order is arbitrary so we resolve chains explicitly.
    std::vector<VertexId> chain;
    for (VertexId t = 0; t < n_; ++t) {
      if (t == s || row[t] != kNoPort || !spt.reached(t)) continue;
      chain.clear();
      VertexId x = t;
      while (x != s && row[x] == kNoPort) {
        chain.push_back(x);
        x = spt.parent[x];
      }
      const Port port = (x == s) ? spt.down_port[chain.back()] : row[x];
      for (const VertexId y : chain) row[y] = port;
    }
  });
}

std::uint64_t FullTableScheme::table_bits(VertexId v) const {
  const std::uint32_t port_bits =
      bits_for_universe(std::uint64_t{g_->degree(v)} + 1);
  return std::uint64_t{n_ - 1} * port_bits;
}

std::uint64_t FullTableScheme::label_bits() const {
  return bits_for_universe(n_);
}

}  // namespace croute
