/// \file packet.hpp
/// \brief Route outcomes and hop traces recorded by the simulator.
///
/// A routed packet produces a RouteResult: whether it was delivered, the
/// sequence of vertices it visited, the weighted length of the traversed
/// walk, and the size of the header it carried. Stretch is the traversed
/// length divided by the exact shortest-path distance; the simulator never
/// computes it implicitly — callers supply exact distances so that every
/// stretch figure in the experiment suite is anchored to ground truth.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "util/annotations.hpp"

namespace croute {

/// The hop budget of every walk: the simulator's default, the batch
/// engine's and route_one's. A walk that has not delivered within this
/// many hops ends as kHopLimit. The served walks match the reference walk
/// byte for byte only while all three share this one bound.
CROUTE_HOT inline std::uint32_t default_hop_budget(const Graph& g) noexcept {
  return 4 * g.num_vertices() + 16;
}

/// Why a simulation run ended.
enum class RouteStatus {
  kDelivered,     ///< the scheme declared delivery at the destination
  kHopLimit,      ///< exceeded the hop budget (loop or divergence)
  kBadPort,       ///< the scheme emitted an invalid port
  kWrongDeliver,  ///< the scheme declared delivery at a non-destination
};

const char* to_string(RouteStatus status) noexcept;

/// Outcome of routing one packet.
struct RouteResult {
  RouteStatus status = RouteStatus::kHopLimit;
  std::vector<VertexId> path;  ///< visited vertices, path.front() == source
  Weight length = 0;           ///< total weight of traversed edges
  std::uint32_t hops = 0;      ///< number of edges traversed
  std::uint64_t header_bits = 0;  ///< wire size of the carried header

  bool delivered() const noexcept {
    return status == RouteStatus::kDelivered;
  }

  /// length / exact; requires exact > 0. Delivered runs only.
  double stretch(Weight exact) const;

  /// "s -> a -> b -> t (4 hops, 5.0)" for diagnostics.
  std::string describe() const;
};

}  // namespace croute
