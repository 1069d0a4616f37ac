/// \file simulator.hpp
/// \brief Hop-by-hop message routing over the port network.
///
/// The simulator enforces the distributed-computation contract of a routing
/// scheme: at each vertex the *only* inputs to the forwarding decision are
/// that vertex's identity (standing in for its local state) and the packet
/// header — the simulator itself contributes nothing but the port-to-edge
/// mapping. A scheme is plugged in as a step function
///
///     Decision step(VertexId here)
///
/// closing over the (immutable) header; the simulator walks ports, sums
/// weights, and aborts on invalid ports, wrong delivery, or a hop budget
/// (default 4n + 16 — every scheme in this library provably terminates
/// within 2n hops, so hitting the budget means a routing loop, which the
/// tests treat as failure, never as timeout).
///
/// Adapters for each scheme (TZ direct / TZ handshake / Cowen / full-table
/// / pure tree routing) pair the source-side header preparation with the
/// per-hop rule and record the header's exact wire size.

#pragma once

#include <cstdint>
#include <functional>

#include "baseline/cowen.hpp"
#include "baseline/full_table.hpp"
#include "core/stretch3.hpp"
#include "core/tz_router.hpp"
#include "sim/packet.hpp"
#include "tree/interval_router.hpp"
#include "tree/tree_router.hpp"

namespace croute {

/// Limits and switches for a simulation run.
struct SimOptions {
  /// 0 = automatic (default_hop_budget: 4n + 16).
  std::uint32_t max_hops = 0;
  /// Record the full vertex path (tests want it; large sweeps may not).
  bool record_path = true;
};

/// Stateless routing simulator over one graph.
class Simulator {
 public:
  /// One forwarding decision: deliver here, or leave through `port`.
  struct Decision {
    bool deliver = false;
    Port port = kNoPort;
  };
  using StepFn = std::function<Decision(VertexId)>;

  /// \p g must outlive *this (a reference is kept).
  explicit Simulator(const Graph& g, const SimOptions& options = {})
      : g_(&g), options_(options) {}

  const Graph& graph() const noexcept { return *g_; }

  /// Drives a packet from \p s to \p t with \p step deciding at each hop.
  /// \p header_bits is recorded verbatim into the result.
  RouteResult run(VertexId s, VertexId t, const StepFn& step,
                  std::uint64_t header_bits = 0) const;

 private:
  const Graph* g_;
  SimOptions options_;
};

/// --- scheme adapters --------------------------------------------------

/// Thorup–Zwick without handshake (stretch ≤ 4k−5; ≤ 3 for k = 2).
RouteResult route_tz(const Simulator& sim, const TZScheme& scheme,
                     VertexId s, VertexId t,
                     RoutingPolicy policy = RoutingPolicy::kMinLevel);

/// Thorup–Zwick with handshake (stretch ≤ 2k−1). The handshake itself is
/// modeled as an out-of-band exchange; its cost is reported by bench F3.
RouteResult route_tz_handshake(const Simulator& sim, const TZScheme& scheme,
                               VertexId s, VertexId t);

/// Cowen's stretch-3 baseline.
RouteResult route_cowen(const Simulator& sim, const CowenScheme& scheme,
                        VertexId s, VertexId t);

/// Full-table shortest-path baseline (stretch 1).
RouteResult route_full(const Simulator& sim, const FullTableScheme& scheme,
                       VertexId s, VertexId t);

/// Fixed-port TZ tree routing over a LocalTree spanning the whole graph.
/// \p s and \p t are *local* tree indices.
RouteResult route_tree(const Simulator& sim, const LocalTree& tree,
                       const TreeRoutingScheme& trs, std::uint32_t s,
                       std::uint32_t t);

/// Designer-port interval routing over a LocalTree (§2's 1-word labels).
RouteResult route_interval_tree(const Simulator& sim, const LocalTree& tree,
                                const IntervalTreeScheme& its,
                                std::uint32_t s, std::uint32_t t);

}  // namespace croute
