/// \file cowen.hpp
/// \brief Baseline: Cowen's stretch-3 compact routing scheme.
///
/// Cowen (SODA'99 / J. Algorithms'01) gave the pre-Thorup–Zwick state of
/// the art for stretch-3: routing tables of Õ(n^{2/3}) bits. Structure:
///
///  1. **Balls.** ball(v) = the b = ⌈n^{1/3}⌉ lexicographically nearest
///     vertices of v (truncated Dijkstra).
///  2. **Landmarks.** L = a greedy hitting set of all balls (expected
///     Õ(n^{2/3}) vertices — the dominant table term, and the part
///     Thorup–Zwick §3 improves to Õ(√n) via center() resampling).
///  3. **Clusters.** C(v) = { t : d(v,t) <lex d(L,t) } — identical to the
///     TZ cluster of v under landmark set L; since L hits ball(t),
///     C(v) ⊆ { t : v ∈ ball(t) }.
///  4. **Tables.** v stores the port toward every landmark (from the
///     landmark shortest-path trees) and the first-hop port toward every
///     t ∈ C(v).
///  5. **Labels.** label(t) = (t, a_t, port at a_t toward t) where a_t is
///     t's nearest landmark.
///
/// Routing s→t: deliver if s = t; forward on the exact first hop if
/// t ∈ C(s) (stable along the path by subpath closure); if s = a_t use
/// the label's port; otherwise forward toward a_t. Since t ∉ C(s) implies
/// d(t, a_t) ≤ d(s,t), the route costs ≤ d(s,a_t) + d(a_t,t) ≤ 3·d(s,t).
///
/// Unlike TZ's centered sampling, nothing caps an *individual* cluster:
/// hub vertices of skewed graphs collect large clusters, which is exactly
/// the weakness T1 exhibits. The optional `cluster_cap_factor` promotes
/// overweight-cluster vertices into L (the analogous fix), off by default
/// to represent the historical baseline faithfully.

#pragma once

#include <cstdint>
#include <vector>

#include "graph/dijkstra.hpp"
#include "graph/graph.hpp"
#include "util/random.hpp"

namespace croute {

/// Cowen's stretch-3 scheme.
class CowenScheme {
 public:
  struct Options {
    /// Ball size b = ceil(n^ball_exponent); the paper's choice is 1/3.
    double ball_exponent = 1.0 / 3.0;
    /// If > 0, iteratively promote any vertex with |C(v)| >
    /// cluster_cap_factor · b into L. 0 = historical behavior.
    double cluster_cap_factor = 0.0;
    std::uint32_t max_cap_rounds = 16;
  };

  /// Preprocesses \p g, which must outlive *this (a reference is kept).
  CowenScheme(const Graph& g, Rng& rng, const Options& options);
  CowenScheme(const Graph& g, Rng& rng)
      : CowenScheme(g, rng, Options{}) {}

  /// Address label of a destination.
  struct Label {
    VertexId t = kNoVertex;
    VertexId home = kNoVertex;  ///< a_t, t's nearest landmark
    Port port_at_home = kNoPort;  ///< first hop of the a_t → t path
  };
  Label label(VertexId t) const { return labels_[t]; }

  /// Stateless per-hop decision.
  struct Decision {
    bool deliver = false;
    Port port = kNoPort;
  };
  Decision step(VertexId v, const Label& dest) const;

  const std::vector<VertexId>& landmarks() const noexcept {
    return landmarks_;
  }

  /// |C(v)| for every v (for T1's table-skew story).
  std::vector<std::uint32_t> cluster_sizes() const;

  /// Exact table bits: |L| landmark ports + cluster entries (id + port).
  std::uint64_t table_bits(VertexId v) const;
  std::uint64_t label_bits() const;

 private:
  void build_landmarks(const Graph& g, std::uint32_t ball_size,
                       const std::vector<std::uint32_t>& rank,
                       const Options& options);

  const Graph* g_;
  VertexId n_ = 0;
  std::uint32_t id_bits_ = 0;
  std::vector<VertexId> landmarks_;
  std::vector<std::uint32_t> landmark_index_;  ///< v -> index in L or ~0
  std::vector<Port> landmark_port_;  ///< n x |L|: port toward each landmark
  std::vector<Label> labels_;
  // Flattened clusters: per vertex, sorted (t, first-hop port).
  std::vector<std::uint64_t> cluster_offset_;
  std::vector<VertexId> cluster_t_;
  std::vector<Port> cluster_port_;
};

}  // namespace croute
