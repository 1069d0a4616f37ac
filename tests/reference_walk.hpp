// The one reference oracle for the serving path: the paper's hop-by-hop
// walk through the sim/ adapters (route_tz, route_tz_handshake) over
// preprocessing rebuilt from the same options and seed
// build_scheme_package uses. Tests compare
// RouteService answers against it with same_route: status, length,
// hops, header bits, stretch, and the path when record_paths is on.
// tree_mix counts which tree kind a query set's walks exercise, so a
// test can show that both engine branches ran.

#pragma once

#include <span>
#include <vector>

#include "core/tz_scheme.hpp"
#include "service/route_service.hpp"
#include "sim/simulator.hpp"
#include "util/random.hpp"

namespace croute {

/// Reference answers plus the storage their path views point into; keep
/// the whole struct alive while comparing.
struct ReferenceWalk {
  std::vector<std::vector<VertexId>> paths;
  std::vector<RouteAnswer> answers;
};

/// Routes every query through the sim/ reference walk for \p opt's
/// scheme (k, sampling and seed as the service preprocesses them).
/// Self-queries get the service's defined answer (delivered, 0 hops,
/// 0 header bits, stretch 1, path {s}); stretch is length / exact for
/// delivered queries with a known distance, as the service reports it.
inline ReferenceWalk reference_walk(const Graph& g,
                                    const RouteServiceOptions& opt,
                                    std::span<const RouteQuery> queries) {
  const Simulator sim(g, SimOptions{0, opt.record_paths});
  Rng rng(opt.seed);
  TZSchemeOptions topt;
  topt.pre.k = opt.k;
  topt.pre.hierarchy.mode = opt.sampling;
  const TZScheme tz(g, topt, rng);

  ReferenceWalk ref;
  ref.paths.resize(queries.size());
  ref.answers.resize(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const RouteQuery& q = queries[i];
    RouteAnswer& a = ref.answers[i];
    if (q.s == q.t) {
      a.status = RouteStatus::kDelivered;
      a.stretch = 1.0;
      if (opt.record_paths) ref.paths[i] = {q.s};
      continue;
    }
    RouteResult r = opt.scheme == SchemeKind::kTZDirect
                        ? route_tz(sim, tz, q.s, q.t)
                        : route_tz_handshake(sim, tz, q.s, q.t);
    a.status = r.status;
    a.length = r.length;
    a.hops = r.hops;
    a.header_bits = r.header_bits;
    if (a.delivered() && q.exact > 0) a.stretch = a.length / q.exact;
    ref.paths[i] = std::move(r.path);
  }
  // Views last: the path vectors no longer move.
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ref.answers[i].path = PathView{ref.paths[i].data(), ref.paths[i].size(),
                                   nullptr, 0};
  }
  return ref;
}

/// How many of a query set's walks run in a top-level tree (records in
/// the dense block, no search per hop) and how many in a lower-level one,
/// by the tree FlatRouter's prepare (direct) or prepare_handshake picks
/// on \p pkg. Self-queries walk no tree and count in neither.
struct TreeMix {
  std::uint32_t top = 0;
  std::uint32_t lower = 0;
};

inline TreeMix tree_mix(const SchemePackage& pkg, SchemeKind kind,
                        std::span<const RouteQuery> queries) {
  const TZPreprocessing& pre = pkg.tz->preprocessing();
  TreeMix mix;
  for (const RouteQuery& q : queries) {
    if (q.s == q.t) continue;
    const FlatHeader h = kind == SchemeKind::kTZDirect
                             ? pkg.flat_router->prepare(q.s, q.t)
                             : pkg.flat_router->prepare_handshake(q.s, q.t);
    ++(pre.center_level(h.tree_root) + 1 == pre.k() ? mix.top : mix.lower);
  }
  return mix;
}

}  // namespace croute
