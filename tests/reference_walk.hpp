// The one reference oracle for the serving path: the paper's hop-by-hop
// walk through the sim/ adapters (route_tz, route_tz_handshake,
// route_cowen, route_full) over preprocessing rebuilt from the same
// options and seeds build_scheme_package uses. Tests compare
// RouteService answers against it with same_route: status, length,
// hops, header bits, stretch, and the path when record_paths is on.

#pragma once

#include <memory>
#include <span>
#include <vector>

#include "baseline/cowen.hpp"
#include "baseline/full_table.hpp"
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
  std::unique_ptr<TZScheme> tz;
  std::unique_ptr<CowenScheme> cowen;
  std::unique_ptr<FullTableScheme> full;
  Rng rng(opt.seed);
  switch (opt.scheme) {
    case SchemeKind::kTZDirect:
    case SchemeKind::kTZHandshake: {
      TZSchemeOptions topt;
      topt.pre.k = opt.k;
      topt.pre.hierarchy.mode = opt.sampling;
      tz = std::make_unique<TZScheme>(g, topt, rng);
      break;
    }
    case SchemeKind::kCowen:
      cowen = std::make_unique<CowenScheme>(g, rng);
      break;
    case SchemeKind::kFullTable:
      full = std::make_unique<FullTableScheme>(g);
      break;
  }

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
    RouteResult r;
    switch (opt.scheme) {
      case SchemeKind::kTZDirect: r = route_tz(sim, *tz, q.s, q.t); break;
      case SchemeKind::kTZHandshake:
        r = route_tz_handshake(sim, *tz, q.s, q.t);
        break;
      case SchemeKind::kCowen: r = route_cowen(sim, *cowen, q.s, q.t); break;
      case SchemeKind::kFullTable: r = route_full(sim, *full, q.s, q.t); break;
    }
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

}  // namespace croute
