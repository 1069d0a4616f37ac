#include "sim/simulator.hpp"

#include <unordered_map>

#include "util/assert.hpp"

namespace croute {

RouteResult Simulator::run(VertexId s, VertexId t, const StepFn& step,
                           std::uint64_t header_bits) const {
  const VertexId n = g_->num_vertices();
  CROUTE_REQUIRE(s < n && t < n, "endpoint out of range");
  const std::uint32_t max_hops =
      options_.max_hops > 0 ? options_.max_hops : default_hop_budget(*g_);

  RouteResult r;
  r.header_bits = header_bits;
  if (options_.record_path) r.path.push_back(s);

  VertexId here = s;
  while (true) {
    const Decision d = step(here);
    if (d.deliver) {
      r.status = here == t ? RouteStatus::kDelivered
                           : RouteStatus::kWrongDeliver;
      return r;
    }
    if (d.port >= g_->degree(here)) {
      r.status = RouteStatus::kBadPort;
      return r;
    }
    const Arc& a = g_->arc(here, d.port);
    r.length += a.weight;
    ++r.hops;
    here = a.head;
    if (options_.record_path) r.path.push_back(here);
    if (r.hops >= max_hops) {
      r.status = RouteStatus::kHopLimit;
      return r;
    }
  }
}

RouteResult route_tz(const Simulator& sim, const TZScheme& scheme, VertexId s,
                     VertexId t, RoutingPolicy policy) {
  const TZRouter router(scheme);
  const TZHeader header = router.prepare(s, scheme.label(t), policy);
  return sim.run(
      s, t,
      [&](VertexId v) {
        const TreeDecision d = router.step(v, header);
        return Simulator::Decision{d.deliver, d.port};
      },
      router.header_bits(header));
}

RouteResult route_tz_handshake(const Simulator& sim, const TZScheme& scheme,
                               VertexId s, VertexId t) {
  const TZRouter router(scheme);
  const TZHeader header = router.prepare_handshake(s, t);
  return sim.run(
      s, t,
      [&](VertexId v) {
        const TreeDecision d = router.step(v, header);
        return Simulator::Decision{d.deliver, d.port};
      },
      router.header_bits(header));
}

RouteResult route_cowen(const Simulator& sim, const CowenScheme& scheme,
                        VertexId s, VertexId t) {
  const CowenScheme::Label label = scheme.label(t);
  return sim.run(
      s, t,
      [&](VertexId v) {
        const CowenScheme::Decision d = scheme.step(v, label);
        return Simulator::Decision{d.deliver, d.port};
      },
      scheme.label_bits());
}

RouteResult route_full(const Simulator& sim, const FullTableScheme& scheme,
                       VertexId s, VertexId t) {
  return sim.run(
      s, t,
      [&](VertexId v) {
        if (v == t) return Simulator::Decision{true, kNoPort};
        return Simulator::Decision{false, scheme.next_hop(v, t)};
      },
      scheme.label_bits());
}

RouteResult route_tree(const Simulator& sim, const LocalTree& tree,
                       const TreeRoutingScheme& trs, std::uint32_t s,
                       std::uint32_t t) {
  CROUTE_REQUIRE(s < tree.size() && t < tree.size(),
                 "tree endpoint out of range");
  std::unordered_map<VertexId, std::uint32_t> local_of;
  local_of.reserve(tree.size());
  for (std::uint32_t i = 0; i < tree.size(); ++i) {
    local_of.emplace(tree.global[i], i);
  }
  const TreeLabel dest = trs.label(t);
  const TreeRoutingScheme::Codec codec(tree.size(),
                                       sim.graph().max_degree());
  return sim.run(
      tree.global[s], tree.global[t],
      [&](VertexId v) {
        const auto it = local_of.find(v);
        CROUTE_ASSERT(it != local_of.end(), "packet left the tree");
        const TreeDecision d = TreeRoutingScheme::decide(
            trs.record(it->second), dest);
        return Simulator::Decision{d.deliver, d.port};
      },
      TreeRoutingScheme::label_bits(dest, codec));
}

RouteResult route_interval_tree(const Simulator& sim, const LocalTree& tree,
                                const IntervalTreeScheme& its,
                                std::uint32_t s, std::uint32_t t) {
  CROUTE_REQUIRE(s < tree.size() && t < tree.size(),
                 "tree endpoint out of range");
  std::unordered_map<VertexId, std::uint32_t> local_of;
  local_of.reserve(tree.size());
  for (std::uint32_t i = 0; i < tree.size(); ++i) {
    local_of.emplace(tree.global[i], i);
  }
  const std::uint32_t dest = its.label(t);
  return sim.run(
      tree.global[s], tree.global[t],
      [&](VertexId v) {
        const auto it = local_of.find(v);
        CROUTE_ASSERT(it != local_of.end(), "packet left the tree");
        const IntervalTreeScheme::Decision d = its.decide(it->second, dest);
        if (d.deliver) return Simulator::Decision{true, kNoPort};
        return Simulator::Decision{
            false, its.to_graph_port(it->second, d.designer_port)};
      },
      its.label_bits());
}

}  // namespace croute
