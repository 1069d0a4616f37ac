#include "baseline/cowen.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "util/bit_io.hpp"
#include "util/dheap.hpp"
#include "util/parallel.hpp"

namespace croute {

namespace {

/// Settles vertices from \p source in (distance, rank) order until the
/// lexicographically nearest \p count vertices other than the source are
/// determined, i.e. until at least count+1 vertices settled *and* the next
/// tentative distance strictly exceeds the distance of the last one needed
/// (equal-distance vertices must all settle so rank ties resolve exactly).
/// Returns the ball members sorted by (distance, rank), source excluded.
std::vector<VertexId> truncated_ball(const Graph& g, VertexId source,
                                     std::uint32_t count,
                                     const std::vector<std::uint32_t>& rank) {
  struct Settled {
    VertexId v;
    Weight d;
  };
  const VertexId n = g.num_vertices();
  std::vector<Settled> settled;
  settled.reserve(std::size_t{count} * 2 + 2);
  std::vector<Weight> tentative(n, kInfiniteWeight);
  DHeap<Weight> heap(n);

  tentative[source] = 0;
  heap.push_or_decrease(source, 0);
  while (!heap.empty()) {
    // Stop once the count+1 lex-nearest (including the source itself) are
    // fixed: enough vertices settled and no tie with the frontier remains.
    if (settled.size() > count &&
        heap.top_key() > settled[count].d) {
      break;
    }
    const Weight d = heap.top_key();
    const VertexId v = static_cast<VertexId>(heap.pop());
    settled.push_back({v, d});
    for (const Arc& a : g.arcs(v)) {
      const Weight nd = d + a.weight;
      if (nd < tentative[a.head]) {
        tentative[a.head] = nd;
        heap.push_or_decrease(a.head, nd);
      }
    }
  }

  std::sort(settled.begin(), settled.end(),
            [&](const Settled& a, const Settled& b) {
              if (a.d != b.d) return a.d < b.d;
              return rank[a.v] < rank[b.v];
            });
  std::vector<VertexId> ball;
  ball.reserve(count);
  for (const Settled& s : settled) {
    if (s.v == source) continue;
    ball.push_back(s.v);
    if (ball.size() == count) break;
  }
  return ball;
}

}  // namespace

CowenScheme::CowenScheme(const Graph& g, Rng& rng, const Options& options)
    : g_(&g),
      n_(g.num_vertices()),
      id_bits_(bits_for_universe(g.num_vertices())) {
  CROUTE_REQUIRE(n_ >= 1, "graph must be non-empty");
  const std::vector<std::uint32_t> rank = rng.permutation(n_);

  // ---- balls -------------------------------------------------------------
  const std::uint32_t ball_size = n_ <= 1 ? 0
      : static_cast<std::uint32_t>(std::min<double>(
            static_cast<double>(n_ - 1),
            std::ceil(std::pow(static_cast<double>(n_),
                               options.ball_exponent))));
  build_landmarks(g, ball_size, rank, options);

  landmark_index_.assign(n_, ~std::uint32_t{0});
  for (std::uint32_t j = 0; j < landmarks_.size(); ++j) {
    landmark_index_[landmarks_[j]] = j;
  }

  // ---- nearest landmark (the guard for clusters, the home for labels) ----
  labels_.assign(n_, Label{});
  MultiSourceResult guard;
  if (!landmarks_.empty()) {
    guard = multi_source_dijkstra(g, landmarks_, rank);
  }
  for (VertexId t = 0; t < n_; ++t) {
    labels_[t].t = t;
    labels_[t].home = landmarks_.empty() ? t : guard.owner[t];
  }

  // ---- landmark shortest-path trees: ports toward every landmark, and
  //      the label port at each home landmark toward its clients ----------
  // Destinations grouped by home landmark so each SPT is walked once.
  std::vector<std::vector<VertexId>> clients(landmarks_.size());
  for (VertexId t = 0; t < n_; ++t) {
    if (!landmarks_.empty() && labels_[t].home != t) {
      clients[landmark_index_[labels_[t].home]].push_back(t);
    }
  }
  landmark_port_.assign(std::size_t{n_} * landmarks_.size(), kNoPort);
  std::vector<std::vector<Port>> home_port(landmarks_.size());
  parallel_for(landmarks_.size(), [&](std::uint64_t j) {
    const VertexId ell = landmarks_[j];
    const ShortestPathTree spt = dijkstra(g, ell);
    for (VertexId v = 0; v < n_; ++v) {
      if (v != ell) {
        landmark_port_[std::size_t{v} * landmarks_.size() + j] =
            spt.parent_port[v];
      }
    }
    // First edge of the ell → t path: walk t's parent chain up to ell.
    home_port[j].resize(clients[j].size(), kNoPort);
    for (std::size_t c = 0; c < clients[j].size(); ++c) {
      VertexId x = clients[j][c];
      while (spt.parent[x] != ell) x = spt.parent[x];
      home_port[j][c] = spt.down_port[x];
    }
  });
  for (std::uint32_t j = 0; j < landmarks_.size(); ++j) {
    for (std::size_t c = 0; c < clients[j].size(); ++c) {
      labels_[clients[j][c]].port_at_home = home_port[j][c];
    }
  }

  // ---- clusters: C(v) = {t : (d(v,t), rank(v)) <lex guard(t)}, with the
  //      first-hop port at v toward each member ----------------------------
  struct Member {
    VertexId t;
    Port port;
  };
  std::vector<std::vector<Member>> members(n_);
  const unsigned blocks = std::max(1u, worker_count());
  const VertexId per_block = (n_ + blocks - 1) / blocks;
  parallel_for(blocks, [&](std::uint64_t blk) {
    RestrictedDijkstra rd(g);
    std::vector<Port> first_hop(n_, kNoPort);  // scratch, per block
    const VertexId lo = static_cast<VertexId>(blk * per_block);
    const VertexId hi =
        std::min<VertexId>(n_, static_cast<VertexId>((blk + 1) * per_block));
    for (VertexId v = lo; v < hi; ++v) {
      if (landmark_index_[v] != ~std::uint32_t{0}) continue;  // v ∈ L
      auto guard_fn = [&](VertexId u) {
        return landmarks_.empty() ? LexDist{} : guard.guard(u, rank);
      };
      const auto run = rd.run(v, rank[v], guard_fn);
      auto& out = members[v];
      out.reserve(run.size() > 0 ? run.size() - 1 : 0);
      for (const ClusterVertex& cv : run) {
        if (cv.v == v) continue;
        first_hop[cv.v] =
            cv.parent == v ? cv.down_port : first_hop[cv.parent];
        out.push_back({cv.v, first_hop[cv.v]});
      }
    }
  });

  cluster_offset_.assign(std::size_t{n_} + 1, 0);
  std::size_t total = 0;
  for (VertexId v = 0; v < n_; ++v) total += members[v].size();
  cluster_t_.reserve(total);
  cluster_port_.reserve(total);
  for (VertexId v = 0; v < n_; ++v) {
    std::sort(members[v].begin(), members[v].end(),
              [](const Member& a, const Member& b) { return a.t < b.t; });
    for (const Member& m : members[v]) {
      cluster_t_.push_back(m.t);
      cluster_port_.push_back(m.port);
    }
    cluster_offset_[v + 1] = cluster_t_.size();
  }
}

void CowenScheme::build_landmarks(const Graph& g, std::uint32_t ball_size,
                                  const std::vector<std::uint32_t>& rank,
                                  const Options& options) {
  landmarks_.clear();
  if (n_ <= 1 || ball_size == 0) return;

  // Balls, flattened (computed in parallel, CSR-assembled after).
  std::vector<std::vector<VertexId>> ball(n_);
  parallel_for(n_, [&](std::uint64_t t) {
    ball[t] = truncated_ball(g, static_cast<VertexId>(t), ball_size, rank);
  });

  // Greedy hitting set with a lazy max-heap keyed by live cover counts.
  std::vector<std::vector<VertexId>> inverted(n_);  // u -> ball owners
  for (VertexId t = 0; t < n_; ++t) {
    for (const VertexId u : ball[t]) inverted[u].push_back(t);
  }
  std::vector<std::uint32_t> cover(n_, 0);
  for (VertexId u = 0; u < n_; ++u) {
    cover[u] = static_cast<std::uint32_t>(inverted[u].size());
  }
  std::vector<std::uint8_t> hit(n_, 0);
  std::vector<std::uint8_t> chosen(n_, 0);
  // Max-heap of (count, u); stale entries skipped on pop.
  std::vector<std::pair<std::uint32_t, VertexId>> heap;
  heap.reserve(n_);
  for (VertexId u = 0; u < n_; ++u) {
    if (cover[u] > 0) heap.emplace_back(cover[u], u);
  }
  std::make_heap(heap.begin(), heap.end());
  std::uint64_t unhit = n_;
  while (unhit > 0 && !heap.empty()) {
    std::pop_heap(heap.begin(), heap.end());
    const auto [cnt, u] = heap.back();
    heap.pop_back();
    if (chosen[u]) continue;
    if (cnt != cover[u]) {  // stale: re-queue with the live count
      if (cover[u] > 0) {
        heap.emplace_back(cover[u], u);
        std::push_heap(heap.begin(), heap.end());
      }
      continue;
    }
    if (cover[u] == 0) break;
    chosen[u] = 1;
    landmarks_.push_back(u);
    for (const VertexId t : inverted[u]) {
      if (hit[t]) continue;
      hit[t] = 1;
      --unhit;
      for (const VertexId m : ball[t]) {
        if (cover[m] > 0) --cover[m];
      }
    }
  }
  // Any ball left unhit (possible only if its members were all exhausted,
  // which cannot happen since its own members cover it) — guard anyway.
  for (VertexId t = 0; t < n_; ++t) {
    if (!hit[t] && !ball[t].empty() && !chosen[ball[t].front()]) {
      chosen[ball[t].front()] = 1;
      landmarks_.push_back(ball[t].front());
    }
  }
  std::sort(landmarks_.begin(), landmarks_.end());

  // Optional cluster cap: promote overweight-cluster vertices into L.
  if (options.cluster_cap_factor > 0) {
    const auto cap = static_cast<std::uint32_t>(
        options.cluster_cap_factor * ball_size);
    for (std::uint32_t round = 0; round < options.max_cap_rounds; ++round) {
      const MultiSourceResult guard =
          multi_source_dijkstra(g, landmarks_, rank);
      auto guard_fn = [&](VertexId u) { return guard.guard(u, rank); };
      RestrictedDijkstra rd(g);
      std::vector<VertexId> promote;
      for (VertexId v = 0; v < n_; ++v) {
        if (chosen[v]) continue;
        if (rd.run(v, rank[v], guard_fn, cap + 1).size() > cap) {
          promote.push_back(v);
        }
      }
      if (promote.empty()) break;
      for (const VertexId v : promote) {
        chosen[v] = 1;
        landmarks_.push_back(v);
      }
      std::sort(landmarks_.begin(), landmarks_.end());
    }
  }
}

CowenScheme::Decision CowenScheme::step(VertexId v, const Label& dest) const {
  CROUTE_REQUIRE(v < n_ && dest.t < n_, "vertex out of range");
  if (v == dest.t) return {true, kNoPort};

  // Exact hop if t ∈ C(v).
  const auto lo = cluster_t_.begin() +
                  static_cast<std::ptrdiff_t>(cluster_offset_[v]);
  const auto hi = cluster_t_.begin() +
                  static_cast<std::ptrdiff_t>(cluster_offset_[v + 1]);
  const auto it = std::lower_bound(lo, hi, dest.t);
  if (it != hi && *it == dest.t) {
    return {false, cluster_port_[static_cast<std::size_t>(
                       it - cluster_t_.begin())]};
  }

  // At the home landmark: take the label's pre-recorded first edge.
  if (v == dest.home) {
    CROUTE_ASSERT(dest.port_at_home != kNoPort,
                  "label for a non-landmark destination lacks a home port");
    return {false, dest.port_at_home};
  }

  // Otherwise forward toward the home landmark.
  const std::uint32_t j = landmark_index_[dest.home];
  CROUTE_ASSERT(j != ~std::uint32_t{0},
                "destination's home is not a landmark");
  const Port p = landmark_port_[std::size_t{v} * landmarks_.size() + j];
  CROUTE_ASSERT(p != kNoPort, "missing landmark port on a connected graph");
  return {false, p};
}

std::vector<std::uint32_t> CowenScheme::cluster_sizes() const {
  std::vector<std::uint32_t> sizes(n_);
  for (VertexId v = 0; v < n_; ++v) {
    sizes[v] =
        static_cast<std::uint32_t>(cluster_offset_[v + 1] -
                                   cluster_offset_[v]);
  }
  return sizes;
}

std::uint64_t CowenScheme::table_bits(VertexId v) const {
  CROUTE_REQUIRE(v < n_, "vertex out of range");
  const std::uint32_t port_bits =
      bits_for_universe(std::uint64_t{g_->degree(v)} + 1);
  // One port per landmark, plus (id, port) per cluster member.
  const std::uint64_t cluster_entries =
      cluster_offset_[v + 1] - cluster_offset_[v];
  return landmarks_.size() * port_bits +
         cluster_entries * (id_bits_ + port_bits);
}

std::uint64_t CowenScheme::label_bits() const {
  // (t, a_t, port at a_t); the home port is bounded by the max degree.
  return 2 * std::uint64_t{id_bits_} +
         bits_for_universe(std::uint64_t{g_->max_degree()} + 1);
}

}  // namespace croute
