// Randomized equivalence suite for core/flat_scheme.hpp: the flat
// compiled view must agree with TZScheme's VertexTable / ClusterDirectory
// / RoutingLabel structures answer-for-answer — same find results, same
// prepared headers (pivot, tree label, exact wire bits), same per-hop
// decisions — across k ∈ {2,3,4} for the two served decisions (the
// min-level rule and the handshake); and RouteService must serve
// byte-identical answers to the sim/ reference walk at every thread
// count and pipeline depth.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "core/flat_batch.hpp"
#include "core/flat_scheme.hpp"
#include "core/tz_router.hpp"
#include "reference_walk.hpp"
#include "service/route_service.hpp"
#include "service/workload.hpp"
#include "sim/experiment.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"

namespace croute {
namespace {

struct FlatFixture {
  Graph g;
  std::unique_ptr<TZScheme> scheme;

  FlatFixture(std::uint32_t k, VertexId n, std::uint64_t seed,
              GraphFamily family = GraphFamily::kErdosRenyi) {
    Rng grng(seed);
    g = make_workload(family, n, grng);
    TZSchemeOptions opt;
    opt.pre.k = k;
    // Labels that carry distances: the flat view must compile them too
    // (it keeps no distances; only the reference kMinEstimate reads them).
    opt.labels_carry_distances = true;
    Rng rng(seed + 1);
    scheme = std::make_unique<TZScheme>(g, opt, rng);
  }
};

void expect_same_header(const TZHeader& ref, const FlatHeader& flat,
                        const TZRouter& router) {
  ASSERT_EQ(ref.target, flat.target);
  ASSERT_EQ(ref.tree_root, flat.tree_root);
  ASSERT_EQ(ref.tree_label.dfs_in, flat.dfs_in);
  ASSERT_EQ(ref.tree_label.light_ports.size(), flat.light_len);
  for (std::uint32_t j = 0; j < flat.light_len; ++j) {
    ASSERT_EQ(ref.tree_label.light_ports[j], flat.light[j]);
  }
  // The precomputed bits table must agree with the BitWriter encoding.
  ASSERT_EQ(router.header_bits(ref), flat.bits);
}

// Walk the route stepping BOTH routers at every vertex; they must agree
// hop for hop until delivery.
void expect_same_walk(const Graph& g, VertexId s, VertexId t,
                      const TZRouter& router, const TZHeader& lh,
                      const FlatRouter& frouter, const FlatHeader& fh) {
  VertexId here = s;
  for (std::uint32_t hops = 0;; ++hops) {
    ASSERT_LT(hops, default_hop_budget(g)) << "routing loop";
    const TreeDecision dl = router.step(here, lh);
    const TreeDecision df = frouter.step(here, fh);
    ASSERT_EQ(dl.deliver, df.deliver) << "s=" << s << " t=" << t;
    if (dl.deliver) {
      ASSERT_EQ(here, t);
      return;
    }
    ASSERT_EQ(dl.port, df.port) << "s=" << s << " t=" << t << " at " << here;
    here = g.arc(here, dl.port).head;
  }
}

TEST(FlatScheme, FindMatchesLegacyLookup) {
  for (const std::uint32_t k : {1u, 2u, 3u, 4u}) {
    const FlatFixture fx(k, 150, 100 + k);
    const FlatScheme flat(*fx.scheme);
    const VertexId n = fx.g.num_vertices();
    const std::vector<VertexId>& top =
        fx.scheme->preprocessing().hierarchy().levels[k - 1];
    const auto top_count = static_cast<std::uint32_t>(top.size());
    Rng probe_rng(7);
    for (VertexId v = 0; v < n; ++v) {
      // The dense block: a top-level w resolves to v·T + rank(w).
      for (std::uint32_t r = 0; r < top_count; ++r) {
        ASSERT_EQ(flat.top_rank(top[r]), r);
        ASSERT_EQ(flat.find(v, top[r]), v * top_count + r);
        ASSERT_EQ(flat.top_index(v, r), v * top_count + r);
      }
      // Every w ∈ B(v) is found, with the record and own label of its
      // VertexTable entry.
      const VertexTable& table = fx.scheme->table(v);
      ASSERT_EQ(flat.table_size(v), table.size());
      for (const TableEntry& e : table.entries()) {
        const std::uint32_t idx = flat.find(v, e.w);
        ASSERT_NE(idx, FlatScheme::kNotFound);
        const FlatNodeRecord& rec = flat.record(idx);
        EXPECT_EQ(rec.dfs_in, e.record.dfs_in);
        EXPECT_EQ(rec.dfs_out, e.record.dfs_out);
        EXPECT_EQ(rec.heavy_out, e.record.heavy_out);
        EXPECT_EQ(rec.heavy_port, e.record.heavy_port);
        EXPECT_EQ(rec.parent_port, e.record.parent_port);
        EXPECT_EQ(rec.light_depth, e.record.light_depth);
        if (e.record.heavy_port != kNoPort) {
          EXPECT_EQ(e.record.heavy_in, rec.dfs_in + 1);  // derived field
        }
        const TreeLabel own = table.own_label(e);
        EXPECT_EQ(rec.dfs_in, own.dfs_in);
        const auto ports = flat.own_light_ports(idx);
        ASSERT_EQ(ports.size(), own.light_ports.size());
        for (std::size_t j = 0; j < ports.size(); ++j) {
          EXPECT_EQ(ports[j], own.light_ports[j]);
        }
      }
      // Non-members miss: membership agrees with the reference lookup
      // for every w.
      for (VertexId w = 0; w < n; ++w) {
        ASSERT_EQ(flat.find(v, w) != FlatScheme::kNotFound,
                  fx.scheme->lookup(v, w) != nullptr)
            << "k=" << k << " v=" << v << " w=" << w;
      }
      // Directory membership agrees as well.
      const ClusterDirectory& dir = fx.scheme->directory(v);
      for (const VertexId t : dir.members()) {
        const std::uint32_t di = flat.dir_find(v, t);
        ASSERT_NE(di, FlatScheme::kNotFound);
        const std::uint32_t li = dir.find_index(t);
        ASSERT_NE(li, ClusterDirectory::kNoIndex);
        EXPECT_EQ(flat.dir_dfs(di), dir.dfs_at(li));
      }
      for (int r = 0; r < 16; ++r) {
        const auto t = static_cast<VertexId>(probe_rng.next_below(n));
        EXPECT_EQ(flat.dir_find(v, t) != FlatScheme::kNotFound,
                  dir.contains(t));
      }
    }
  }
}

TEST(FlatScheme, PrepareAndStepMatchLegacyEverywhere) {
  for (const std::uint32_t k : {2u, 3u, 4u}) {
    const FlatFixture fx(k, 120, 200 + k);
    const TZRouter router(*fx.scheme);
    const FlatScheme flat(*fx.scheme);
    const FlatRouter frouter(flat);
    for (const PairSample& p : all_pairs(fx.g)) {
      const TZHeader lh = router.prepare(p.s, fx.scheme->label(p.t));
      const FlatHeader fh = frouter.prepare(p.s, p.t);
      expect_same_header(lh, fh, router);
      expect_same_walk(fx.g, p.s, p.t, router, lh, frouter, fh);
      const TZHeader lhs = router.prepare_handshake(p.s, p.t);
      const FlatHeader fhs = frouter.prepare_handshake(p.s, p.t);
      expect_same_header(lhs, fhs, router);
      expect_same_walk(fx.g, p.s, p.t, router, lhs, frouter, fhs);
    }
  }
}

// header_bits_for switches from the precomputed bits_by_len_ table to a
// closed form exactly at light_len == header_bits_table_len(). Both
// regimes — and in particular the boundary and everything past it (a
// caller-decoded label may carry more light ports than any pooled one) —
// must agree bit-for-bit with the BitWriter run TZRouter::header_bits
// performs.
TEST(FlatScheme, HeaderBitsExactAtAndBeyondTableEdge) {
  for (const std::uint32_t k : {2u, 3u, 4u}) {
    const FlatFixture fx(k, 150, 500 + k);
    const TZRouter router(*fx.scheme);
    const FlatScheme flat(*fx.scheme);
    const std::uint32_t edge = flat.header_bits_table_len();
    ASSERT_GE(edge, 1u);  // length 0 is always pooled
    for (std::uint32_t len = 0; len <= edge + 8; ++len) {
      TZHeader header;
      header.target = 0;
      header.tree_root = 0;
      header.tree_label.dfs_in = 0;
      header.tree_label.light_ports.assign(len, 0);
      EXPECT_EQ(flat.header_bits_for(len), router.header_bits(header))
          << "k=" << k << " light_len=" << len << " (table edge at " << edge
          << ")";
    }
  }
}

// The service must serve answer-for-answer what the sim/ reference walk
// routes, for every scheme kind and every thread count.
TEST(FlatService, MatchesReferenceWalkAtEveryThreadCount) {
  Rng grng(55);
  const Graph g = make_workload(GraphFamily::kErdosRenyi, 300, grng);
  Rng prng(56);
  const std::vector<PairSample> pairs = sample_pairs(g, 400, prng);
  std::vector<RouteQuery> queries;
  for (const auto& p : pairs) queries.push_back({p.s, p.t, p.exact});

  for (const SchemeKind kind :
       {SchemeKind::kTZDirect, SchemeKind::kTZHandshake}) {
    RouteServiceOptions opt;
    opt.scheme = kind;
    opt.k = 3;
    opt.seed = 77;
    opt.record_paths = true;
    const ReferenceWalk ref = reference_walk(g, opt, queries);
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
      opt.threads = threads;
      RouteService service(g, opt);
      const std::vector<RouteAnswer> answers = service.route_collect(queries);
      ASSERT_EQ(answers.size(), ref.answers.size());
      for (std::size_t i = 0; i < answers.size(); ++i) {
        ASSERT_TRUE(same_route(ref.answers[i], answers[i]))
            << scheme_name(kind) << " diverges at pair " << i << " with "
            << threads << " threads";
      }
    }
  }
}

// Hotspot traffic drives the destination-memo path hard (few distinct
// destinations per batch). Batched answers must equal unbatched
// route_one answers query for query.
TEST(FlatService, DestinationMemoMatchesRouteOne) {
  Rng grng(91);
  const Graph g = make_workload(GraphFamily::kBarabasiAlbert, 300, grng);
  TrafficOptions topt;
  topt.hotspots = 4;
  topt.source_pool = 16;
  Rng trng(92);
  const std::vector<RouteQuery> traffic =
      make_traffic(g, WorkloadKind::kHotspot, 600, trng, topt);

  RouteServiceOptions opt;
  opt.scheme = SchemeKind::kTZDirect;
  opt.threads = 4;
  opt.k = 3;
  opt.seed = 93;
  opt.record_paths = true;
  RouteService service(g, opt);
  const std::vector<RouteAnswer> answers = service.route_collect(traffic);
  for (std::size_t i = 0; i < answers.size(); ++i) {
    const RouteAnswer ref = service.route_one(traffic[i]);
    ASSERT_TRUE(same_route(answers[i], ref)) << "query " << i;
    ASSERT_TRUE(answers[i].delivered());
  }
}

// The batch-pipelined engine must serve byte-identical answers to the
// reference walk for every scheme kind and every pipeline depth —
// including a group of 1, ragged final generations (query count not
// divisible by the group), and self-queries. k = 1 makes every tree
// top-level (T = n); per kind, the queries walk both top-level trees
// (dense block, no search) and lower-level ones (searched slices).
TEST(FlatBatch, BatchedMatchesReferenceWalkAcrossKindsAndGroups) {
  Rng grng(71);
  const Graph g = make_workload(GraphFamily::kErdosRenyi, 260, grng);
  Rng prng(72);
  const std::vector<PairSample> pairs = sample_pairs(g, 395, prng);
  std::vector<RouteQuery> queries;
  for (const auto& p : pairs) queries.push_back({p.s, p.t, p.exact});
  // Self-queries complete at lane issue; sprinkle them through the
  // stream so generations mix immediate and walking lanes.
  for (VertexId v = 0; v < 6; ++v) {
    queries.insert(queries.begin() + 37 * (v + 1), RouteQuery{v, v, 0.0});
  }

  for (const SchemeKind kind :
       {SchemeKind::kTZDirect, SchemeKind::kTZHandshake}) {
    TreeMix mix;
    for (const std::uint32_t k : {1u, 2u, 3u, 4u}) {
      RouteServiceOptions opt;
      opt.scheme = kind;
      opt.threads = 2;
      opt.k = k;
      opt.seed = 73;
      opt.record_paths = true;
      const ReferenceWalk ref = reference_walk(g, opt, queries);
      for (const std::uint32_t group : {1u, 4u, 8u, 16u}) {
        opt.batch_group = group;
        RouteService batched(g, opt);
        if (group == 1) {
          const TreeMix m = tree_mix(*batched.package(), kind, queries);
          if (k == 1) {
            EXPECT_EQ(m.lower, 0u) << "k = 1 has no lower level";
          }
          mix.top += m.top;
          mix.lower += m.lower;
        }
        const std::vector<RouteAnswer> answers =
            batched.route_collect(queries);
        ASSERT_EQ(answers.size(), ref.answers.size());
        for (std::size_t i = 0; i < answers.size(); ++i) {
          ASSERT_TRUE(same_route(ref.answers[i], answers[i]))
              << scheme_name(kind) << " k=" << k << " group=" << group
              << " diverges at query " << i;
        }
      }
    }
    EXPECT_GT(mix.top, 0u) << scheme_name(kind);
    EXPECT_GT(mix.lower, 0u) << scheme_name(kind);
  }
}

// route() must reject out-of-range endpoints up front (the engine itself
// never bounds-checks — the grouping pass is the gate for both
// endpoints).
TEST(FlatBatch, RejectsOutOfRangeEndpoints) {
  Rng grng(41);
  const Graph g = make_workload(GraphFamily::kErdosRenyi, 80, grng);
  RouteServiceOptions opt;
  opt.threads = 1;
  opt.seed = 42;
  RouteService service(g, opt);
  const VertexId n = g.num_vertices();
  EXPECT_THROW(service.route_collect(std::vector<RouteQuery>{RouteQuery{n, 0, kUnknownDistance}}),
               std::invalid_argument);
  EXPECT_THROW(service.route_collect(std::vector<RouteQuery>{RouteQuery{0, n, kUnknownDistance}}),
               std::invalid_argument);
}

// Handshake routes through the engine: equivalence against the scalar
// walk at the engine level (the service matrix above covers it too, but
// this pins prepare_handshake's staged bidirectional pivot walk
// directly).
TEST(FlatBatch, HandshakeRouteMatchesScalarWalk) {
  const FlatFixture fx(3, 150, 91);
  const Graph& g = fx.g;
  const FlatScheme flat(*fx.scheme);
  const FlatRouter router(flat);
  FlatBatchTarget target;
  target.graph = &g;
  target.kind = FlatServeKind::kTZHandshake;
  target.flat = &flat;
  std::vector<FlatBatchQuery> qs;
  for (const PairSample& p : all_pairs(g)) {
    if (p.s != p.t) qs.push_back(FlatBatchQuery{p.s, p.t, {}});
  }
  std::vector<FlatBatchAnswer> as(qs.size());
  FlatBatchEngine engine(16);
  engine.route(target, qs, as);
  const std::uint32_t max_hops = default_hop_budget(g);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    const FlatHeader h = router.prepare_handshake(qs[i].s, qs[i].t);
    Weight length = 0;
    std::uint32_t hops = 0;
    VertexId here = qs[i].s;
    while (true) {
      const TreeDecision d = router.step(here, h);
      if (d.deliver) break;
      const Arc& arc = g.arc(here, d.port);
      length += arc.weight;
      here = arc.head;
      if (++hops >= max_hops) break;
    }
    ASSERT_EQ(as[i].status, RouteStatus::kDelivered) << "pair " << i;
    ASSERT_EQ(as[i].header_bits, h.bits) << "pair " << i;
    ASSERT_EQ(as[i].hops, hops) << "pair " << i;
    ASSERT_EQ(as[i].length, length) << "pair " << i;
  }
}

// Compiling the flat view over a ThreadPool must produce byte-identical
// pools to the serial compile: same indices from find, same payloads,
// same pooled labels, same wire-size table, same pool footprint. (The
// TSan CI job runs this test, so the parallel fill passes are
// race-checked too.)
TEST(FlatScheme, ParallelCompileMatchesSerial) {
  const FlatFixture fx(3, 220, 61);
  ThreadPool pool(4);
  const FlatScheme serial(*fx.scheme);
  const FlatScheme parallel(*fx.scheme, &pool);

  ASSERT_EQ(serial.pool_bytes(), parallel.pool_bytes());
  ASSERT_EQ(serial.header_bits_table_len(), parallel.header_bits_table_len());
  EXPECT_EQ(parallel.compile_stats().threads, 4u);
  for (VertexId v = 0; v < fx.g.num_vertices(); ++v) {
    ASSERT_EQ(serial.table_size(v), parallel.table_size(v));
    for (const TableEntry& e : fx.scheme->table(v).entries()) {
      const std::uint32_t a = serial.find(v, e.w);
      const std::uint32_t b = parallel.find(v, e.w);
      ASSERT_EQ(a, b);
      ASSERT_NE(a, FlatScheme::kNotFound);
      // FlatNodeRecord is eight 32-bit fields: no padding to compare.
      ASSERT_EQ(std::memcmp(&serial.record(a), &parallel.record(b),
                            sizeof(FlatNodeRecord)),
                0);
      const auto pa = serial.own_light_ports(a);
      const auto pb = parallel.own_light_ports(b);
      ASSERT_TRUE(std::equal(pa.begin(), pa.end(), pb.begin(), pb.end()));
    }
    const ClusterDirectory& dir = fx.scheme->directory(v);
    for (const VertexId t : dir.members()) {
      const std::uint32_t a = serial.dir_find(v, t);
      const std::uint32_t b = parallel.dir_find(v, t);
      ASSERT_EQ(a, b);
      ASSERT_EQ(serial.dir_dfs(a), parallel.dir_dfs(b));
    }
    const auto la = serial.label(v);
    const auto lb = parallel.label(v);
    ASSERT_EQ(la.size(), lb.size());
    for (std::size_t j = 0; j < la.size(); ++j) {
      ASSERT_EQ(la[j].w, lb[j].w);
      ASSERT_EQ(la[j].dfs_in, lb[j].dfs_in);
      ASSERT_EQ(la[j].light_len, lb[j].light_len);
    }
  }
}

// Both kinds serve from pooled SoA state, and the served table_bits must
// match a TZ scheme preprocessed directly from the same options.
TEST(FlatService, PooledStateMatchesPreprocessingTableBits) {
  Rng grng(31);
  const Graph g = make_workload(GraphFamily::kErdosRenyi, 150, grng);
  for (const SchemeKind kind :
       {SchemeKind::kTZDirect, SchemeKind::kTZHandshake}) {
    RouteServiceOptions opt;
    opt.scheme = kind;
    opt.threads = 1;
    opt.seed = 32;
    RouteService service(g, opt);
    EXPECT_NE(service.package()->flat, nullptr);
    TZSchemeOptions topt;
    topt.pre.k = opt.k;
    topt.pre.hierarchy.mode = opt.sampling;
    Rng rng(opt.seed);
    const TZScheme reference(g, topt, rng);
    for (VertexId v = 0; v < g.num_vertices(); v += 17) {
      EXPECT_EQ(service.table_bits(v), reference.table_bits(v))
          << scheme_name(kind) << " v=" << v;
    }
  }
}

// Steady-state zero allocation is hard to assert portably; what we can
// pin down is the arena contract: path views from one batch stay valid
// and correct until the next batch, and batches reuse arena capacity.
TEST(FlatService, ArenaPathsAreStableWithinBatch) {
  Rng grng(17);
  const Graph g = make_workload(GraphFamily::kRingOfCliques, 240, grng);
  Rng prng(18);
  const std::vector<PairSample> pairs = sample_pairs(g, 200, prng);
  std::vector<RouteQuery> queries;
  for (const auto& p : pairs) queries.push_back({p.s, p.t, p.exact});

  RouteServiceOptions opt;
  opt.scheme = SchemeKind::kTZDirect;
  opt.threads = 4;
  opt.seed = 19;
  opt.record_paths = true;
  RouteService service(g, opt);
  const std::vector<RouteAnswer> answers = service.route_collect(queries);
  for (std::size_t i = 0; i < answers.size(); ++i) {
    ASSERT_FALSE(answers[i].path.empty());
    EXPECT_EQ(answers[i].path.front(), queries[i].s);
    EXPECT_EQ(answers[i].path.back(), queries[i].t);
    EXPECT_EQ(answers[i].path.size(), std::size_t{answers[i].hops} + 1);
  }
}

}  // namespace
}  // namespace croute
