// Tests for delta-aware incremental rebuilds
// (core/incremental_rebuild.hpp): graph diffs, canonical top-level SPTs,
// and the load-bearing contract — an incremental rebuild is
// **byte-identical** to a from-scratch build on the same seed, across
// every delta kind and hierarchy depth, with a zero delta reusing every
// cluster tree. The async SchemeManager cases double as ThreadSanitizer
// workload in CI: batches drain against a pinned generation while the
// background thread runs the delta-aware rebuild.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/incremental_rebuild.hpp"
#include "core/scheme_io.hpp"
#include "graph/connectivity.hpp"
#include "graph/delta.hpp"
#include "graph/dijkstra.hpp"
#include "graph/spt.hpp"
#include "service/hot_swap.hpp"
#include "service/route_service.hpp"
#include "service/workload.hpp"
#include "sim/experiment.hpp"
#include "util/crc32c.hpp"
#include "util/random.hpp"

namespace croute {
namespace {

struct DeltaCase {
  const char* name;
  DeltaOptions options;
  bool empty;  // zero perturbation: the graph is reused as-is
};

const DeltaCase kDeltaCases[] = {
    {"zero", {0, 4.0, 0, 0}, true},
    {"weight-drift", {0.02, 4.0, 0, 0}, false},
    {"link-add", {0, 4.0, 0, 0.02}, false},
    {"link-remove", {0, 4.0, 0.02, 0}, false},
    {"mixed", {0.01, 4.0, 0.01, 0.01}, false},
};

// --- graph diffs ---------------------------------------------------------

TEST(DiffGraphs, IdenticalGraphsYieldEmptyDelta) {
  Rng grng(11);
  const Graph g = make_workload(GraphFamily::kErdosRenyi, 200, grng);
  const GraphDelta d = diff_graphs(g, g);
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.changed_edges(), 0u);
  EXPECT_TRUE(d.touched.empty());
  EXPECT_EQ(d.n, g.num_vertices());
}

TEST(DiffGraphs, ClassifiesEveryChangeKind) {
  GraphBuilder b0(6);
  b0.add_edge(0, 1, 1.0);
  b0.add_edge(1, 2, 2.0);
  b0.add_edge(2, 3, 3.0);
  b0.add_edge(3, 4, 4.0);
  b0.add_edge(4, 5, 5.0);
  const Graph before = b0.build();
  GraphBuilder b1(6);
  b1.add_edge(0, 1, 1.0);   // unchanged
  b1.add_edge(1, 2, 2.5);   // reweighted
  b1.add_edge(2, 3, 3.0);   // unchanged
  b1.add_edge(3, 4, 4.0);   // unchanged
  // {4,5} removed
  b1.add_edge(0, 5, 9.0);   // added
  const Graph after = b1.build();

  const GraphDelta d = diff_graphs(before, after);
  ASSERT_EQ(d.added.size(), 1u);
  EXPECT_EQ(d.added[0], (std::pair<VertexId, VertexId>{0, 5}));
  ASSERT_EQ(d.removed.size(), 1u);
  EXPECT_EQ(d.removed[0], (std::pair<VertexId, VertexId>{4, 5}));
  ASSERT_EQ(d.reweighted.size(), 1u);
  EXPECT_EQ(d.reweighted[0].u, 1u);
  EXPECT_EQ(d.reweighted[0].v, 2u);
  EXPECT_EQ(d.reweighted[0].old_weight, 2.0);
  EXPECT_EQ(d.reweighted[0].new_weight, 2.5);
  EXPECT_EQ(d.touched, (std::vector<VertexId>{0, 1, 2, 4, 5}));
}

TEST(DiffGraphs, RoundTripsPerturbation) {
  Rng grng(13);
  const Graph g = make_workload(GraphFamily::kGeometric, 300, grng);
  Rng rng(14);
  const Graph p = perturb_graph(g, rng);
  const GraphDelta d = diff_graphs(g, p);
  EXPECT_FALSE(d.empty());
  // Every touched vertex really is an endpoint of some listed change.
  std::vector<std::uint8_t> endpoint(g.num_vertices(), 0);
  for (const auto& [u, v] : d.added) endpoint[u] = endpoint[v] = 1;
  for (const auto& [u, v] : d.removed) endpoint[u] = endpoint[v] = 1;
  for (const EdgeReweight& r : d.reweighted) {
    endpoint[r.u] = endpoint[r.v] = 1;
  }
  std::uint32_t endpoints = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) endpoints += endpoint[v];
  ASSERT_EQ(endpoints, d.touched.size());
  for (const VertexId v : d.touched) EXPECT_TRUE(endpoint[v]) << v;
}

// --- canonical SPTs ------------------------------------------------------

TEST(CanonicalSpt, IsAValidShortestPathTree) {
  Rng grng(17);
  const Graph g = make_workload(GraphFamily::kErdosRenyi, 250, grng);
  const ShortestPathTree spt = dijkstra(g, 7);
  const LocalTree t = make_canonical_spt(g, 7, spt.dist);
  ASSERT_EQ(t.size(), g.num_vertices());
  EXPECT_EQ(t.root(), 7u);
  for (std::uint32_t i = 1; i < t.size(); ++i) {
    const VertexId v = t.global[i];
    EXPECT_EQ(t.dist[i], spt.dist[v]);
    ASSERT_LT(t.parent[i], i) << "parents must precede children";
    const VertexId parent = t.global[t.parent[i]];
    const Arc& up = g.arc(v, t.parent_port[i]);
    EXPECT_EQ(up.head, parent);
    EXPECT_EQ(g.arc(parent, t.down_port[i]).head, v);
    EXPECT_EQ(spt.dist[parent] + up.weight, spt.dist[v])
        << "parent edge must lie on a shortest path";
  }
}

TEST(CanonicalSpt, IsAPureFunctionOfTheDistanceField) {
  Rng grng(19);
  const Graph g = make_workload(GraphFamily::kRingOfCliques, 180, grng);
  // Ring-of-cliques has heavy distance ties; the canonical tree must not
  // depend on how the field was computed, so two calls agree exactly.
  const std::vector<Weight> dist = dijkstra(g, 3).dist;
  const LocalTree a = make_canonical_spt(g, 3, dist);
  const LocalTree b = make_canonical_spt(g, 3, dist);
  ASSERT_EQ(a.global, b.global);
  ASSERT_EQ(a.parent, b.parent);
  ASSERT_EQ(a.parent_port, b.parent_port);
  ASSERT_EQ(a.down_port, b.down_port);
  ASSERT_EQ(a.dist, b.dist);
}

// --- incremental == from-scratch, byte for byte --------------------------

class IncrementalEquivalence : public ::testing::TestWithParam<std::uint32_t> {
};

TEST_P(IncrementalEquivalence, ByteIdenticalAcrossDeltaKinds) {
  const std::uint32_t k = GetParam();
  Rng grng(23);
  const Graph g0 = make_workload(GraphFamily::kErdosRenyi, 600, grng);
  TZSchemeOptions opt;
  opt.pre.k = k;
  Rng r0(101);
  const TZScheme previous(g0, opt, r0);

  for (const DeltaCase& c : kDeltaCases) {
    SCOPED_TRACE(c.name);
    Rng drng(202);
    const Graph g1 = c.empty ? g0 : perturb_graph(g0, drng, c.options);
    const GraphDelta delta = diff_graphs(g0, g1);
    EXPECT_EQ(delta.empty(), c.empty);

    Rng rf(101);
    const TZScheme fresh(g1, opt, rf);
    Rng ri(101);
    IncrementalRebuildStats stats;
    const TZScheme incremental =
        rebuild_tz_incremental(previous, g1, delta, opt, ri, &stats);

    EXPECT_TRUE(stats.used);
    EXPECT_EQ(stats.clusters_total, g1.num_vertices());
    EXPECT_EQ(save_scheme(fresh), save_scheme(incremental))
        << "incremental rebuild diverged from the from-scratch build";
    if (c.empty) {
      EXPECT_EQ(stats.clusters_reused, stats.clusters_total)
          << "a zero delta must reuse every cluster tree";
      EXPECT_EQ(stats.fresh_settled, 0u);
      EXPECT_EQ(stats.top_trees_updated, 0u);
    } else {
      EXPECT_GT(stats.fresh_settled + stats.top_update_pops, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(KValues, IncrementalEquivalence,
                         ::testing::Values(2u, 3u, 4u));

TEST(IncrementalRebuild, BernoulliSamplingIsByteIdenticalAndReusesMore) {
  // Bernoulli hierarchies are a pure function of (seed, n): the landmark
  // set survives any delta, so only genuine distance changes invalidate
  // trees. Byte-identity must hold exactly as in centered mode.
  Rng grng(61);
  const Graph g0 = make_workload(GraphFamily::kErdosRenyi, 600, grng);
  TZSchemeOptions opt;
  opt.pre.k = 3;
  opt.pre.hierarchy.mode = SamplingMode::kBernoulli;
  Rng r0(101);
  const TZScheme previous(g0, opt, r0);

  Rng drng(62);
  DeltaOptions localized{0.005, 4.0, 0.002, 0.002};
  const Graph g1 = perturb_graph(g0, drng, localized);
  const GraphDelta delta = diff_graphs(g0, g1);

  Rng rf(101);
  const TZScheme fresh(g1, opt, rf);
  Rng ri(101);
  IncrementalRebuildStats stats;
  const TZScheme incremental =
      rebuild_tz_incremental(previous, g1, delta, opt, ri, &stats);
  EXPECT_EQ(save_scheme(fresh), save_scheme(incremental));
  // The stable hierarchy must leave a substantial share of trees intact.
  EXPECT_GT(stats.clusters_reused, stats.clusters_total / 4);
}

TEST(IncrementalPackage, SamplingModeChangeFallsBackToFull) {
  Rng grng(63);
  const Graph g = make_workload(GraphFamily::kErdosRenyi, 300, grng);
  RouteServiceOptions opt;
  opt.k = 3;
  opt.seed = 5;
  auto base = build_scheme_package(std::make_shared<const Graph>(g), opt);
  RouteServiceOptions bern = opt;
  bern.sampling = SamplingMode::kBernoulli;
  auto p = build_scheme_package_incremental(
      base, std::make_shared<const Graph>(g), bern);
  EXPECT_FALSE(p->incr_stats.used);
  EXPECT_STREQ(p->incr_stats.fallback_reason,
               "construction options changed");
}

TEST(IncrementalRebuild, ChainedDeltasStayByteIdentical) {
  // Rebuild incrementally along a churn schedule, each step reusing the
  // previous *incremental* scheme — drift must not accumulate.
  Rng grng(29);
  const Graph g0 = make_workload(GraphFamily::kGeometric, 500, grng);
  TZSchemeOptions opt;
  opt.pre.k = 3;
  DeltaOptions localized{0.01, 4.0, 0.005, 0.005};
  Rng drng(303);
  const std::vector<Graph> schedule = churn_schedule(g0, 3, drng, localized);

  Rng r0(404);
  TZScheme current(g0, opt, r0);
  const Graph* current_graph = &g0;
  for (const Graph& next : schedule) {
    const GraphDelta delta = diff_graphs(*current_graph, next);
    Rng ri(404);
    IncrementalRebuildStats stats;
    TZScheme incremental =
        rebuild_tz_incremental(current, next, delta, opt, ri, &stats);
    Rng rf(404);
    const TZScheme fresh(next, opt, rf);
    ASSERT_EQ(save_scheme(fresh), save_scheme(incremental));
    current = std::move(incremental);
    current_graph = &next;
  }
}

// --- golden bytes ---------------------------------------------------------

// Every other byte-identity test compares two outputs of the same code
// (incremental vs fresh, recovered vs fresh), so a change to the DFS
// numbering or the light-port order on both sides would pass them all.
// These constants pin the saved scheme itself. A deliberate format
// change updates them together with the scheme file's version.
struct GoldenCase {
  const char* name;
  GraphFamily family;
  std::uint32_t k;
  std::uint32_t fresh_crc;
  std::uint32_t incremental_crc;
};

const GoldenCase kGoldenCases[] = {
    {"er-k2", GraphFamily::kErdosRenyi, 2, 0x44ea5c22u, 0x23da1e15u},
    {"er-k3", GraphFamily::kErdosRenyi, 3, 0x2d76b5ccu, 0xfb6960bau},
    {"er-k4", GraphFamily::kErdosRenyi, 4, 0xa6394da1u, 0x2bc0f193u},
    {"ba-k3", GraphFamily::kBarabasiAlbert, 3, 0xced65602u, 0x36937e57u},
};

std::uint32_t scheme_crc(const TZScheme& scheme) {
  const std::string bytes = save_scheme(scheme);
  return crc32c(bytes.data(), bytes.size());
}

TEST(GoldenScheme, SavedBytesMatchPinnedChecksums) {
  for (const GoldenCase& c : kGoldenCases) {
    SCOPED_TRACE(c.name);
    Rng grng(7);
    const Graph g0 = make_workload(c.family, 2000, grng);
    TZSchemeOptions opt;
    opt.pre.k = c.k;
    Rng rf(8);
    const TZScheme fresh(g0, opt, rf);

    Rng drng(3);
    const Graph g1 =
        perturb_graph(g0, drng, DeltaOptions{0.001, 4.0, 0.0005, 0.0005});
    Rng ri(8);
    const TZScheme incremental =
        rebuild_tz_incremental(fresh, g1, diff_graphs(g0, g1), opt, ri);

    EXPECT_EQ(scheme_crc(fresh), c.fresh_crc)
        << std::hex << "fresh crc 0x" << scheme_crc(fresh);
    EXPECT_EQ(scheme_crc(incremental), c.incremental_crc)
        << std::hex << "incremental crc 0x" << scheme_crc(incremental);
  }
}

// --- package layer -------------------------------------------------------

TEST(IncrementalPackage, MatchesFullBuildAndRecordsStats) {
  Rng grng(31);
  const Graph g0 = make_workload(GraphFamily::kErdosRenyi, 500, grng);
  RouteServiceOptions opt;
  opt.k = 3;
  opt.seed = 9;
  auto base = build_scheme_package(std::make_shared<const Graph>(g0), opt);
  EXPECT_FALSE(base->incr_stats.used);

  Rng drng(32);
  DeltaOptions localized{0.01, 4.0, 0.005, 0.005};
  const Graph g1 = perturb_graph(g0, drng, localized);
  auto incremental = build_scheme_package_incremental(
      base, std::make_shared<const Graph>(g1), opt);
  auto full = build_scheme_package(std::make_shared<const Graph>(g1), opt);

  ASSERT_TRUE(incremental->incr_stats.used);
  EXPECT_GT(incremental->incr_stats.clusters_total, 0u);
  EXPECT_EQ(save_scheme(*full->tz), save_scheme(*incremental->tz));
}

TEST(IncrementalPackage, FallsBackWithRecordedReason) {
  Rng grng(37);
  const Graph g = make_workload(GraphFamily::kErdosRenyi, 300, grng);
  RouteServiceOptions opt;
  opt.k = 3;
  opt.seed = 5;

  // No previous generation.
  auto p1 = build_scheme_package_incremental(
      nullptr, std::make_shared<const Graph>(g), opt);
  EXPECT_FALSE(p1->incr_stats.used);
  EXPECT_STREQ(p1->incr_stats.fallback_reason, "no previous generation");

  // Changed construction options.
  RouteServiceOptions reseeded = opt;
  reseeded.seed = 6;
  auto p2 = build_scheme_package_incremental(
      p1, std::make_shared<const Graph>(g), reseeded);
  EXPECT_FALSE(p2->incr_stats.used);
  EXPECT_STREQ(p2->incr_stats.fallback_reason,
               "construction options changed");

}

// --- SchemeManager: the default rebuild path -----------------------------

TEST(IncrementalHotSwap, RebuildNowMatchesFreshServiceEitherMode) {
  Rng grng(41);
  const Graph g0 = make_workload(GraphFamily::kErdosRenyi, 400, grng);
  RouteServiceOptions opt;
  opt.k = 3;
  opt.seed = 77;
  opt.threads = 2;

  Rng drng(42);
  DeltaOptions localized{0.02, 4.0, 0.01, 0.01};
  const Graph g1 = perturb_graph(g0, drng, localized);

  Rng qrng(43);
  std::vector<RouteQuery> queries =
      make_traffic(g1, WorkloadKind::kUniform, 400, qrng);

  RouteService fresh(g1, opt);
  const std::vector<RouteAnswer> expected = fresh.route_collect(queries);

  for (const RebuildMode mode :
       {RebuildMode::kIncremental, RebuildMode::kFull}) {
    RouteService service(g0, opt);
    SchemeManager manager(service);
    const SchemePackagePtr pkg = manager.rebuild_now(g1, mode);
    EXPECT_EQ(pkg->incr_stats.used, mode == RebuildMode::kIncremental);
    const std::vector<RouteAnswer> got = service.route_collect(queries);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_TRUE(same_route(got[i], expected[i]))
          << "mode " << (mode == RebuildMode::kFull ? "full" : "incremental")
          << " diverges at " << i;
    }
  }
}

TEST(IncrementalHotSwap, AsyncIncrementalCyclesUnderLiveBatches) {
  // The TSan-facing case: batches drain on the serving generation while
  // the background thread runs delta-aware rebuilds; every settled
  // generation must match a fresh service, and the telemetry must show
  // the incremental path actually ran.
  Rng grng(47);
  const Graph g0 = make_workload(GraphFamily::kErdosRenyi, 350, grng);
  RouteServiceOptions opt;
  opt.k = 3;
  opt.seed = 55;
  opt.threads = 3;

  RouteService service(g0, opt);
  SchemeManager manager(service);
  Rng qrng(48);
  const std::vector<RouteQuery> queries =
      make_traffic(g0, WorkloadKind::kUniform, 300, qrng);

  DeltaOptions localized{0.02, 4.0, 0.01, 0.01};
  Rng drng(49);
  Graph current = g0;
  for (std::uint32_t cycle = 0; cycle < 3; ++cycle) {
    current = perturb_graph(current, drng, localized);
    manager.rebuild_async(current);
    while (manager.rebuild_in_flight()) {
      (void)service.route_collect(queries);
    }
    manager.wait();

    std::vector<RouteQuery> stripped = queries;
    for (RouteQuery& q : stripped) q.exact = kUnknownDistance;
    RouteService fresh(current, opt);
    const std::vector<RouteAnswer> a = service.route_collect(stripped);
    const std::vector<RouteAnswer> b = fresh.route_collect(stripped);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_TRUE(same_route(a[i], b[i]))
          << "cycle " << cycle << " diverges at " << i;
    }
  }
  const ServiceTelemetry t = service.snapshot();
  EXPECT_EQ(t.incremental_rebuilds, 3u);
  EXPECT_GT(t.clusters_total, 0u);
  EXPECT_GT(t.incremental_preprocess_seconds, 0.0);
}

TEST(IncrementalHotSwap, ChurnDriverReportsReuseRatio) {
  Rng grng(53);
  const Graph g = make_workload(GraphFamily::kErdosRenyi, 300, grng);
  RouteServiceOptions opt;
  opt.k = 3;
  opt.seed = 66;
  opt.threads = 2;
  RouteService service(g, opt);
  SchemeManager manager(service);

  Rng qrng(54);
  const std::vector<RouteQuery> traffic =
      make_traffic(g, WorkloadKind::kUniform, 2000, qrng);
  DriverOptions dopt;
  dopt.batch_size = 256;
  ChurnOptions copt;
  copt.cycles = 2;
  copt.seed = 67;
  copt.delta = DeltaOptions{0.01, 4.0, 0.005, 0.005};
  const ChurnReport r =
      run_closed_loop_churn(service, manager, traffic, dopt, copt);
  EXPECT_EQ(r.swaps, 2u);
  EXPECT_EQ(r.incremental_rebuilds, 2u);
  EXPECT_GT(r.clusters_total, 0u);
  EXPECT_LE(r.reuse_ratio(), 1.0);

  // The escape hatch: the same churn forced onto the full path.
  RouteService full_service(g, opt);
  SchemeManager full_manager(full_service);
  ChurnOptions full_copt = copt;
  full_copt.full_rebuild = true;
  const ChurnReport rf = run_closed_loop_churn(full_service, full_manager,
                                               traffic, dopt, full_copt);
  EXPECT_EQ(rf.swaps, 2u);
  EXPECT_EQ(rf.incremental_rebuilds, 0u);
  EXPECT_EQ(rf.clusters_total, 0u);
  EXPECT_EQ(rf.reuse_ratio(), 0.0);
}

}  // namespace
}  // namespace croute
