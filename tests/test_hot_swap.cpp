// Tests for scheme hot-swap: graph/delta.hpp churn perturbations,
// service/scheme_package.hpp generation bundles, the RCU publish seam in
// RouteService, service/hot_swap.hpp background rebuilds, and the churn
// closed-loop driver. The concurrent cases double as the ThreadSanitizer
// workload in CI: worker threads drain batches against a pinned
// generation while a background thread preprocesses and publishes the
// next one.
//
// The load-bearing property throughout: a hot-swapped service is
// *indistinguishable* from a fresh service built on the same graph —
// every batch is served entirely on one generation, and that
// generation's answers are byte-equal to the fresh build's.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "graph/connectivity.hpp"
#include "graph/delta.hpp"
#include "service/hot_swap.hpp"
#include "service/route_service.hpp"
#include "service/workload.hpp"
#include "sim/experiment.hpp"
#include "util/random.hpp"

namespace croute {
namespace {

RouteServiceOptions swap_options(SchemeKind kind, unsigned threads) {
  RouteServiceOptions opt;
  opt.scheme = kind;
  opt.threads = threads;
  opt.k = 3;
  opt.seed = 77;
  opt.record_paths = false;
  return opt;
}

std::vector<RouteQuery> swap_queries(const Graph& g, std::uint32_t count) {
  Rng rng(5);
  std::vector<RouteQuery> queries =
      make_traffic(g, WorkloadKind::kUniform, count, rng);
  // Self-queries must survive a swap with their defined answer too.
  queries.push_back({3, 3, 0});
  queries.push_back({11, 11, kUnknownDistance});
  return queries;
}

void expect_same_answers(const std::vector<RouteAnswer>& a,
                         const std::vector<RouteAnswer>& b,
                         const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(same_route(a[i], b[i])) << what << " diverges at " << i;
  }
}

bool answers_equal(const std::vector<RouteAnswer>& a,
                   const std::vector<RouteAnswer>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_route(a[i], b[i])) return false;
  }
  return true;
}

// --- graph deltas --------------------------------------------------------

TEST(GraphDelta, PerturbKeepsVertexSetAndConnectivity) {
  Rng grng(21);
  const Graph g = make_workload(GraphFamily::kErdosRenyi, 300, grng);
  Rng rng(22);
  DeltaOptions opt;  // defaults: reweight 30%, remove 5%, add 5%
  const Graph p = perturb_graph(g, rng, opt);
  EXPECT_EQ(p.num_vertices(), g.num_vertices());
  EXPECT_TRUE(is_connected(p));
  // Something actually changed: edge count or total weight.
  double gw = 0, pw = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const Arc& a : g.arcs(v)) gw += a.weight;
  }
  for (VertexId v = 0; v < p.num_vertices(); ++v) {
    for (const Arc& a : p.arcs(v)) pw += a.weight;
  }
  EXPECT_TRUE(p.num_edges() != g.num_edges() || std::abs(pw - gw) > 1e-9);
}

TEST(GraphDelta, PerturbIsDeterministic) {
  Rng grng(31);
  const Graph g = make_workload(GraphFamily::kRingOfCliques, 240, grng);
  Rng r1(33), r2(33);
  const Graph a = perturb_graph(g, r1);
  const Graph b = perturb_graph(g, r2);
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    ASSERT_EQ(a.degree(v), b.degree(v)) << v;
    for (Port port = 0; port < a.degree(v); ++port) {
      ASSERT_EQ(a.arc(v, port).head, b.arc(v, port).head);
      ASSERT_EQ(a.arc(v, port).weight, b.arc(v, port).weight);
    }
  }
}

TEST(GraphDelta, ChurnScheduleStaysConnected) {
  Rng grng(41);
  const Graph g = make_workload(GraphFamily::kErdosRenyi, 200, grng);
  Rng rng(42);
  const std::vector<Graph> schedule = churn_schedule(g, 4, rng);
  ASSERT_EQ(schedule.size(), 4u);
  for (const Graph& s : schedule) {
    EXPECT_EQ(s.num_vertices(), g.num_vertices());
    EXPECT_TRUE(is_connected(s));
  }
}

TEST(GraphDelta, PureReweightKeepsEdgeSet) {
  Rng grng(51);
  const Graph g = make_workload(GraphFamily::kErdosRenyi, 150, grng);
  Rng rng(52);
  DeltaOptions opt;
  opt.remove_fraction = 0;
  opt.add_fraction = 0;
  opt.reweight_fraction = 1.0;
  const Graph p = perturb_graph(g, rng, opt);
  ASSERT_EQ(p.num_edges(), g.num_edges());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(p.degree(v), g.degree(v));
    for (Port port = 0; port < g.degree(v); ++port) {
      EXPECT_EQ(p.arc(v, port).head, g.arc(v, port).head);
      EXPECT_GT(p.arc(v, port).weight, 0.0);
    }
  }
}

// --- SchemePackage + publish ---------------------------------------------

TEST(SchemePackage, PublishedGenerationMatchesFreshService) {
  Rng grng(61);
  const Graph g0 = make_workload(GraphFamily::kErdosRenyi, 260, grng);
  Rng drng(62);
  const Graph g1 = perturb_graph(g0, drng);
  const std::vector<RouteQuery> queries = swap_queries(g0, 300);

  const RouteServiceOptions opt = swap_options(SchemeKind::kTZDirect, 4);
  RouteService service(g0, opt);
  RouteService fresh0(g0, opt);
  RouteService fresh1(g1, opt);
  expect_same_answers(service.route_collect(queries),
                      fresh0.route_collect(queries), "before swap");

  service.publish(build_scheme_package(std::make_shared<const Graph>(g1),
                                       opt));
  EXPECT_EQ(service.swap_count(), 1u);
  EXPECT_EQ(service.graph().num_edges(), g1.num_edges());
  expect_same_answers(service.route_collect(queries),
                      fresh1.route_collect(queries), "after swap");
  const ServiceTelemetry tel = service.snapshot();
  EXPECT_EQ(tel.swaps, 1u);
}

TEST(SchemePackage, PublishRejectsMismatchedGenerations) {
  Rng grng(71);
  const Graph g = make_workload(GraphFamily::kErdosRenyi, 150, grng);
  Rng grng2(72);
  const Graph smaller = make_workload(GraphFamily::kErdosRenyi, 100, grng2);
  const RouteServiceOptions opt = swap_options(SchemeKind::kTZDirect, 1);
  RouteService service(g, opt);
  EXPECT_THROW(service.publish(nullptr), std::exception);
  EXPECT_THROW(service.publish(build_scheme_package(
                   std::make_shared<const Graph>(smaller), opt)),
               std::exception);
  RouteServiceOptions handshake = opt;
  handshake.scheme = SchemeKind::kTZHandshake;
  EXPECT_THROW(service.publish(build_scheme_package(
                   std::make_shared<const Graph>(g), handshake)),
               std::exception);
}

TEST(SchemePackage, PinnedGenerationSurvivesSwaps) {
  // RCU read side: a pinned package stays fully usable after an
  // arbitrary number of swaps retire it from the service.
  Rng grng(81);
  const Graph g0 = make_workload(GraphFamily::kErdosRenyi, 150, grng);
  const RouteServiceOptions opt = swap_options(SchemeKind::kTZDirect, 1);
  RouteService service(g0, opt);
  const SchemePackagePtr pinned = service.package();
  Rng drng(82);
  Graph current = g0;
  for (int i = 0; i < 3; ++i) {
    current = perturb_graph(current, drng);
    service.publish(build_scheme_package(
        std::make_shared<const Graph>(current), opt));
  }
  EXPECT_EQ(service.swap_count(), 3u);
  // The pinned generation still answers (old graph, old labels).
  const FlatHeader h = pinned->flat_router->prepare(1, 2);
  EXPECT_NE(h.tree_root, kNoVertex);
  EXPECT_EQ(pinned->graph->num_edges(), g0.num_edges());
}

// --- the acceptance test: swaps under concurrent batches -----------------

// ≥ 3 background rebuild+swap cycles while batches keep flowing, at
// every thread count: every batch must be byte-equal to a fresh service
// on either the generation it started under or the freshly published
// one — never a mixture — and after wait() the service must serve the
// new generation exactly.
TEST(HotSwap, DeterministicUnderConcurrentBatchesAtEveryThreadCount) {
  Rng grng(91);
  const Graph g0 = make_workload(GraphFamily::kErdosRenyi, 260, grng);
  Rng drng(92);
  const std::vector<Graph> schedule = churn_schedule(g0, 3, drng);
  const std::vector<RouteQuery> queries = swap_queries(g0, 400);

  for (const SchemeKind kind :
       {SchemeKind::kTZDirect, SchemeKind::kTZHandshake}) {
    // Reference answers per generation, from fresh services (same seed).
    std::vector<std::vector<RouteAnswer>> reference;
    {
      const RouteServiceOptions opt = swap_options(kind, 2);
      RouteService ref0(g0, opt);
      reference.push_back(ref0.route_collect(queries));
      for (const Graph& g : schedule) {
        RouteService ref(g, opt);
        reference.push_back(ref.route_collect(queries));
      }
    }

    for (const unsigned threads : {1u, 2u, 3u, 8u}) {
      RouteService service(g0, swap_options(kind, threads));
      SchemeManager manager(service);
      std::size_t version = 0;
      for (std::size_t cycle = 1; cycle <= schedule.size(); ++cycle) {
        manager.rebuild_async(schedule[cycle - 1]);
        // Serve batches concurrently with the background rebuild.
        int rounds = 0;
        do {
          const std::vector<RouteAnswer> answers =
              service.route_collect(queries);
          const bool matches_old = answers_equal(answers, reference[version]);
          const bool matches_new = answers_equal(answers, reference[cycle]);
          ASSERT_TRUE(matches_old || matches_new)
              << scheme_name(kind) << " threads=" << threads << " cycle="
              << cycle << ": batch matches neither generation";
        } while (manager.rebuild_in_flight() && ++rounds < 10000);
        manager.wait();
        version = cycle;
        expect_same_answers(service.route_collect(queries), reference[version],
                            "settled after swap");
      }
      const ServiceTelemetry tel = service.snapshot();
      EXPECT_EQ(tel.swaps, schedule.size());
      EXPECT_EQ(tel.rebuilds, schedule.size());
      EXPECT_GT(tel.rebuild_seconds, 0.0);
    }
  }
}

// --- SchemeManager + churn driver ----------------------------------------

TEST(SchemeManager, RebuildNowSwapsSynchronously) {
  Rng grng(101);
  const Graph g0 = make_workload(GraphFamily::kErdosRenyi, 200, grng);
  Rng drng(102);
  const Graph g1 = perturb_graph(g0, drng);
  const RouteServiceOptions opt = swap_options(SchemeKind::kTZHandshake, 2);
  RouteService service(g0, opt);
  SchemeManager manager(service);
  const SchemePackagePtr pkg = manager.rebuild_now(g1);
  EXPECT_EQ(service.package().get(), pkg.get());
  EXPECT_EQ(service.swap_count(), 1u);
  RouteService fresh(g1, opt);
  const std::vector<RouteQuery> queries = swap_queries(g0, 200);
  expect_same_answers(service.route_collect(queries),
                      fresh.route_collect(queries), "rebuild_now");
  const ServiceTelemetry tel = service.snapshot();
  EXPECT_EQ(tel.rebuilds, 1u);
  EXPECT_GT(tel.rebuild_seconds, 0.0);
  // Flat-compile attribution: the TZ kinds report where the rebuild
  // time went (compile seconds over initial build + rebuild, and the
  // current generation's pool footprint).
  EXPECT_GT(tel.flat_compile_seconds, 0.0);
  EXPECT_LT(tel.flat_compile_seconds, tel.rebuild_seconds + 10.0);
  EXPECT_GT(tel.flat_pool_bytes, 0u);
  EXPECT_EQ(tel.flat_pool_bytes, pkg->flat_stats.pool_bytes);
  EXPECT_EQ(pkg->flat_stats.pool_bytes, pkg->flat->pool_bytes());
}

TEST(ChurnDriver, CompletesAllCyclesAndReportsSwapTelemetry) {
  Rng grng(111);
  const Graph g0 = make_workload(GraphFamily::kRingOfCliques, 240, grng);
  const RouteServiceOptions opt = swap_options(SchemeKind::kTZDirect, 4);
  RouteService service(g0, opt);
  SchemeManager manager(service);

  Rng trng(112);
  std::vector<RouteQuery> traffic =
      make_traffic(g0, WorkloadKind::kHotspot, 4000, trng);
  attach_exact_distances(g0, traffic);  // stale after churn: must be stripped

  DriverOptions dopt;
  dopt.batch_size = 256;
  ChurnOptions copt;
  copt.cycles = 3;
  copt.seed = 113;
  const ChurnReport report =
      run_closed_loop_churn(service, manager, traffic, dopt, copt);

  EXPECT_EQ(report.swaps, 3u);
  EXPECT_EQ(report.driver.queries, traffic.size());
  EXPECT_EQ(report.driver.delivered, traffic.size());
  // Stretch was stripped: stale exact distances must not leak into the
  // churn report.
  EXPECT_EQ(report.driver.stretch.count, 0u);
  EXPECT_GT(report.rebuild_seconds, 0.0);
  // Compile attribution covers this run's rebuilds and stays a slice of
  // the total rebuild time.
  EXPECT_GT(report.flat_compile_seconds, 0.0);
  EXPECT_LE(report.flat_compile_seconds, report.rebuild_seconds);
  EXPECT_TRUE(is_connected(report.final_graph));

  // The service now serves the final topology: byte-equal to a fresh
  // build on report.final_graph.
  RouteService fresh(report.final_graph, opt);
  const std::vector<RouteQuery> probe = swap_queries(g0, 300);
  expect_same_answers(service.route_collect(probe), fresh.route_collect(probe),
                      "final generation");
  const ServiceTelemetry tel = service.snapshot();
  EXPECT_EQ(tel.swaps, 3u);
  // Driver-side straddle detection encloses the service's window, so the
  // per-run count dominates the service-lifetime counter (fresh service:
  // lifetime == this run).
  EXPECT_GE(report.straddled_batches, tel.straddled_batches);
}

TEST(ChurnDriver, RejectsSerialVerification) {
  Rng grng(121);
  const Graph g = make_workload(GraphFamily::kErdosRenyi, 120, grng);
  RouteService service(g, swap_options(SchemeKind::kTZDirect, 2));
  SchemeManager manager(service);
  Rng trng(122);
  const std::vector<RouteQuery> traffic =
      make_traffic(g, WorkloadKind::kUniform, 100, trng);
  DriverOptions dopt;
  dopt.verify_against_serial = true;
  EXPECT_THROW(run_closed_loop_churn(service, manager, traffic, dopt, {}),
               std::exception);
}

}  // namespace
}  // namespace croute
