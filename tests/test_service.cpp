// Tests for src/service/: the persistent ThreadPool, the sharded
// RouteService (correctness against the single-threaded sim/ adapters,
// determinism across thread counts), the shared CLI parser, the traffic
// generators, and the closed-loop driver. The multi-thread stress cases
// double as the ThreadSanitizer workload in CI.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "graph/dijkstra.hpp"
#include "reference_walk.hpp"
#include "service/cli.hpp"
#include "service/route_service.hpp"
#include "service/workload.hpp"
#include "sim/experiment.hpp"
#include "util/parallel.hpp"

namespace croute {
namespace {

// --- ThreadPool ----------------------------------------------------------

TEST(ThreadPool, SubmitRunsEveryTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&](unsigned worker) {
      EXPECT_LT(worker, 4u);
      ran.fetch_add(1);
    });
  }
  pool.wait();
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, WaitOnIdlePoolReturns) {
  ThreadPool pool(2);
  pool.wait();  // nothing queued: must not block
}

TEST(ThreadPool, ForEachCoversEveryIndexOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.for_each(hits.size(),
                [&](std::uint64_t i, unsigned) { hits[i].fetch_add(1); }, 7);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ForEachReusableAcrossBatches) {
  ThreadPool pool(2);
  for (int round = 0; round < 5; ++round) {
    std::atomic<int> sum{0};
    pool.for_each(50, [&](std::uint64_t i, unsigned) {
      sum.fetch_add(static_cast<int>(i));
    });
    EXPECT_EQ(sum.load(), 49 * 50 / 2);
  }
}

TEST(ThreadPool, ForEachPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.for_each(100,
                    [&](std::uint64_t i, unsigned) {
                      if (i == 41) throw std::runtime_error("boom");
                    }),
      std::runtime_error);
  // The pool stays usable afterwards.
  std::atomic<int> ran{0};
  pool.for_each(10, [&](std::uint64_t, unsigned) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 10);
}

TEST(ThreadPool, ReentrantForEachRejectedFromAnyTask) {
  // A for_each dispatched from inside a pool task (whether submitted via
  // submit() or for_each()) would deadlock a busy pool; it must throw
  // instead of hanging.
  ThreadPool pool(2);
  std::atomic<int> rejected{0};
  for (int i = 0; i < 4; ++i) {
    pool.submit([&](unsigned) {
      try {
        pool.for_each(10, [](std::uint64_t, unsigned) {});
      } catch (const std::exception&) {
        rejected.fetch_add(1);
      }
    });
  }
  pool.wait();
  EXPECT_EQ(rejected.load(), 4);
}

TEST(ThreadPool, SingleWorkerRunsInline) {
  ThreadPool pool(1);
  std::vector<int> order;
  pool.for_each(10, [&](std::uint64_t i, unsigned worker) {
    EXPECT_EQ(worker, 0u);
    order.push_back(static_cast<int>(i));
  });
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

// --- RouteService correctness -------------------------------------------

struct ServiceFixture {
  Graph g;
  std::vector<PairSample> pairs;

  explicit ServiceFixture(GraphFamily family = GraphFamily::kErdosRenyi,
                          VertexId n = 300, std::uint64_t seed = 11) {
    Rng rng(seed);
    g = make_workload(family, n, rng);
    Rng prng(seed + 1);
    pairs = sample_pairs(g, 400, prng);
  }

  std::vector<RouteQuery> queries() const {
    std::vector<RouteQuery> q;
    q.reserve(pairs.size());
    for (const auto& p : pairs) q.push_back({p.s, p.t, p.exact});
    return q;
  }
};

RouteServiceOptions service_options(SchemeKind kind, unsigned threads,
                                    bool record_paths = true) {
  RouteServiceOptions opt;
  opt.scheme = kind;
  opt.threads = threads;
  opt.k = 3;
  opt.seed = 99;
  opt.record_paths = record_paths;
  return opt;
}

// Every answer must equal the sim/ reference walk over the same
// preprocessing (same seed).
TEST(RouteService, MatchesSingleThreadedSimAdapters) {
  const ServiceFixture fx;
  const std::vector<RouteQuery> queries = fx.queries();
  for (const SchemeKind kind :
       {SchemeKind::kTZDirect, SchemeKind::kTZHandshake}) {
    const RouteServiceOptions opt = service_options(kind, 4);
    RouteService service(fx.g, opt);
    const std::vector<RouteAnswer> answers = service.route_collect(queries);
    const ReferenceWalk ref = reference_walk(fx.g, opt, queries);
    for (std::size_t i = 0; i < answers.size(); ++i) {
      ASSERT_TRUE(same_route(answers[i], ref.answers[i]))
          << scheme_name(kind) << " pair " << i;
      EXPECT_TRUE(answers[i].delivered());
    }
  }
}

TEST(RouteService, DeterministicAcrossThreadCounts) {
  const ServiceFixture fx;
  const std::vector<RouteQuery> queries = fx.queries();
  for (const SchemeKind kind :
       {SchemeKind::kTZDirect, SchemeKind::kTZHandshake}) {
    // The reference service must stay alive: answers' paths are views
    // into its arenas.
    std::unique_ptr<RouteService> ref_service;
    std::vector<RouteAnswer> reference;
    for (const unsigned threads : {1u, 2u, 3u, 8u}) {
      auto service =
          std::make_unique<RouteService>(fx.g, service_options(kind, threads));
      std::vector<RouteAnswer> answers = service->route_collect(queries);
      ASSERT_EQ(answers.size(), queries.size());
      if (reference.empty()) {
        reference = std::move(answers);
        ref_service = std::move(service);
        continue;
      }
      for (std::size_t i = 0; i < answers.size(); ++i) {
        ASSERT_TRUE(same_route(reference[i], answers[i]))
            << scheme_name(kind) << " diverges at pair " << i << " with "
            << threads << " threads";
      }
    }
  }
}

// The paper's two guarantees on the served path: stretch ≤ 4k−5 direct
// and ≤ 2k−1 with a handshake (k = 3: 7 and 5). The grid's long
// distances make a handshake that meets in the wrong tree exceed 5; on
// the ER graph almost any tree stays under it.
TEST(RouteService, StretchRespectsSchemeBounds) {
  for (const GraphFamily family :
       {GraphFamily::kErdosRenyi, GraphFamily::kGrid}) {
    const ServiceFixture fx(family);
    RouteService tz(fx.g, service_options(SchemeKind::kTZDirect, 4));
    RouteService handshake(fx.g,
                           service_options(SchemeKind::kTZHandshake, 4));
    const std::vector<RouteAnswer> tz_answers =
        tz.route_collect(fx.queries());
    const std::vector<RouteAnswer> hs_answers =
        handshake.route_collect(fx.queries());
    const double bound = 4.0 * 3 - 5;     // k = 3 direct
    const double hs_bound = 2.0 * 3 - 1;  // k = 3 handshake
    for (std::size_t i = 0; i < tz_answers.size(); ++i) {
      ASSERT_TRUE(tz_answers[i].delivered()) << family_name(family);
      EXPECT_LE(tz_answers[i].stretch, bound + 1e-9) << family_name(family);
      EXPECT_GE(tz_answers[i].stretch, 1.0 - 1e-9);
      ASSERT_TRUE(hs_answers[i].delivered()) << family_name(family);
      EXPECT_LE(hs_answers[i].stretch, hs_bound + 1e-9)
          << family_name(family);
      EXPECT_GE(hs_answers[i].stretch, 1.0 - 1e-9);
    }
  }
}

// The warm-start flag is gone. Flags ignores unknown names, so a script
// still passing it would silently preprocess from scratch; the shared
// parser must refuse it and name the flag that replaced it, in both
// spellings Flags accepts.
TEST(ServiceCli, RemovedWarmFlagFailsLoudly) {
  const char* const joined[] = {"route_service", "--warm=s.bin", "--n=50"};
  const char* const split[] = {"route_service", "--warm", "s.bin"};
  for (const Flags& flags : {Flags(3, joined), Flags(3, split)}) {
    try {
      (void)parse_service_setup(flags);
      FAIL() << "--warm must be rejected at parse";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--artifact-dir"),
                std::string::npos)
          << e.what();
    }
  }
  const char* const plain[] = {"route_service", "--n=50",
                               "--artifact-dir=art"};
  EXPECT_EQ(parse_service_setup(Flags(3, plain)).service.persist.dir, "art");
}

// The service serves the paper's two decisions only. The baseline scheme
// names it once accepted must fail at parse and list what remains.
TEST(ServiceCli, RemovedSchemeKindsFailLoudly) {
  for (const char* removed :
       {"--scheme=cowen", "--scheme=full", "--scheme=full-table"}) {
    const char* const argv[] = {"route_service", removed, "--n=50"};
    try {
      (void)parse_service_setup(Flags(3, argv));
      FAIL() << removed << " must be rejected at parse";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("tz|tz-handshake"),
                std::string::npos)
          << e.what();
    }
  }
  const char* const handshake[] = {"route_service", "--scheme=tz-handshake",
                                   "--n=50"};
  EXPECT_EQ(parse_service_setup(Flags(3, handshake)).service.scheme,
            SchemeKind::kTZHandshake);
}

TEST(RouteService, TelemetryCountsServedQueries) {
  const ServiceFixture fx;
  RouteService service(fx.g, service_options(SchemeKind::kTZDirect, 4));
  const std::vector<RouteQuery> queries = fx.queries();
  service.route_collect(queries);
  service.route_collect(queries);
  const ServiceTelemetry tel = service.snapshot();
  EXPECT_EQ(tel.queries, 2 * queries.size());
  EXPECT_EQ(tel.delivered, 2 * queries.size());
  EXPECT_EQ(tel.batches, 2u);
  EXPECT_GT(tel.total_hops, 0u);
  EXPECT_GT(tel.max_header_bits, 0u);
}

// --- traffic generators --------------------------------------------------

TEST(Workload, GeneratorsAreDeterministic) {
  const ServiceFixture fx;
  for (const WorkloadKind kind :
       {WorkloadKind::kUniform, WorkloadKind::kGravity,
        WorkloadKind::kHotspot, WorkloadKind::kFarPairs}) {
    Rng r1(7), r2(7);
    const auto a = make_traffic(fx.g, kind, 500, r1);
    const auto b = make_traffic(fx.g, kind, 500, r2);
    ASSERT_EQ(a.size(), b.size()) << workload_name(kind);
    ASSERT_EQ(a.size(), 500u) << workload_name(kind);
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].s, b[i].s);
      EXPECT_EQ(a[i].t, b[i].t);
      EXPECT_EQ(a[i].exact, b[i].exact);
      EXPECT_NE(a[i].s, a[i].t);
      EXPECT_LT(a[i].s, fx.g.num_vertices());
      EXPECT_LT(a[i].t, fx.g.num_vertices());
    }
  }
}

TEST(Workload, HotspotConcentratesDestinations) {
  const ServiceFixture fx;
  TrafficOptions opt;
  opt.hotspots = 4;
  opt.hotspot_fraction = 0.9;
  Rng rng(13);
  const auto traffic = make_traffic(fx.g, WorkloadKind::kHotspot, 2000, rng,
                                    opt);
  std::map<VertexId, int> dest_count;
  for (const auto& q : traffic) ++dest_count[q.t];
  std::vector<int> counts;
  for (const auto& [t, c] : dest_count) counts.push_back(c);
  std::sort(counts.rbegin(), counts.rend());
  int top4 = 0;
  for (std::size_t i = 0; i < 4 && i < counts.size(); ++i) top4 += counts[i];
  // ~90% of 2000 queries aim at the 4 hot destinations.
  EXPECT_GT(top4, 1500);
}

TEST(Workload, SourcePoolBoundsDistinctSources) {
  const ServiceFixture fx;
  TrafficOptions opt;
  opt.source_pool = 16;
  Rng rng(17);
  const auto traffic =
      make_traffic(fx.g, WorkloadKind::kUniform, 3000, rng, opt);
  std::set<VertexId> sources;
  for (const auto& q : traffic) sources.insert(q.s);
  EXPECT_LE(sources.size(), 16u);
}

TEST(Workload, GravityFavorsHighDegree) {
  Rng grng(23);
  const Graph g = make_workload(GraphFamily::kBarabasiAlbert, 400, grng);
  Rng rng(29);
  const auto traffic = make_traffic(g, WorkloadKind::kGravity, 4000, rng);
  double endpoint_degree = 0;
  for (const auto& q : traffic) {
    endpoint_degree += g.degree(q.s) + g.degree(q.t);
  }
  endpoint_degree /= 2.0 * traffic.size();
  double mean_degree = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) mean_degree += g.degree(v);
  mean_degree /= g.num_vertices();
  // Degree-weighted endpoints are strictly biased toward hubs; on a BA
  // graph the size-biased mean exceeds the plain mean by a wide margin.
  EXPECT_GT(endpoint_degree, 1.3 * mean_degree);
}

TEST(Workload, FarPairsCarryExactDistancesAndAreFar) {
  const ServiceFixture fx;
  Rng r1(31), r2(31);
  const auto far = make_traffic(fx.g, WorkloadKind::kFarPairs, 400, r1);
  const auto uni = make_traffic(fx.g, WorkloadKind::kUniform, 400, r2);
  double far_mean = 0;
  for (const auto& q : far) {
    ASSERT_GT(q.exact, 0);
    EXPECT_EQ(q.exact, distances_from(fx.g, q.s)[q.t]);
    far_mean += q.exact;
  }
  far_mean /= far.size();
  std::vector<RouteQuery> uni_copy = uni;
  attach_exact_distances(fx.g, uni_copy);
  double uni_mean = 0;
  for (const auto& q : uni_copy) {
    ASSERT_GT(q.exact, 0);
    uni_mean += q.exact;
  }
  uni_mean /= uni_copy.size();
  EXPECT_GT(far_mean, uni_mean);
}

TEST(Workload, AttachExactMatchesSampledPairs) {
  const ServiceFixture fx;
  std::vector<RouteQuery> queries;
  for (const auto& p : fx.pairs) {
    queries.push_back({p.s, p.t, kUnknownDistance});
  }
  attach_exact_distances(fx.g, queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(queries[i].exact, fx.pairs[i].exact) << i;
  }
}

TEST(Workload, AttachExactTreatsZeroAndKnownAsSolved) {
  // exact = 0 is a TRUE distance (s == t), not the unknown sentinel: an
  // attach pass must leave it alone instead of re-running Dijkstra for
  // the pair, and must likewise leave any already-known distance alone.
  const ServiceFixture fx;
  std::vector<RouteQuery> queries;
  queries.push_back({5, 5, 0});                       // known self-distance
  queries.push_back({fx.pairs[0].s, fx.pairs[0].t,    // known (pretend) value
                     1234.5});
  queries.push_back({7, 7, kUnknownDistance});        // unknown self-query
  queries.push_back({fx.pairs[1].s, fx.pairs[1].t, kUnknownDistance});
  attach_exact_distances(fx.g, queries);
  EXPECT_EQ(queries[0].exact, 0.0);
  EXPECT_EQ(queries[1].exact, 1234.5);
  EXPECT_EQ(queries[2].exact, 0.0);  // solved: d(7,7) = 0
  EXPECT_EQ(queries[3].exact, fx.pairs[1].exact);
}

TEST(RouteService, SelfQueriesHaveDefinedAnswers) {
  // s == t must be delivered with 0 hops, 0 length, 0 header bits and
  // stretch exactly 1 — in batches and route_one, for every scheme kind,
  // and the generators' sentinel must never make stretch read as 0.
  const ServiceFixture fx;
  for (const SchemeKind kind :
       {SchemeKind::kTZDirect, SchemeKind::kTZHandshake}) {
    RouteService service(fx.g, service_options(kind, 3));
    std::vector<RouteQuery> queries;
    queries.push_back({4, 4, 0});
    queries.push_back({fx.pairs[0].s, fx.pairs[0].t, fx.pairs[0].exact});
    queries.push_back({9, 9, kUnknownDistance});
    const std::vector<RouteAnswer> answers = service.route_collect(queries);
    for (const std::size_t i : {std::size_t{0}, std::size_t{2}}) {
      EXPECT_TRUE(answers[i].delivered()) << scheme_name(kind);
      EXPECT_EQ(answers[i].hops, 0u);
      EXPECT_EQ(answers[i].length, 0.0);
      EXPECT_EQ(answers[i].header_bits, 0u);
      EXPECT_EQ(answers[i].stretch, 1.0);
      ASSERT_EQ(answers[i].path.size(), 1u);
      EXPECT_EQ(answers[i].path[0], queries[i].s);
    }
    EXPECT_GT(answers[1].hops, 0u);
    const RouteAnswer one = service.route_one({4, 4, 0});
    EXPECT_TRUE(one.delivered());
    EXPECT_EQ(one.hops, 0u);
    EXPECT_EQ(one.stretch, 1.0);
  }
}

TEST(RouteService, RouteOneLandsInTelemetry) {
  const ServiceFixture fx;
  RouteService service(fx.g, service_options(SchemeKind::kTZDirect, 2,
                                             /*record_paths=*/false));
  const std::vector<RouteQuery> queries = fx.queries();
  service.route_collect(queries);
  const ServiceTelemetry before = service.snapshot();
  EXPECT_EQ(before.queries, queries.size());
  for (int i = 0; i < 5; ++i) service.route_one(queries[i]);
  const ServiceTelemetry after = service.snapshot();
  EXPECT_EQ(after.queries, queries.size() + 5);
  EXPECT_EQ(after.delivered, queries.size() + 5);
  EXPECT_GE(after.total_hops, before.total_hops);
  EXPECT_EQ(after.batches, 1u);
}

// --- closed-loop driver --------------------------------------------------

TEST(Driver, ClosedLoopReportAddsUp) {
  const ServiceFixture fx;
  RouteService service(fx.g, service_options(SchemeKind::kTZDirect, 4,
                                             /*record_paths=*/false));
  const std::vector<RouteQuery> traffic = fx.queries();
  DriverOptions opt;
  opt.batch_size = 64;
  opt.verify_against_serial = true;
  const DriverReport r = run_closed_loop(service, traffic, opt);
  EXPECT_EQ(r.queries, traffic.size());
  EXPECT_EQ(r.delivered, traffic.size());
  EXPECT_TRUE(r.all_delivered());
  EXPECT_EQ(r.mismatches, 0u);
  EXPECT_GT(r.qps, 0);
  EXPECT_GT(r.mean_hops, 0);
  EXPECT_GE(r.latency_p99_us, r.latency_p95_us);
  EXPECT_GE(r.latency_p95_us, r.latency_p50_us);
  EXPECT_EQ(r.stretch.count, traffic.size());
  EXPECT_GE(r.stretch.min, 1.0 - 1e-9);
  EXPECT_LE(r.stretch.max, 4.0 * 3 - 5 + 1e-9);
}

// --- multi-thread stress (the TSan workload) -----------------------------

TEST(ServiceStress, AllSchemesManyBatchesConcurrently) {
  // Ring of cliques exercises the landmark detour paths; 8 workers over
  // repeated batches is the shape TSan watches for data races.
  ServiceFixture fx(GraphFamily::kRingOfCliques, 240, 41);
  const std::vector<RouteQuery> queries = fx.queries();
  for (const SchemeKind kind :
       {SchemeKind::kTZDirect, SchemeKind::kTZHandshake}) {
    RouteService service(fx.g,
                         service_options(kind, 8, /*record_paths=*/false));
    std::vector<RouteAnswer> first;
    for (int round = 0; round < 3; ++round) {
      std::vector<RouteAnswer> answers = service.route_collect(queries);
      std::uint64_t delivered = 0;
      for (const auto& a : answers) delivered += a.delivered() ? 1 : 0;
      EXPECT_EQ(delivered, answers.size()) << scheme_name(kind);
      if (round == 0) {
        first = std::move(answers);
      } else {
        for (std::size_t i = 0; i < answers.size(); ++i) {
          ASSERT_TRUE(same_route(first[i], answers[i]))
              << scheme_name(kind) << " round " << round << " pair " << i;
        }
      }
    }
    const ServiceTelemetry tel = service.snapshot();
    EXPECT_EQ(tel.queries, 3 * queries.size());
  }
}

}  // namespace
}  // namespace croute
