/// \file bench_micro_decision.cpp
/// \brief Experiment micro — O(1) decision costs, reference vs flat layout.
///
/// Claim (SPAA'01): routing decisions are constant time — one table
/// lookup plus an O(1) interval test. What that costs in practice is a
/// memory-layout question, and this bench tracks it across PRs: the
/// reference TZRouter's pointer-rich structures (per-vertex VertexTable
/// binary search, ClusterDirectory probe, TreeLabel-allocating prepare;
/// the "legacy" rows) against the flat structure-of-arrays view of
/// core/flat_scheme.hpp (Eytzinger-ordered key slices).
///
/// "decision" is the full source decision: prepare (rule 0 + label scan)
/// followed by the first per-hop step — exactly the per-packet work the
/// paper bounds. The headline `flat_speedup_eytzinger` scalar is
/// legacy_decision_ns / flat_eytzinger_decision_ns.
///
/// The `route/*` rows measure the *serving* op — prepare plus the whole
/// per-hop walk to delivery — scalar versus the batch-pipelined engine
/// (core/flat_batch.hpp, --batch-group lanes interleaved in a software
/// pipeline). The walk is where pipelining pays: one query's hop chain is
/// strictly load-dependent (the out-of-order core cannot overlap hop i+1
/// with hop i), but G queries' chains interleaved keep G misses in
/// flight. The single prepare+step rows gain little from batching on
/// wide cores — consecutive scalar iterations already overlap — which is
/// why the batched trajectory numbers are route-level. Both paths make
/// identical decisions; `route_decisions_per_query` converts ns/query to
/// ns/decision.
///
/// Flags: --n (default 10000) --k --pairs --iters --seed
///        --batch-group (pipeline depth of the batched rows; default 32 =
///        the sweep's best config on the reference container, where the
///        interleaved AVX2 kernel wants two full 8-lane groups in flight)
///        --json out.json (JsonReport trajectory file)
/// Baseline decisions (Cowen step, full-table next-hop, oracle query,
/// bare tree decide) are additionally measured when n <= 4096 (their
/// preprocessing is quadratic-ish; the default n skips them).

#include <cstdio>
#include <cstdint>
#include <string>
#include <vector>

#include "baseline/cowen.hpp"
#include "baseline/full_table.hpp"
#include "bench_common.hpp"
#include "core/flat_batch.hpp"
#include "core/flat_scheme.hpp"
#include "core/tz_router.hpp"
#include "core/tz_scheme.hpp"
#include "oracle/distance_oracle.hpp"
#include "sim/experiment.hpp"
#include "util/flags.hpp"
#include "util/random.hpp"

namespace {

using namespace croute;

/// Accumulator the optimizer cannot remove.
volatile std::uint64_t g_sink = 0;

/// Runs fn(i) for iters iterations (after a 1/8 warmup) and returns the
/// mean cost in nanoseconds.
template <typename Fn>
double measure_ns(std::uint64_t iters, Fn&& fn) {
  std::uint64_t sink = 0;
  for (std::uint64_t i = 0; i < iters / 8; ++i) sink += fn(i);
  bench::Stopwatch sw;
  for (std::uint64_t i = 0; i < iters; ++i) sink += fn(i);
  const double ns = sw.seconds() * 1e9 / static_cast<double>(iters);
  g_sink = g_sink + sink;
  return ns;
}

}  // namespace

int main(int argc, char** argv) try {
  const Flags flags(argc, argv);
  const auto n = static_cast<VertexId>(flags.get_int("n", 10000));
  const auto k = static_cast<std::uint32_t>(flags.get_int("k", 3));
  const auto num_pairs =
      static_cast<std::uint32_t>(flags.get_int("pairs", 512));
  const auto iters = static_cast<std::uint64_t>(
      flags.get_int("iters", 200000));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  const std::uint32_t batch_group =
      bench::parse_batch_group(flags.get_string("batch-group", "32"));
  const std::string json_path = flags.get_string("json", "");

  bench::banner("micro",
                "O(1) decision time: flat SoA layout vs reference structures",
                ("family=er n=" + std::to_string(n) +
                 " k=" + std::to_string(k) +
                 " pairs=" + std::to_string(num_pairs))
                    .c_str());

  Rng grng(seed);
  const Graph g = make_workload(GraphFamily::kErdosRenyi, n, grng);
  TZSchemeOptions opt;
  opt.pre.k = k;
  Rng srng(seed + 1);
  bench::Stopwatch build_watch;
  const TZScheme scheme(g, opt, srng);
  const double preprocess_s = build_watch.seconds();

  build_watch.reset();
  const FlatScheme flat_eytz(scheme);
  const double compile_s = build_watch.seconds();

  const TZRouter router(scheme);
  const FlatRouter router_eytz(flat_eytz);

  Rng prng(seed + 2);
  const std::vector<PairSample> pairs = sample_pairs(g, num_pairs, prng);
  const auto pair_at = [&](std::uint64_t i) -> const PairSample& {
    return pairs[i % pairs.size()];
  };
  // Per-hop step fixture: headers in the top-level tree (every vertex
  // holds an entry for a top-level center).
  const VertexId top_root =
      scheme.preprocessing().effective_pivot(k - 1, pairs[0].t);
  const TZHeader top_legacy{pairs[0].t, top_root,
                            scheme.table(pairs[0].t)
                                .own_label(*scheme.lookup(pairs[0].t,
                                                          top_root))};
  const FlatHeader top_eytz = [&] {
    FlatHeader h = router_eytz.prepare(pairs[0].s, pairs[0].t);
    const std::uint32_t idx = flat_eytz.find(pairs[0].t, top_root);
    h.tree_root = top_root;
    h.dfs_in = flat_eytz.record(idx).dfs_in;
    h.light = flat_eytz.own_light_ports(idx).data();
    h.light_len =
        static_cast<std::uint32_t>(flat_eytz.own_light_ports(idx).size());
    return h;
  }();

  bench::JsonReport report;
  report.set("experiment", std::string("micro_decision"))
      .set("family", std::string("er"))
      .set("n", std::uint64_t{n})
      .set("k", std::uint64_t{k})
      .set("pairs", std::uint64_t{num_pairs})
      .set("iters", iters)
      .set("seed", seed)
      .set("batch_group", std::uint64_t{batch_group})
      .set("preprocess_s", preprocess_s)
      .set("flat_compile_s", compile_s);
  bench::add_host_metadata(report);

  std::printf("%-28s %12s\n", "operation", "ns/op");
  const auto run = [&](const char* name, double ns) {
    std::printf("%-28s %12.1f\n", name, ns);
    report.add_row("ops").set("name", std::string(name)).set("ns_per_op", ns);
    return ns;
  };

  // --- source-side prepare ------------------------------------------------
  const double prep_legacy = run("prepare/legacy", measure_ns(iters, [&](std::uint64_t i) {
    const PairSample& p = pair_at(i);
    const TZHeader h = router.prepare(p.s, scheme.label(p.t));
    return std::uint64_t{h.tree_root} + h.tree_label.dfs_in;
  }));
  run("prepare/flat-eytzinger", measure_ns(iters, [&](std::uint64_t i) {
    const PairSample& p = pair_at(i);
    const FlatHeader h = router_eytz.prepare(p.s, p.t);
    return std::uint64_t{h.tree_root} + h.dfs_in;
  }));

  // --- handshake prepare --------------------------------------------------
  run("handshake/legacy", measure_ns(iters, [&](std::uint64_t i) {
    const PairSample& p = pair_at(i);
    const TZHeader h = router.prepare_handshake(p.s, p.t);
    return std::uint64_t{h.tree_root} + h.tree_label.dfs_in;
  }));

  // --- per-hop step (top-level tree: every vertex has the entry) ----------
  const double step_legacy = run("step/legacy-binsearch", measure_ns(iters, [&](std::uint64_t i) {
    const VertexId v = pair_at(i).s;
    const TreeDecision d = router.step(v, top_legacy);
    return std::uint64_t{d.port} + d.deliver;
  }));
  run("step/flat-eytzinger", measure_ns(iters, [&](std::uint64_t i) {
    const VertexId v = pair_at(i).s;
    const TreeDecision d = router_eytz.step(v, top_eytz);
    return std::uint64_t{d.port} + d.deliver;
  }));

  // --- the full source decision: prepare + first step ---------------------
  const double dec_legacy = run("decision/legacy", measure_ns(iters, [&](std::uint64_t i) {
    const PairSample& p = pair_at(i);
    const TZHeader h = router.prepare(p.s, scheme.label(p.t));
    const TreeDecision d = router.step(p.s, h);
    return std::uint64_t{h.tree_root} + d.port;
  }));
  const double dec_eytz =
      run("decision/flat-eytzinger", measure_ns(iters, [&](std::uint64_t i) {
        const PairSample& p = pair_at(i);
        const FlatHeader h = router_eytz.prepare(p.s, p.t);
        const TreeDecision d = router_eytz.step(p.s, h);
        return std::uint64_t{h.tree_root} + d.port;
      }));

  // --- the serving op: prepare + the full per-hop walk to delivery,
  // scalar vs batch-pipelined. Per-hop decisions are load-dependent
  // within one query, so this is where interleaving G queries' descents
  // actually buys memory-level parallelism. ---------------------------------
  const std::uint32_t max_hops = default_hop_budget(g);
  double route_decisions = 1;  // avg per-hop decisions per routed query
  const auto measure_route_scalar = [&](const FlatRouter& r) {
    const std::uint64_t rounds =
        std::max<std::uint64_t>(1, iters / (pairs.size() * 8));
    std::uint64_t sink = 0, steps = 0, queries = 0;
    const auto sweep = [&]() {
      for (const PairSample& p : pairs) {
        const FlatHeader h = r.prepare(p.s, p.t);
        VertexId here = p.s;
        std::uint32_t hops = 0;
        while (true) {
          const TreeDecision d = r.step(here, h);
          ++steps;
          if (d.deliver) break;
          here = g.arc(here, d.port).head;
          if (++hops >= max_hops) break;
        }
        sink += here;
        ++queries;
      }
    };
    sweep();  // warmup (counts reset below)
    steps = queries = 0;
    bench::Stopwatch sw;
    for (std::uint64_t r2 = 0; r2 < rounds; ++r2) sweep();
    const double ns = sw.seconds() * 1e9 / static_cast<double>(queries);
    route_decisions =
        static_cast<double>(steps) / static_cast<double>(queries);
    g_sink = g_sink + sink;
    return ns;
  };
  const auto measure_route_batched = [&](std::uint32_t group) {
    FlatBatchTarget target;
    target.graph = &g;
    target.kind = FlatServeKind::kTZDirect;
    target.flat = &flat_eytz;
    FlatBatchEngine engine(group);
    std::vector<FlatBatchQuery> qs(pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      qs[i] = FlatBatchQuery{pairs[i].s, pairs[i].t,
                             flat_eytz.label(pairs[i].t)};
    }
    std::vector<FlatBatchAnswer> as(pairs.size());
    const std::uint64_t rounds =
        std::max<std::uint64_t>(1, iters / (pairs.size() * 8));
    engine.route(target, qs, as);  // warmup
    bench::Stopwatch sw;
    std::uint64_t sink = 0;
    for (std::uint64_t r = 0; r < rounds; ++r) {
      engine.route(target, qs, as);
      sink += as[r % as.size()].hops;
    }
    const double ns = sw.seconds() * 1e9 /
                      (static_cast<double>(rounds) *
                       static_cast<double>(pairs.size()));
    g_sink = g_sink + sink;
    return ns;
  };
  const double route_eytz =
      run("route/flat-eytzinger", measure_route_scalar(router_eytz));
  const double route_eytz_batched = run(
      "route/flat-eytzinger-batched", measure_route_batched(batch_group));
  // Bunch key-slice searches per routed query (lower-level B(v) probes;
  // top-level lookups need none, the rule-0 directory probe is not
  // counted), from one untimed pass with every generation sampled.
  const double searches_per_query = [&] {
    FlatBatchTarget target;
    target.graph = &g;
    target.kind = FlatServeKind::kTZDirect;
    target.flat = &flat_eytz;
    FlatBatchEngine engine(batch_group);
    engine.set_stats_sample_every(1);
    std::vector<FlatBatchQuery> qs(pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      qs[i] = FlatBatchQuery{pairs[i].s, pairs[i].t,
                             flat_eytz.label(pairs[i].t)};
    }
    std::vector<FlatBatchAnswer> as(pairs.size());
    engine.route(target, qs, as);
    return engine.stats().searches_per_query();
  }();

  // --- G × ISA sweep: the batched route on every SIMD implementation
  // this binary+CPU supports, at each lane-group size. One row per
  // config; the best (by the gated Eytzinger route) lands in the
  // sweep_best_* scalars so the trajectory records which config the
  // headline should run at. --------------------------------------------------
  const double per_dec_sweep =
      route_decisions > 0 ? 1.0 / route_decisions : 0;
  const simd::Isa initial_isa = simd::selected();
  std::string best_isa;
  std::uint32_t best_group = 0;
  double best_eytz_ns = 0;
  for (const simd::Isa isa : simd::compiled()) {
    if (!simd::available(isa)) continue;
    simd::force(isa);
    for (const std::uint32_t grp : {16u, 32u, 64u}) {
      const double eytz_ns = measure_route_batched(grp);
      char name[64];
      std::snprintf(name, sizeof name, "route/batched-%s-G%u",
                    simd::isa_name(isa), grp);
      std::printf("%-28s %12.1f\n", name, eytz_ns);
      report.add_row("simd_sweep")
          .set("isa", std::string(simd::isa_name(isa)))
          .set("batch_group", std::uint64_t{grp})
          .set("eytzinger_route_ns", eytz_ns)
          .set("eytzinger_route_decision_ns", eytz_ns * per_dec_sweep);
      if (best_group == 0 || eytz_ns < best_eytz_ns) {
        best_isa = simd::isa_name(isa);
        best_group = grp;
        best_eytz_ns = eytz_ns;
      }
    }
  }
  simd::force(initial_isa);
  report.set("sweep_best_isa", best_isa)
      .set("sweep_best_batch_group", std::uint64_t{best_group})
      .set("sweep_best_eytzinger_route_ns", best_eytz_ns)
      .set("sweep_best_eytzinger_route_decision_ns",
           best_eytz_ns * per_dec_sweep);

  // --- baselines (preprocessing too heavy beyond a few thousand) ----------
  if (n <= 4096) {
    Rng orng(seed + 3), crng(seed + 4);
    DistanceOracle::Options oopt;
    oopt.k = k;
    const DistanceOracle oracle(g, oopt, orng);
    const CowenScheme cowen(g, crng);
    const FullTableScheme full(g);
    run("oracle/query", measure_ns(iters, [&](std::uint64_t i) {
      const PairSample& p = pair_at(i);
      return static_cast<std::uint64_t>(oracle.query(p.s, p.t));
    }));
    run("cowen/step", measure_ns(iters, [&](std::uint64_t i) {
      const PairSample& p = pair_at(i);
      const auto d = cowen.step(p.s, cowen.label(p.t));
      return std::uint64_t{d.port} + d.deliver;
    }));
    run("full/next-hop", measure_ns(iters, [&](std::uint64_t i) {
      const PairSample& p = pair_at(i);
      return std::uint64_t{full.next_hop(p.s, p.t)};
    }));
  }

  const double speedup_eytz = dec_eytz > 0 ? dec_legacy / dec_eytz : 0;
  const double batched_speedup_eytz =
      route_eytz_batched > 0 ? route_eytz / route_eytz_batched : 0;
  const double per_dec =
      route_decisions > 0 ? 1.0 / route_decisions : 0;
  std::printf("----------------------------------------------\n");
  std::printf("legacy decision %.1f ns, flat %.1f ns: %.2fx\n", dec_legacy,
              dec_eytz, speedup_eytz);
  std::printf("route (%.1f decisions/query), batched G=%u: %.1f -> %.1f "
              "ns/query (%.2fx, %.1f -> %.1f ns/decision)\n",
              route_decisions, batch_group, route_eytz, route_eytz_batched,
              batched_speedup_eytz, route_eytz * per_dec,
              route_eytz_batched * per_dec);
  std::printf("batched bunch searches per query: %.2f\n",
              searches_per_query);
  report.set("legacy_decision_ns", dec_legacy)
      .set("flat_eytzinger_decision_ns", dec_eytz)
      .set("flat_eytzinger_route_ns", route_eytz)
      .set("flat_batched_eytzinger_route_ns", route_eytz_batched)
      .set("route_decisions_per_query", route_decisions)
      .set("batched_searches_per_query", searches_per_query)
      .set("flat_eytzinger_route_decision_ns", route_eytz * per_dec)
      .set("flat_batched_eytzinger_route_decision_ns",
           route_eytz_batched * per_dec)
      .set("flat_speedup_eytzinger", speedup_eytz)
      .set("batched_speedup_eytzinger", batched_speedup_eytz)
      .set("legacy_prepare_ns", prep_legacy)
      .set("legacy_step_ns", step_legacy);
  if (!json_path.empty()) {
    report.write(json_path);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
