/// \file route_service.cpp
/// \brief CLI front end for the concurrent route-query engine.
///
/// Spins up a RouteService over a generated (or loaded) graph, then
/// either drives one of the traffic scenarios through it in a closed
/// loop and prints the serving report (throughput, latency percentiles,
/// stretch, space), or — with --listen — serves the wire protocol over
/// TCP until SIGINT/SIGTERM.
///
/// ```
/// ./route_service --scheme=tz --workload=hotspot --threads=4 --seed=7
/// ./route_service --family=ba --n=20000 --scheme=tz-handshake --workload=gravity
/// ./route_service --graph=g.gr --artifact-dir=art --workload=far
/// ./route_service --workload=hotspot --churn=3     # hot-swap under load
/// ./route_service --listen --port=4800             # network serving
/// ```
///
/// Shared flags (parsed by service/cli.hpp, used by every serving
/// binary): --graph | --family --n [--weighted]  --scheme --k --sampling
/// --seed --threads --batch-group --artifact-dir --artifact-retain
/// --rebuild-retries [--no-metrics] --workload --queries --batch
/// --source-pool [--exact]. --artifact-dir is how the service starts
/// from disk: the first run persists its generation there, later runs
/// with the same construction flags recover it.
///
/// Binary-specific flags:
/// --churn=C (run the closed loop under C background rebuild+swap
/// cycles) [--full-rebuild] (full preprocessing per churn rebuild)
/// --metrics-out=FILE (Prometheus text on exit; under --churn rewritten
/// every --metrics-every batches) --trace-out=FILE (Chrome trace JSON)
/// [--verify-recovery] (prove the serving generation matches a fresh
/// build on seeded probes; pair with --artifact-dir)
/// [--listen] (serve the wire protocol instead of driving traffic)
/// --port=P (listen port; 0 = ephemeral, printed) --net-coalesce=N
/// --net-max-pending=N --net-max-connections=N (front-end admission
/// control; see net/server.hpp)
/// env CROUTE_SIMD=generic|avx2|neon forces the SIMD batch kernels

#include <csignal>
#include <cstdio>
#include <string>

#include "net/server.hpp"
#include "obs/export.hpp"
#include "service/cli.hpp"
#include "service/hot_swap.hpp"
#include "service/route_service.hpp"
#include "service/workload.hpp"
#include "simd/simd.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"

namespace {

using namespace croute;

net::NetServer* g_server = nullptr;

void handle_signal(int) {
  if (g_server != nullptr) g_server->stop();
}

/// Network serving mode: blocks on the epoll loop until SIGINT/SIGTERM.
int run_listen_mode(RouteService& service, const Flags& flags) {
  net::NetServerOptions nopt;
  nopt.port = static_cast<std::uint16_t>(flags.get_int("port", 0));
  nopt.coalesce = static_cast<std::uint32_t>(
      flags.get_int("net-coalesce", static_cast<int>(nopt.coalesce)));
  nopt.max_pending = static_cast<std::uint32_t>(
      flags.get_int("net-max-pending", static_cast<int>(nopt.max_pending)));
  nopt.max_connections = static_cast<std::uint32_t>(flags.get_int(
      "net-max-connections", static_cast<int>(nopt.max_connections)));
  net::NetServer server(service, nopt);
  g_server = &server;
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  // The port line is a readiness signal: CI greps for it before
  // connecting, so flush immediately.
  std::printf("listening on 127.0.0.1:%u\n", server.port());
  std::fflush(stdout);
  server.run();
  g_server = nullptr;
  std::printf("net: served %llu queries in %llu frames over %llu "
              "connections\n",
              static_cast<unsigned long long>(server.queries_served()),
              static_cast<unsigned long long>(server.frames_served()),
              static_cast<unsigned long long>(server.connections_accepted()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  try {
    const ServiceSetup setup = parse_service_setup(flags);
    const RouteServiceOptions& opt = setup.service;
    const std::string metrics_out = flags.get_string("metrics-out", "");
    const std::string trace_out = flags.get_string("trace-out", "");
    const auto metrics_every =
        static_cast<std::uint64_t>(flags.get_int("metrics-every", 50));

    Graph g = setup.build_graph();
    std::printf("graph: n=%u m=%llu\n", g.num_vertices(),
                static_cast<unsigned long long>(g.num_edges()));
    RouteService service(g, opt);
    std::printf("service: scheme=%s threads=%u batch-group=%u simd=%s\n",
                scheme_name(opt.scheme), service.threads(), opt.batch_group,
                simd::ops().name);
    if (!opt.persist.dir.empty()) {
      if (service.recovered_from_artifact()) {
        std::printf("persist: recovered generation %llu from %s (%s)\n",
                    static_cast<unsigned long long>(
                        service.recovered_generation()),
                    opt.persist.dir.c_str(), service.recovery_note().c_str());
      } else {
        std::printf("persist: fresh build%s%s\n",
                    service.recovery_note().empty() ? "" : " — ",
                    service.recovery_note().c_str());
      }
    }

    if (flags.get_bool("verify-recovery", false)) {
      // Recovery proof: a service preprocessed from scratch on the same
      // graph and construction options must answer identically to the
      // serving generation (whether that generation was recovered from
      // disk or just built). Diverging answers mean a corrupt or
      // mismatched artifact slipped past verification — fail loudly.
      RouteServiceOptions fresh_opt = opt;
      fresh_opt.persist.dir.clear();
      const RouteService fresh(service.graph(), fresh_opt);
      Rng prng(setup.seed + 4);
      const VertexId n = service.graph().num_vertices();
      const int probes = 4096;
      int mismatches = 0;
      for (int i = 0; i < probes; ++i) {
        RouteQuery q;
        q.s = static_cast<VertexId>(prng.next_below(n));
        q.t = static_cast<VertexId>(prng.next_below(n));
        if (!same_route(service.route_one(q), fresh.route_one(q)))
          ++mismatches;
      }
      std::printf("verify-recovery: matches fresh build on %d probes ... %s\n",
                  probes, mismatches == 0 ? "yes" : "NO");
      if (mismatches != 0) {
        std::fprintf(stderr,
                     "error: serving generation diverges from a fresh "
                     "build on %d/%d probes\n",
                     mismatches, probes);
        return 1;
      }
    }

    if (flags.get_bool("listen", false)) {
      return run_listen_mode(service, flags);
    }

    std::vector<RouteQuery> traffic = setup.build_traffic(g);

    DriverOptions dopt = setup.driver;
    const auto churn_cycles =
        static_cast<std::uint32_t>(flags.get_int("churn", 0));
    // Periodic metrics dump under churn: rewrite the Prometheus file
    // every --metrics-every batches so a scraper (or a watching human)
    // sees the run live, not just its final state.
    if (!metrics_out.empty() && churn_cycles > 0 &&
        service.metrics_registry() != nullptr && metrics_every > 0) {
      dopt.on_batch = [&service, &metrics_out,
                       metrics_every](std::uint64_t batches_done) {
        if (batches_done % metrics_every != 0) return;
        obs::write_text_file(
            metrics_out,
            obs::to_prometheus(
                obs::snapshot_metrics(*service.metrics_registry())));
      };
    }
    DriverReport r;
    if (churn_cycles > 0) {
      SchemeManager manager(service);
      ChurnOptions copt;
      copt.cycles = churn_cycles;
      copt.seed = setup.seed + 3;
      copt.full_rebuild = flags.get_bool("full-rebuild", false);
      const ChurnReport churn =
          run_closed_loop_churn(service, manager, traffic, dopt, copt);
      r = churn.driver;
      std::printf("churn:   %llu hot swaps under load; rebuilds %.3fs "
                  "total (%.3fs flat compile); %llu straddled batches; "
                  "blackout max %.1fus\n",
                  static_cast<unsigned long long>(churn.swaps),
                  churn.rebuild_seconds, churn.flat_compile_seconds,
                  static_cast<unsigned long long>(churn.straddled_batches),
                  churn.max_blackout_us);
      if (churn.incremental_rebuilds > 0) {
        std::printf("         delta-aware: %llu/%llu rebuilds incremental, "
                    "%.1f%% SPT reuse, %.3fs TZ preprocessing\n",
                    static_cast<unsigned long long>(
                        churn.incremental_rebuilds),
                    static_cast<unsigned long long>(churn.swaps),
                    100 * churn.reuse_ratio(),
                    churn.incremental_preprocess_seconds);
      }
    } else {
      r = run_closed_loop(service, traffic, dopt);
    }

    std::printf("traffic: %s, %llu queries in batches of %u\n",
                workload_name(setup.workload),
                static_cast<unsigned long long>(r.queries),
                dopt.batch_size);
    std::printf("served:  %.0f qps, wall %.3fs, delivered %llu/%llu\n",
                r.qps, r.wall_seconds,
                static_cast<unsigned long long>(r.delivered),
                static_cast<unsigned long long>(r.queries));
    std::printf("latency: p50 %.2fus  p95 %.2fus  p99 %.2fus  "
                "(queue wait p99 %.2fus)\n",
                r.latency_p50_us, r.latency_p95_us, r.latency_p99_us,
                r.queue_wait_p99_us);
    if (r.stretch.count > 0) {
      std::printf("stretch: mean %.4f  p99 %.4f  max %.4f (%llu measured)\n",
                  r.stretch.mean, r.stretch.p99, r.stretch.max,
                  static_cast<unsigned long long>(r.stretch.count));
    }
    std::printf("hops:    mean %.2f, max header %llu bits\n", r.mean_hops,
                static_cast<unsigned long long>(r.max_header_bits));

    const ServiceTelemetry tel = service.snapshot();
    std::printf("telemetry: %llu queries over %llu batches, busy %.3fs "
                "across %u workers\n",
                static_cast<unsigned long long>(tel.queries),
                static_cast<unsigned long long>(tel.batches),
                tel.busy_seconds, service.threads());

    // Final exporter dumps (the periodic churn hook may have written an
    // intermediate metrics file already; this is the complete run).
    if (!metrics_out.empty() && service.metrics_registry() != nullptr) {
      obs::write_text_file(
          metrics_out,
          obs::to_prometheus(
              obs::snapshot_metrics(*service.metrics_registry())));
      std::printf("metrics: wrote %s\n", metrics_out.c_str());
    }
    if (!trace_out.empty() && service.trace_recorder() != nullptr) {
      obs::TraceRecorder& trace = *service.trace_recorder();
      obs::write_text_file(trace_out, obs::to_chrome_trace(trace.events()));
      std::printf("trace:   wrote %s (%llu spans%s)\n", trace_out.c_str(),
                  static_cast<unsigned long long>(trace.total()),
                  trace.dropped() > 0 ? ", ring wrapped" : "");
    }
    return r.all_delivered() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
