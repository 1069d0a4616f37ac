// Tests for src/obs/: log-bucket histogram accuracy against the exact
// sorted-sample percentiles, lock-free recording under concurrency (the
// CI TSan job runs this binary), the trace ring's tear-safe snapshots,
// the Prometheus/JSON/Chrome exporters, snapshot/delta semantics, and
// the service-level integration — metrics vs telemetry consistency, the
// any-thread `delivered <= queries` snapshot invariant, queue-wait
// separation in the driver report, and the rebuild trace spans summing
// to the telemetry's preprocessing attribution.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "graph/delta.hpp"
#include "graph/generators.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/hot_swap.hpp"
#include "service/route_service.hpp"
#include "service/workload.hpp"
#include "sim/experiment.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"

namespace croute {
namespace {

// --- LogHistogram --------------------------------------------------------

TEST(LogHistogram, BucketIndexEdges) {
  using H = obs::LogHistogram;
  // Non-positive / NaN / subnormal → underflow bucket.
  EXPECT_EQ(H::bucket_index(0.0), 0u);
  EXPECT_EQ(H::bucket_index(-3.0), 0u);
  EXPECT_EQ(H::bucket_index(std::nan("")), 0u);
  EXPECT_EQ(H::bucket_index(1e-320), 0u);
  // Below range → underflow; at/above top → overflow.
  EXPECT_EQ(H::bucket_index(std::ldexp(1.0, H::kMinExp) / 2), 0u);
  EXPECT_EQ(H::bucket_index(std::ldexp(1.0, H::kMaxExp)), H::kBuckets - 1);
  EXPECT_EQ(H::bucket_index(1e30), H::kBuckets - 1);
  // First in-range bucket starts at 2^kMinExp.
  EXPECT_EQ(H::bucket_index(std::ldexp(1.0, H::kMinExp)), 1u);
  // 1.0 = 2^0 with sub-bucket 0.
  const std::uint32_t one =
      1 + H::kSubBuckets * static_cast<std::uint32_t>(-H::kMinExp);
  EXPECT_EQ(H::bucket_index(1.0), one);
  EXPECT_EQ(H::bucket_index(1.24), one);
  EXPECT_EQ(H::bucket_index(1.25), one + 1);
  EXPECT_EQ(H::bucket_index(1.75), one + 3);
  EXPECT_EQ(H::bucket_index(1.999), one + 3);
  EXPECT_EQ(H::bucket_index(2.0), one + 4);
}

TEST(LogHistogram, EveryValueLandsBelowItsBucketUpper) {
  using H = obs::LogHistogram;
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform over the whole in-range span.
    const double e =
        H::kMinExp + rng.next_double() * (H::kMaxExp - H::kMinExp);
    const double v = std::pow(2.0, e);
    const std::uint32_t b = H::bucket_index(v);
    ASSERT_GT(b, 0u);
    ASSERT_LT(b, H::kBuckets - 1);
    const double upper = H::bucket_upper(b);
    const double lower = b == 1 ? std::ldexp(1.0, H::kMinExp)
                                : H::bucket_upper(b - 1);
    EXPECT_LT(v, upper);
    EXPECT_GE(v, lower);
    // Log buckets: a bucket's upper/lower ratio is exactly 1.25 (or less
    // at the octave seam), the bound behind the percentile guarantee.
    EXPECT_LE(upper / lower, 1.25 + 1e-12);
  }
}

// The headline accuracy contract: histogram percentiles match the exact
// nearest-rank percentile over the sorted samples to within one bucket's
// relative error. percentile() returns the containing bucket's upper
// edge, so hist >= exact and hist <= exact * 1.25.
TEST(LogHistogram, PercentilesMatchSortedGroundTruthWithinOneBucket) {
  obs::LogHistogram hist(1);
  Rng rng(11);
  std::vector<double> samples;
  samples.reserve(50000);
  for (int i = 0; i < 50000; ++i) {
    // A latency-shaped mixture: a tight body plus a heavy tail.
    double v = 0.5 + 10.0 * rng.next_double();
    if (rng.next_double() < 0.05) v *= 50.0 + 1000.0 * rng.next_double();
    samples.push_back(v);
    hist.record(0, v);
  }
  std::sort(samples.begin(), samples.end());
  const obs::HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, samples.size());
  for (const double q : {50.0, 90.0, 95.0, 99.0, 99.9}) {
    const double exact = percentile_sorted(samples, q);
    const double approx = snap.percentile(q);
    EXPECT_GE(approx, exact) << "q=" << q;
    EXPECT_LE(approx, exact * 1.2501) << "q=" << q;
  }
  // The fixed-point sum tracks the true sum to its x256 resolution.
  double true_sum = 0;
  for (const double v : samples) true_sum += v;
  EXPECT_NEAR(snap.sum, true_sum,
              static_cast<double>(samples.size()) / 256.0 + 1.0);
}

TEST(LogHistogram, RecordNMatchesRepeatedRecord) {
  obs::LogHistogram a(1), b(1);
  for (int i = 0; i < 100; ++i) a.record(0, 3.7);
  b.record_n(0, 3.7, 100);
  const auto sa = a.snapshot(), sb = b.snapshot();
  EXPECT_EQ(sa.buckets, sb.buckets);
  EXPECT_EQ(sa.count, sb.count);
  EXPECT_DOUBLE_EQ(sa.sum, sb.sum);
}

// Concurrent recorders on distinct shards, merged exactly. Doubles as
// the TSan workload for the record/snapshot paths.
TEST(LogHistogram, ConcurrentShardedRecordingMergesExactly) {
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kPerThread = 50000;
  obs::LogHistogram hist(kThreads);
  obs::Counter counter(kThreads);
  std::vector<std::thread> threads;
  for (unsigned w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(100 + w);
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        hist.record(w, 1.0 + rng.next_double() * 1000.0);
        counter.add(w);
        if ((i & 1023) == 0) {
          // Concurrent snapshots must observe a monotone prefix.
          const obs::HistogramSnapshot s = hist.snapshot();
          EXPECT_LE(s.count, kThreads * kPerThread);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(hist.snapshot().count, kThreads * kPerThread);
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

// --- TraceRecorder -------------------------------------------------------

TEST(TraceRecorder, RecordsAndOrdersSpans) {
  obs::TraceRecorder trace(64);
  {
    obs::TraceRecorder::Span outer(&trace, "outer", "test");
    outer.arg("answer", 42.0);
    obs::TraceRecorder::Span inner(&trace, "inner", "test");
  }  // inner records before outer (destruction order)
  trace.record_complete("retro", "test", 1.0, 2.0);
  const std::vector<obs::TraceEvent> events = trace.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_STREQ(events[0].name, "inner");
  EXPECT_STREQ(events[1].name, "outer");
  EXPECT_STREQ(events[2].name, "retro");
  ASSERT_EQ(events[1].num_args, 1u);
  EXPECT_STREQ(events[1].arg_name[0], "answer");
  EXPECT_DOUBLE_EQ(events[1].arg_value[0], 42.0);
  EXPECT_GE(events[1].dur_us, events[0].dur_us);  // outer encloses inner
  EXPECT_EQ(trace.dropped(), 0u);
}

TEST(TraceRecorder, NullRecorderSpanIsNoOp) {
  obs::TraceRecorder::Span span(nullptr, "ghost", "test");
  span.arg("k", 1.0);
  span.finish();  // must not crash
}

TEST(TraceRecorder, RingWrapKeepsNewestAndCountsDropped) {
  obs::TraceRecorder trace(8);
  for (int i = 0; i < 20; ++i) {
    trace.record_complete("e", "test", static_cast<double>(i), 1.0);
  }
  EXPECT_EQ(trace.total(), 20u);
  EXPECT_EQ(trace.dropped(), 12u);
  const auto events = trace.events();
  ASSERT_EQ(events.size(), 8u);
  // The retained spans are the newest eight, oldest first.
  for (int i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(events[i].ts_us, static_cast<double>(12 + i));
  }
}

TEST(TraceRecorder, ConcurrentRecordingIsTearSafe) {
  obs::TraceRecorder trace(256);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 3; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < 20000; ++i) {
        trace.record_complete(w == 0 ? "a" : w == 1 ? "b" : "c", "test",
                              static_cast<double>(i), 1.0);
      }
    });
  }
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const obs::TraceEvent& e : trace.events()) {
        // A torn read would surface as a mismatched name/cat pair.
        ASSERT_TRUE(e.name != nullptr);
        ASSERT_STREQ(e.cat, "test");
      }
    }
  });
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(trace.total(), 3u * 20000u);
}

// --- Exporters -----------------------------------------------------------

TEST(Export, PrometheusFormatAndLabelSplicing) {
  obs::MetricRegistry reg;
  reg.counter("test_total{scheme=\"tz\"}", "labeled counter").inc(5);
  reg.gauge("test_gauge", "a gauge").set(2.5);
  obs::LogHistogram& h = reg.histogram("test_us", "a histogram");
  h.record(0, 1.0);
  h.record(0, 1e30);  // overflow bucket → +Inf line
  const std::string prom =
      obs::to_prometheus(obs::snapshot_metrics(reg));
  EXPECT_NE(prom.find("# TYPE test_total counter\n"), std::string::npos);
  EXPECT_NE(prom.find("test_total{scheme=\"tz\"} 5\n"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE test_gauge gauge\n"), std::string::npos);
  EXPECT_NE(prom.find("test_gauge 2.5\n"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE test_us histogram\n"), std::string::npos);
  EXPECT_NE(prom.find("test_us_bucket{le=\"+Inf\"} 2\n"), std::string::npos);
  EXPECT_NE(prom.find("test_us_count 2\n"), std::string::npos);
  // Cumulative buckets: every non-Inf count <= the +Inf count, and the
  // bucket holding 1.0 already counts it.
  EXPECT_NE(prom.find("_bucket{le=\"1.25\"} 1\n"), std::string::npos);
}

TEST(Export, JsonIsParseableShape) {
  obs::MetricRegistry reg;
  reg.counter("c_total", "c").inc(3);
  reg.histogram("h_us", "h").record(0, 2.0);
  const std::string json = obs::to_json(obs::snapshot_metrics(reg));
  EXPECT_NE(json.find("\"c_total\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
}

TEST(Export, DeltaSubtractsCountersAndHistograms) {
  obs::MetricRegistry reg;
  obs::Counter& c = reg.counter("c_total", "c");
  obs::LogHistogram& h = reg.histogram("h_us", "h");
  c.inc(10);
  h.record(0, 5.0);
  const obs::MetricsSnapshot before = obs::snapshot_metrics(reg);
  c.inc(7);
  h.record(0, 5.0);
  h.record(0, 500.0);
  const obs::MetricsSnapshot delta =
      obs::metrics_delta(obs::snapshot_metrics(reg), before);
  EXPECT_EQ(delta.find_counter("c_total")->value, 7u);
  const auto* dh = delta.find_histogram("h_us");
  ASSERT_NE(dh, nullptr);
  EXPECT_EQ(dh->hist.count, 2u);
  EXPECT_NEAR(dh->hist.sum, 505.0, 0.1);
}

TEST(Export, ChromeTraceIsWellFormed) {
  obs::TraceRecorder trace(16);
  {
    obs::TraceRecorder::Span span(&trace, "phase", "cat");
    span.arg("n", 3.0);
  }
  const std::string json = obs::to_chrome_trace(trace.events());
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"phase\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"n\":3"), std::string::npos);
}

// --- Service integration -------------------------------------------------

RouteServiceOptions small_opts(unsigned threads = 2) {
  RouteServiceOptions opt;
  opt.scheme = SchemeKind::kTZDirect;
  opt.threads = threads;
  opt.k = 2;
  opt.seed = 5;
  return opt;
}

TEST(ServiceObs, MetricsAgreeWithTelemetry) {
  Rng grng(21);
  const Graph g = make_workload(GraphFamily::kErdosRenyi, 400, grng);
  RouteService service(g, small_opts());
  ASSERT_NE(service.metrics_registry(), nullptr);
  Rng trng(22);
  const auto traffic = make_traffic(g, WorkloadKind::kUniform, 3000, trng);
  DriverOptions dopt;
  dopt.batch_size = 256;
  run_closed_loop(service, traffic, dopt);
  service.route_one(traffic.front());

  const ServiceTelemetry tel = service.snapshot();
  const obs::MetricsSnapshot snap =
      obs::snapshot_metrics(*service.metrics_registry());
  EXPECT_EQ(snap.find_counter("croute_queries_total{scheme=\"tz\"}")->value,
            tel.queries);
  EXPECT_EQ(
      snap.find_counter("croute_delivered_total{scheme=\"tz\"}")->value,
      tel.delivered);
  EXPECT_EQ(snap.find_counter("croute_batches_total")->value, tel.batches);
  const auto* lat = snap.find_histogram("croute_query_latency_us");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->hist.count, tel.queries);
  const auto* wait = snap.find_histogram("croute_queue_wait_us");
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->hist.count, tel.queries - 1);  // route_one has no wait
  const auto* batch_h = snap.find_histogram("croute_batch_service_us");
  ASSERT_NE(batch_h, nullptr);
  EXPECT_EQ(batch_h->hist.count, tel.batches);
}

TEST(ServiceObs, MetricsOffDisablesRegistryAndCostsNothing) {
  Rng grng(23);
  const Graph g = make_workload(GraphFamily::kErdosRenyi, 200, grng);
  RouteServiceOptions opt = small_opts(1);
  opt.metrics = false;
  RouteService service(g, opt);
  EXPECT_EQ(service.metrics_registry(), nullptr);
  EXPECT_EQ(service.trace_recorder(), nullptr);
  Rng trng(24);
  const auto traffic = make_traffic(g, WorkloadKind::kUniform, 500, trng);
  const auto answers = service.route_collect(traffic);
  EXPECT_EQ(answers.size(), traffic.size());
  EXPECT_EQ(service.snapshot().queries, traffic.size());
}

// The satellite invariant: snapshot() from ANY thread, while batches are
// in flight, never observes delivered > queries (per the shard write
// order queries→delivered(release) and read order delivered(acquire)→
// queries).
TEST(ServiceObs, ConcurrentSnapshotNeverSeesDeliveredAboveQueries) {
  Rng grng(25);
  const Graph g = make_workload(GraphFamily::kErdosRenyi, 300, grng);
  RouteService service(g, small_opts(2));
  Rng trng(26);
  const auto traffic = make_traffic(g, WorkloadKind::kUniform, 2000, trng);

  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const ServiceTelemetry t = service.snapshot();
      ASSERT_LE(t.delivered, t.queries);
    }
  });
  std::thread prober([&] {
    while (!stop.load(std::memory_order_acquire)) {
      service.route_one(traffic[1]);
    }
  });
  for (int round = 0; round < 20; ++round) service.route_collect(traffic);
  stop.store(true, std::memory_order_release);
  snapshotter.join();
  prober.join();
  const ServiceTelemetry t = service.snapshot();
  EXPECT_LE(t.delivered, t.queries);
  EXPECT_GE(t.queries, 20u * traffic.size());
}

TEST(ServiceObs, QueueWaitIsSeparateFromServiceTime) {
  Rng grng(27);
  const Graph g = make_workload(GraphFamily::kErdosRenyi, 300, grng);
  RouteService service(g, small_opts(2));
  Rng trng(28);
  const auto traffic = make_traffic(g, WorkloadKind::kUniform, 4000, trng);
  DriverOptions dopt;
  dopt.batch_size = 2000;
  const DriverReport r = run_closed_loop(service, traffic, dopt);
  // Every query carries both fields; percentiles are populated and the
  // wait distribution is not just a copy of the latency one (waits grow
  // with queue depth; amortized batched service times do not).
  EXPECT_GT(r.latency_p99_us, 0);
  EXPECT_GT(r.queue_wait_p99_us, 0);
  EXPECT_GE(r.queue_wait_p99_us, r.queue_wait_p50_us);
  // route_one never waits in a queue.
  EXPECT_DOUBLE_EQ(service.route_one(traffic[0]).queue_wait_us, 0.0);
}

TEST(ServiceObs, OnBatchHookFires) {
  Rng grng(29);
  const Graph g = make_workload(GraphFamily::kErdosRenyi, 200, grng);
  RouteService service(g, small_opts(1));
  Rng trng(30);
  const auto traffic = make_traffic(g, WorkloadKind::kUniform, 1000, trng);
  DriverOptions dopt;
  dopt.batch_size = 100;
  std::uint64_t calls = 0, last = 0;
  dopt.on_batch = [&](std::uint64_t batches_done) {
    ++calls;
    last = batches_done;
  };
  run_closed_loop(service, traffic, dopt);
  EXPECT_EQ(calls, 10u);
  EXPECT_EQ(last, 10u);
}

// The acceptance criterion: after a SchemeManager rebuild, the trace's
// "rebuild.tz" spans sum to the telemetry's incremental-preprocess
// attribution (same stats, same accounting — the tolerance covers only
// float rounding, not a second clock).
TEST(ServiceObs, RebuildTraceSpansSumToTelemetryAttribution) {
  Rng grng(31);
  const Graph g = make_workload(GraphFamily::kErdosRenyi, 400, grng);
  RouteService service(g, small_opts(2));
  SchemeManager manager(service);
  Rng drng(32);
  // Localized churn (as in test_incremental_rebuild) so the delta-aware
  // path is taken rather than falling back to a full preprocessing.
  DeltaOptions localized{0.01, 4.0, 0.005, 0.005};
  manager.rebuild_now(perturb_graph(g, drng, localized),
                      RebuildMode::kIncremental);

  const ServiceTelemetry tel = service.snapshot();
  ASSERT_EQ(tel.incremental_rebuilds, 1u);
  ASSERT_GT(tel.incremental_preprocess_seconds, 0);
  ASSERT_NE(service.trace_recorder(), nullptr);
  double tz_span_s = 0;
  bool saw_rebuild = false, saw_publish = false;
  const std::vector<obs::TraceEvent> events =
      service.trace_recorder()->events();
  const obs::TraceEvent* sweep = nullptr;
  for (const obs::TraceEvent& e : events) {
    if (std::string(e.cat) == "rebuild.tz") tz_span_s += e.dur_us / 1e6;
    if (std::string(e.name) == "rebuild") saw_rebuild = true;
    if (std::string(e.name) == "publish_flip") saw_publish = true;
    if (std::string(e.name) == "cluster_sweep") sweep = &e;
  }
  EXPECT_TRUE(saw_rebuild);
  EXPECT_TRUE(saw_publish);
  EXPECT_NEAR(tz_span_s, tel.incremental_preprocess_seconds,
              0.1 * tel.incremental_preprocess_seconds + 1e-6);

  // The sweep's branch children lie inside cluster_sweep and account for
  // its duration.
  ASSERT_NE(sweep, nullptr);
  double children_us = 0;
  int children = 0;
  for (const obs::TraceEvent& e : events) {
    if (std::string(e.cat) != "rebuild.sweep") continue;
    ++children;
    children_us += e.dur_us;
    EXPECT_GE(e.ts_us, sweep->ts_us) << e.name;
    EXPECT_LE(e.ts_us + e.dur_us, sweep->ts_us + sweep->dur_us + 1e-3)
        << e.name;
  }
  EXPECT_GT(children, 0);
  EXPECT_NEAR(children_us, sweep->dur_us, 0.1 * sweep->dur_us);
}

TEST(ServiceObs, BatchEngineOccupancySampling) {
  FlatBatchStats stats;
  EXPECT_DOUBLE_EQ(stats.occupancy(), 0.0);  // nothing sampled
  Rng grng(33);
  const Graph g = make_workload(GraphFamily::kErdosRenyi, 300, grng);
  RouteServiceOptions opt = small_opts(1);
  opt.batch_group = 8;
  RouteService service(g, opt);
  Rng trng(34);
  // Enough queries that the 1-in-64 generation sampler fires.
  const auto traffic = make_traffic(g, WorkloadKind::kUniform, 20000, trng);
  service.route_collect(traffic);
  const obs::MetricsSnapshot snap =
      obs::snapshot_metrics(*service.metrics_registry());
  double occupancy = -1, searches = -1;
  for (const auto& gauge : snap.gauges) {
    if (gauge.name == "croute_batch_lane_occupancy") occupancy = gauge.value;
    if (gauge.name == "croute_batch_searches_per_query") {
      searches = gauge.value;
    }
  }
  ASSERT_GE(occupancy, 0.0);
  EXPECT_GT(occupancy, 0.0);  // sampled generations did useful work
  EXPECT_LE(occupancy, 1.0);  // never more slots useful than issued
  // k = 2: a direct query that misses rule 0 probes its level-0 label
  // entry in B(s) before the top-level entry resolves with no search.
  EXPECT_GT(searches, 0.0);
}

}  // namespace
}  // namespace croute
