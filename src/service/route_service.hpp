/// \file route_service.hpp
/// \brief RouteService: a concurrent, sharded route-query engine with
/// RCU-style scheme hot-swap.
///
/// The Thorup–Zwick scheme exists to answer routing queries with tiny
/// per-node state; this layer turns the single-packet `sim/` harness into
/// a serving engine in the sense of "On Compact Routing for the Internet"
/// (Krioukov et al.): an immutable scheme generation (SchemePackage),
/// preprocessed once (or recovered from the artifact store, src/persist/),
/// answering batched route queries from a persistent pool of worker
/// threads — and replaceable under live traffic when the topology churns.
///
/// Concurrency model — *immutable generations, sharded queries*:
///  - every query-path structure (tables, directories, labels, the graph
///    CSR) lives in one refcounted, immutable SchemePackage
///    (scheme_package.hpp);
///  - the service holds the current package in a tiny pin/flip cell.
///    route() pins ONE generation at batch start and serves the whole
///    batch from it; route_one pins its own. publish() flips the pointer
///    (RCU-style): queries never synchronize (the pin is once per batch,
///    two refcount ops), writers never wait for readers, and a retired
///    generation is destroyed when its last in-flight batch drains;
///  - a batch is sharded dynamically over the pool's MPMC queue in chunks;
///    answer i is written to pre-sized slot i, so results are byte-equal
///    for every thread count and queue interleaving — and, because the
///    batch pins one generation, every batch is served entirely before or
///    entirely after any swap, never half-and-half;
///  - per-worker scratch (telemetry shards, path arenas) is indexed by
///    worker id; the hot path takes no lock, touches no shared cache line,
///    and performs **no heap allocation per query**.
///
/// Hot swap: build a package on a background thread (see
/// service/hot_swap.hpp for the manager that pairs rebuilds with graph
/// deltas) and publish() it. The only invariant publish enforces is a
/// fixed vertex space (same n — churn is link churn) and an unchanged
/// scheme kind. Swap telemetry records the flip count and the *blackout*:
/// the maximum wall time of a batch that straddled a swap, the number the
/// distributed-construction literature (planar compact routing) uses to
/// price recomputation under traffic.
///
/// Serving path — *one of each mode*: both scheme kinds (the paper's
/// direct and handshake decisions) serve from the pooled
/// structure-of-arrays state compiled at package build (FlatScheme /
/// FlatRouter, core/flat_scheme.hpp), and every route() batch runs
/// through per-worker FlatBatchEngines (core/flat_batch.hpp):
/// batch_group queries' descents interleaved in a software pipeline,
/// each lane's next dependent load prefetched while the other lanes
/// compute, so one worker keeps G cache misses in flight instead of one.
/// route_one keeps a scalar walk over the same pooled state — it must
/// stay allocation-free and callable from any thread, so it cannot
/// borrow per-worker engine scratch. Both walks run under one hop budget
/// (default_hop_budget, sim/packet.hpp). Answers are byte-identical to
/// the paper's reference walk (sim/) on every ISA, group size and thread
/// count (tests/test_simd.cpp).
///
/// Batched prepare: each batch is processed grouped by destination and a
/// per-batch memo resolves every distinct destination's pooled label once
/// (hotspot and gravity traffic repeat destinations heavily — the label
/// cache lines stay hot and the per-query prepare starts from the
/// resolved view). The memo's label views point into the batch's pinned
/// package, so a concurrent swap can never dangle them.
///
/// Telemetry: every answer records status, walk length, hops, header bits
/// and — when the query carries its exact distance — stretch; the service
/// aggregates totals per worker (plus a dedicated atomic slot for
/// route_one, which may run concurrently) and merges on demand, together
/// with the swap/rebuild counters above.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/flat_batch.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/scheme_package.hpp"
#include "util/annotations.hpp"
#include "util/assert.hpp"
#include "util/parallel.hpp"

namespace croute {

namespace persist {
class ArtifactStore;  // service/route_service.cpp owns the full type
}  // namespace persist

/// RouteQuery::exact value meaning "true distance unknown". Distances in
/// croute are nonnegative (weights are positive), so any negative value
/// is unambiguous — unlike 0, which is the *true* distance of an s == t
/// self-query.
inline constexpr Weight kUnknownDistance = -1.0;

/// One route query. \p exact is the true shortest-path distance when the
/// caller knows it (workload generators attach it); kUnknownDistance
/// (any negative value) means unknown, in which case the answer's
/// stretch is reported as 0. exact == 0 is a real distance: it asserts
/// s == t.
struct RouteQuery {
  VertexId s = kNoVertex;
  VertexId t = kNoVertex;
  Weight exact = kUnknownDistance;
};

/// Transport-neutral route request — the request type of the serving API.
/// The destination is either a vertex id (`t`; the in-process form) or a
/// pre-encoded routing label (`label` + `label_bits`; the wire form:
/// Thorup–Zwick's labeled routing makes the label itself the address, so
/// a socket front-end forwards the label bytes it received and the
/// service decodes each distinct destination once per batch into its
/// destination memo). `label` empty ⇒ `t` addresses the destination;
/// `label` non-empty ⇒ `t` is ignored (leave it kNoVertex) and the
/// label's leading id field names the destination.
///
/// Label-addressed requests require the kTZDirect scheme and are
/// validated strictly: a truncated, trailing-garbage or out-of-range
/// label makes route() throw std::invalid_argument for the whole batch.
/// Front-ends serving untrusted bytes (src/net/) pre-validate each frame
/// and reject it alone instead.
struct RouteRequest {
  VertexId s = kNoVertex;
  VertexId t = kNoVertex;  ///< destination vertex (vertex-addressed form)
  /// LabelCodec bit stream packed LSB-first into bytes (to_bytes /
  /// from_bytes, util/bit_io.hpp). Not owned: must stay alive for the
  /// route() call serving it.
  std::span<const std::uint8_t> label;
  std::uint32_t label_bits = 0;     ///< exact bit length of `label`
  Weight exact = kUnknownDistance;  ///< true distance when known (stretch)
};

/// A guarded, non-owning view of an answer's recorded path. Behaves like
/// (and converts to) std::span<const VertexId>, but every access checks a
/// generation stamp against the owning arena's current generation: using
/// a view that a later route()/route_one call invalidated
/// fails loudly (std::logic_error via CROUTE_ASSERT) instead of silently
/// reading reused arena memory. The check is always on — CI runs Release
/// (NDEBUG) builds, where CROUTE_DCHECK would vanish — and costs one
/// relaxed load per access on an opt-in diagnostics path (record_paths).
class PathView {
 public:
  PathView() = default;
  PathView(const VertexId* data, std::size_t size,
           const std::atomic<std::uint64_t>* gen,
           std::uint64_t stamp) noexcept
      : data_(data), size_(size), gen_(gen), stamp_(stamp) {}

  const VertexId* data() const { check(); return data_; }
  std::size_t size() const { check(); return size_; }
  bool empty() const { check(); return size_ == 0; }
  const VertexId* begin() const { check(); return data_; }
  const VertexId* end() const { check(); return data_ + size_; }
  const VertexId& operator[](std::size_t i) const { check(); return data_[i]; }
  const VertexId& front() const { check(); return data_[0]; }
  const VertexId& back() const { check(); return data_[size_ - 1]; }
  operator std::span<const VertexId>() const {
    check();
    return {data_, size_};
  }

 private:
  void check() const {
    CROUTE_ASSERT(gen_ == nullptr ||
                      gen_->load(std::memory_order_relaxed) == stamp_,
                  "stale RouteAnswer::path: a later route call reused the "
                  "arena this view points into — copy paths out before the "
                  "next call");
  }

  const VertexId* data_ = nullptr;
  std::size_t size_ = 0;
  const std::atomic<std::uint64_t>* gen_ = nullptr;
  std::uint64_t stamp_ = 0;
};

/// One served answer. Everything except \p latency_us is a pure function
/// of the query and the scheme generation — identical across runs and
/// thread counts.
///
/// Self-queries (s == t) have the defined answer: delivered, length 0,
/// 0 hops, 0 header bits (no packet leaves the source), stretch 1.
///
/// \p path is a non-owning view into a service-owned arena (per-worker
/// arenas for batches, a separate dedicated arena for route_one). A
/// route() call invalidates all previously returned views; a
/// route_one call invalidates only the previous route_one answer's view
/// (the closed-loop driver interleaves route_one verification with live
/// batch answers and relies on this). All views die with the service;
/// copy a path out to keep it longer.
struct RouteAnswer {
  RouteStatus status = RouteStatus::kHopLimit;
  Weight length = 0;            ///< weighted length of the traversed walk
  std::uint32_t hops = 0;       ///< edges traversed
  std::uint64_t header_bits = 0;  ///< wire size of the carried header
  double stretch = 0;           ///< length / exact (delivered, exact known)
  /// Service time at the worker (telemetry). route() reports the query's
  /// amortized share of its pipeline generation's wall time — G queries
  /// run interleaved, so per-lane wall time would charge every query for
  /// all G (bench rows mark this latency_metric "group_amortized");
  /// route_one measures its own wall time.
  ///
  /// latency_us is pure SERVICE time: the clock starts when a worker
  /// dequeues the query's chunk, not when route() was called. The
  /// time a query spent parked in the pool's queue behind other chunks is
  /// reported separately as queue_wait_us — summing the two gives the
  /// sojourn a client would observe. Earlier versions conflated them for
  /// grouped destination batches; keep them separate when aggregating.
  double latency_us = 0;
  /// Queue wait (µs): batch dispatch → the owning worker dequeued this
  /// query's chunk (every query in a chunk shares the value). Zero for
  /// route_one (no pool dispatch).
  double queue_wait_us = 0;
  PathView path;  ///< visited vertices (record_paths); stamp-guarded view

  CROUTE_HOT bool delivered() const noexcept {
    return status == RouteStatus::kDelivered;
  }
};

/// Deterministic comparison ignoring telemetry (latency). Paths compare
/// by content, not by storage. Not noexcept: comparing a stale path view
/// propagates its std::logic_error instead of terminating.
bool same_route(const RouteAnswer& a, const RouteAnswer& b);

/// Receiver of served answers. route() fills its per-batch answer scratch
/// and hands the whole span over in one callback on the calling (driver)
/// thread; the answers — and any path views inside them — are valid
/// during the callback and until the next route()/route_one call, so a
/// sink that needs them longer copies them out. \p first is the index of
/// answers[0]'s request (always 0 today; the parameter leaves room for
/// chunked delivery without an API break).
class RouteSink {
 public:
  virtual ~RouteSink() = default;
  virtual void on_answers(std::uint32_t first,
                          std::span<const RouteAnswer> answers) = 0;
};

/// Aggregate counters since construction, merged over worker shards, the
/// route_one slot, and the swap/rebuild counters.
struct ServiceTelemetry {
  std::uint64_t queries = 0;    ///< batch + route_one answers served
  std::uint64_t delivered = 0;
  std::uint64_t batches = 0;
  std::uint64_t total_hops = 0;
  std::uint64_t max_header_bits = 0;
  double busy_seconds = 0;  ///< summed worker time inside query handling
  // --- hot-swap seam ---
  std::uint64_t swaps = 0;     ///< published generation flips
  std::uint64_t rebuilds = 0;  ///< background/foreground package rebuilds
  double rebuild_seconds = 0;  ///< summed package build wall time
  std::uint64_t straddled_batches = 0;  ///< batches overlapping a swap
  /// Blackout: max wall time (µs) of one batch that straddled a swap —
  /// the worst interruption any client observed during a flip.
  double max_swap_blackout_us = 0;
  // --- flat-compile attribution ---
  /// Summed FlatScheme compile wall time over every build this service
  /// performed (initial + rebuilds) — the slice of rebuild_seconds the
  /// flat view costs.
  double flat_compile_seconds = 0;
  /// Pool bytes of the CURRENT generation's flat view.
  std::uint64_t flat_pool_bytes = 0;
  // --- incremental-rebuild attribution (delta-aware rebuilds only) ---
  /// Rebuilds that ran the delta-aware path (reused SPT subtrees).
  std::uint64_t incremental_rebuilds = 0;
  /// Summed cluster-tree counts over those rebuilds: reused verbatim vs
  /// total — their ratio is the reuse ratio the churn rows report.
  std::uint64_t clusters_reused = 0;
  std::uint64_t clusters_total = 0;
  /// Summed wall time of the delta-aware TZ preprocessing (the slice of
  /// rebuild_seconds the incremental path spent; complements
  /// flat_compile_seconds in the rebuild attribution).
  double incremental_preprocess_seconds = 0;
  // --- persistence seam (zeros unless options.persist.dir is set) ---
  /// Generations persisted atomically to the artifact store.
  std::uint64_t artifacts_persisted = 0;
  /// Persist attempts that failed (the service kept serving; the disk
  /// copy is one generation stale until the next successful publish).
  std::uint64_t persist_failures = 0;
  /// Backoff retries background rebuilds took before succeeding or
  /// giving up (options.rebuild_retries).
  std::uint64_t rebuild_retries = 0;
};

/// A concurrent route-query engine over immutable scheme generations.
///
/// route() and route_one are externally synchronized against each other
/// only through the per-batch scratch: one *driver* thread calls route()
/// at a time; route_one (record_paths off) is safe from any thread,
/// concurrently with batches AND with publish(). publish() is safe from
/// any thread, and so is snapshot() — shards are
/// relaxed atomics merged with an ordering that keeps delivered <=
/// queries in every snapshot (see snapshot()).
class RouteService {
 public:
  /// Builds the initial package from a value copy of \p g (the service
  /// does not keep a reference to the caller's graph — generations own
  /// their topology).
  RouteService(const Graph& g, const RouteServiceOptions& options);
  ~RouteService();

  RouteService(const RouteService&) = delete;
  RouteService& operator=(const RouteService&) = delete;

  /// The CURRENT generation's graph. The reference is valid until the
  /// next publish() retires the generation; pin package() to hold it.
  const Graph& graph() const noexcept { return *package()->graph; }
  const RouteServiceOptions& options() const noexcept { return options_; }
  unsigned threads() const noexcept { return pool_->size(); }

  /// Pins the current scheme generation (RCU read). The returned package
  /// stays fully valid for as long as the caller holds the pointer, no
  /// matter how many swaps happen meanwhile. The pin itself copies the
  /// shared_ptr under a tiny mutex — two refcount ops, once per *batch*
  /// (route() pins once and serves every query from the pin), so the
  /// query hot path never touches it.
  CROUTE_HOT SchemePackagePtr package() const {
    CROUTE_LINT_SUPPRESS(hot_path,
                         "RCU pin: two refcount ops under a tiny mutex, once "
                         "per batch / route_one call, never per query; kept a "
                         "mutex (not atomic<shared_ptr>) so TSan can see the "
                         "swap seam");
    std::lock_guard<std::mutex> lock(package_mutex_);
    return package_current_;
  }

  /// Atomically flips the current generation (RCU publish). The package
  /// must cover the same vertex space (same n) and the same scheme kind;
  /// in-flight batches finish on the generation they pinned, and the old
  /// package is destroyed when its last reader drains. Thread-safe.
  void publish(SchemePackagePtr next);

  /// Folds a package rebuild's wall time and flat-compile stats into the
  /// telemetry (called by SchemeManager; exposed for custom rebuild
  /// drivers). Thread-safe.
  void record_rebuild(const SchemePackage& pkg);

  /// Number of publish() flips so far. Thread-safe.
  std::uint64_t swap_count() const noexcept {
    return swap_seq_.load(std::memory_order_acquire);
  }

  /// THE serving entry point. Serves \p requests — vertex-addressed,
  /// label-addressed (wire form), or a mix — and delivers every answer
  /// through \p sink in one callback: answers[i] is the route for
  /// requests[i]. Sharded over the worker pool in destination-grouped
  /// order; deterministic for every thread count; the whole batch is
  /// served from one pinned generation. The socket front-end (src/net/)
  /// and route_collect both funnel here — one pipeline, one set of
  /// invariants. Driver-thread only (one caller at a time; route_one
  /// stays concurrent).
  void route(std::span<const RouteRequest> requests, RouteSink& sink);

  /// Adapter over route(): collects the answers into a vector (the
  /// in-process convenience form; one copy of the answer structs).
  std::vector<RouteAnswer> route_collect(
      std::span<const RouteRequest> requests);
  /// Adapter over route() for vertex-addressed queries (the workload
  /// generators' form).
  std::vector<RouteAnswer> route_collect(std::span<const RouteQuery> queries);

  /// Serves one vertex-addressed query on the calling thread (no pool
  /// dispatch) against the current generation. The answer's path points
  /// into a dedicated arena: it invalidates only the previous route_one
  /// answer's path, never a batch's (see RouteAnswer::path). With
  /// record_paths off this is safe to call concurrently (telemetry lands
  /// in an atomic slot).
  CROUTE_HOT RouteAnswer route_one(const RouteQuery& query) const;

  /// Merged telemetry over all worker shards, the route_one slot, and
  /// the swap counters — a single consistent snapshot, safe from ANY
  /// thread at any time (shards are relaxed atomics; the merge reads
  /// each shard's `delivered` before its `queries` under acquire/release
  /// pairing with the recording order, so `delivered <= queries` holds in
  /// every snapshot even while batches and route_one calls are in
  /// flight). Values are monotone-consistent: a concurrent snapshot
  /// observes some prefix of each shard's stream, exact once recording
  /// quiesces.
  ServiceTelemetry snapshot() const;

  /// The service's metric registry (histograms, counters, gauges — see
  /// the croute_* names in README "Observability"), or nullptr when
  /// options.metrics is off. Snapshot via obs::snapshot_metrics; safe
  /// concurrently with serving.
  const obs::MetricRegistry* metrics_registry() const noexcept {
    return metrics_.get();
  }

  /// Mutable registry for co-located front-ends (src/net/ registers its
  /// croute_net_* instruments here so one scrape covers serving and
  /// transport). Register before concurrent use, per MetricRegistry's
  /// contract; nullptr when options.metrics is off.
  obs::MetricRegistry* mutable_metrics_registry() noexcept {
    return metrics_.get();
  }

  /// The rebuild/swap trace recorder, or nullptr when options.metrics is
  /// off. SchemeManager records rebuild phase spans here; the closed-loop
  /// driver records swap blackouts. Export via obs::to_chrome_trace.
  obs::TraceRecorder* trace_recorder() const noexcept { return trace_.get(); }

  /// Bits of routing state the current generation stores at vertex v.
  std::uint64_t table_bits(VertexId v) const;

  /// The current generation's TZ scheme (stats, IO); never null. Valid
  /// until the next publish(); pin package() to keep.
  const TZScheme* tz_scheme() const noexcept { return package()->tz.get(); }

  /// The current generation's flat view; never null. Same lifetime
  /// contract as tz_scheme().
  const FlatScheme* flat_scheme() const noexcept {
    return package()->flat.get();
  }

  // --- persistence seam (options.persist.dir) ------------------------------

  /// Whether construction recovered its initial generation from the
  /// artifact store instead of preprocessing. recovery_note() says what
  /// happened either way (which generation served, or why every
  /// candidate was rejected and a fresh build ran).
  bool recovered_from_artifact() const noexcept { return recovered_; }
  /// Store generation number of the recovered artifact (0 when none).
  std::uint64_t recovered_generation() const noexcept {
    return recovered_generation_;
  }
  const std::string& recovery_note() const noexcept { return recovery_note_; }

  /// The artifact store, or nullptr when options.persist.dir is empty.
  /// Exposed for drivers that need publish/recover details (the CLI's
  /// --verify-recovery, tests); lives as long as the service.
  persist::ArtifactStore* artifact_store() const noexcept {
    return store_.get();
  }

  /// Persists the CURRENT generation to the artifact store (atomic
  /// publish + retention). Returns success; failures are counted in the
  /// telemetry and never throw — a full disk must not take down serving.
  /// No-op (false) without a store. Thread-safe; called by SchemeManager
  /// after every published rebuild.
  bool persist_current();

  /// Counts one rebuild backoff retry (SchemeManager's retry loop).
  void note_rebuild_retry() noexcept {
    rebuild_retries_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  struct Shard;  ///< per-worker telemetry scratch, cache-line padded

  /// Per-worker batched-serving scratch: the pipelined engine plus the
  /// chunk-local query/answer staging it runs over. Reused across
  /// batches (allocation-free once warm).
  struct BatchScratch {
    FlatBatchEngine engine;
    std::vector<FlatBatchQuery> queries;
    std::vector<FlatBatchAnswer> answers;

    explicit BatchScratch(std::uint32_t group) : engine(group) {}
  };

  static constexpr std::uint32_t kNoRequest = ~std::uint32_t{0};

  /// Per-batch memo for one distinct destination: its slice of the
  /// processing order and, for kTZDirect, the resolved label —
  /// either the generation's pooled label (vertex-addressed) or the
  /// client's wire label decoded once into the batch arenas
  /// (label-addressed). A batch mixing both forms for the same t serves
  /// every query to t from whichever form arrived FIRST; for a genuine
  /// label the two resolve identical views, so answers don't differ.
  struct DestMemo {
    VertexId t = kNoVertex;
    std::uint32_t begin = 0;  ///< first slot in order_
    std::uint32_t count = 0;
    std::span<const FlatScheme::LabelEntryView> label;
    /// Light-port pool the label's light_off fields index: nullptr = the
    /// pinned generation's own pool, else the batch's decoded-label
    /// arena (lab_ports_).
    const Port* light_pool = nullptr;
    /// Request whose wire label resolves this memo (first label-addressed
    /// occurrence), or kNoRequest for pooled resolution.
    std::uint32_t lab_first = kNoRequest;
    /// Slice of lab_entries_ this memo decoded into (label-addressed).
    std::uint32_t lab_begin = 0;
    std::uint32_t lab_count = 0;
  };

  /// Where a batch answer's path landed: worker arena + slice.
  struct PathRef {
    std::uint32_t worker = 0;
    std::uint32_t off = 0;
    std::uint32_t len = 0;
  };

  /// route_one's scalar walk: serves one query against \p pkg, writing
  /// the path (if any) into \p path_out.
  CROUTE_HOT RouteAnswer serve(const SchemePackage& pkg,
                               const RouteQuery& query,
                               std::vector<VertexId>* path_out) const;

  /// Fills order_ / dest_memos_ / dest_slot_ for this batch over the
  /// resolved \p queries, resolving each distinct destination's label
  /// once: pooled from \p pkg for vertex-addressed destinations, decoded
  /// from the owning request in \p requests into the batch arenas for
  /// label-addressed ones.
  void group_by_destination(const SchemePackage& pkg,
                            std::span<const RouteQuery> queries,
                            std::span<const RouteRequest> requests);

  RouteServiceOptions options_;
  VertexId num_vertices_ = 0;  ///< fixed across swaps (publish enforces)
  std::unique_ptr<ThreadPool> pool_;

  // --- persistence (present iff options.persist.dir) ---
  std::unique_ptr<persist::ArtifactStore> store_;
  bool recovered_ = false;
  std::uint64_t recovered_generation_ = 0;
  std::string recovery_note_;  ///< set once at construction
  std::atomic<std::uint64_t> artifacts_persisted_{0};
  std::atomic<std::uint64_t> persist_failures_{0};
  std::atomic<std::uint64_t> rebuild_retries_{0};

  /// The RCU cell: current generation, flipped by publish(). Guarded by
  /// a mutex rather than std::atomic<shared_ptr>: the critical section
  /// is two pointer-sized ops, entered once per batch / per flip (never
  /// per query), and — unlike libstdc++'s lock-free _Sp_atomic, whose
  /// internal spin bit ThreadSanitizer cannot see — it keeps the swap
  /// seam fully TSan-verifiable (the CI TSan job runs test_hot_swap).
  mutable std::mutex package_mutex_;
  SchemePackagePtr package_current_;
  std::atomic<std::uint64_t> swap_seq_{0};

  // Swap/rebuild telemetry (atomic: publish/record_rebuild may run on a
  // background thread while the driver thread reads snapshot()).
  std::atomic<std::uint64_t> rebuilds_{0};
  std::atomic<double> rebuild_seconds_{0};
  std::atomic<double> flat_compile_seconds_{0};
  std::atomic<std::uint64_t> incremental_rebuilds_{0};
  std::atomic<std::uint64_t> clusters_reused_{0};
  std::atomic<std::uint64_t> clusters_total_{0};
  std::atomic<double> incremental_preprocess_seconds_{0};
  std::atomic<std::uint64_t> straddled_batches_{0};
  std::atomic<double> max_swap_blackout_us_{0};
  std::atomic<std::uint64_t> batches_{0};

  // Dedicated route_one telemetry slot (route_one may run concurrently
  // with batches; worker shards belong to the pool workers alone).
  struct alignas(64) OneSlot {
    std::atomic<std::uint64_t> queries{0};
    std::atomic<std::uint64_t> delivered{0};
    std::atomic<std::uint64_t> total_hops{0};
    std::atomic<std::uint64_t> max_header_bits{0};
    std::atomic<double> busy_seconds{0};
  };
  mutable OneSlot one_slot_;

  /// Per-worker telemetry shards (deque: Shard holds atomics, so it is
  /// neither movable nor copyable — the deque never relocates elements).
  std::deque<Shard> shards_;

  // --- observability (src/obs/), present iff options.metrics ---
  std::unique_ptr<obs::MetricRegistry> metrics_;
  mutable std::unique_ptr<obs::TraceRecorder> trace_;
  // Instrument handles cached at registration (stable — deque-backed).
  // Histograms are sharded pool size + 1; the extra shard belongs to the
  // driver thread / route_one callers.
  obs::LogHistogram* hist_latency_ = nullptr;     ///< croute_query_latency_us
  obs::LogHistogram* hist_queue_wait_ = nullptr;  ///< croute_queue_wait_us
  obs::LogHistogram* hist_batch_ = nullptr;       ///< croute_batch_service_us
  obs::Counter* ctr_queries_ = nullptr;    ///< ..._total{scheme=...}
  obs::Counter* ctr_delivered_ = nullptr;  ///< ..._total{scheme=...}
  obs::Counter* ctr_batches_ = nullptr;
  obs::Counter* ctr_swaps_ = nullptr;
  obs::Counter* ctr_rebuilds_ = nullptr;
  obs::Counter* ctr_straddled_ = nullptr;
  obs::Gauge* gauge_pool_bytes_ = nullptr;
  obs::Gauge* gauge_lane_occupancy_ = nullptr;
  obs::Gauge* gauge_searches_per_query_ = nullptr;
  obs::Gauge* gauge_build_info_ = nullptr;

  // Per-worker path arenas (capacity persists across batches) and the
  // dedicated route_one arena.
  std::vector<std::vector<VertexId>> arenas_;
  mutable std::vector<VertexId> one_arena_;

  // Per-worker pipelined engines.
  std::vector<BatchScratch> batch_scratch_;

  // Reusable per-batch scratch (amortized allocation-free). Touched only
  // by the driver thread inside route() — never by publish() or a
  // background rebuild, so a swap cannot race an in-flight batch here.
  std::vector<std::uint32_t> order_;      ///< destination-grouped indices
  std::vector<PathRef> path_refs_;
  std::vector<DestMemo> dest_memos_;
  std::vector<std::uint32_t> dest_slot_;   ///< t → memo slot (epoch-gated)
  std::vector<std::uint64_t> dest_epoch_;  ///< t → last batch touching it
  std::uint64_t epoch_ = 0;
  std::vector<RouteQuery> resolved_;   ///< requests with t resolved
  std::vector<RouteAnswer> answers_;   ///< per-batch answer scratch
  // Wire-label decode arenas: all label-addressed destinations of the
  // batch decode here once; memo spans are fixed up after every decode
  // lands (the vectors may reallocate while appending).
  std::vector<FlatScheme::LabelEntryView> lab_entries_;
  std::vector<Port> lab_ports_;

  // Path-arena generation stamps (see PathView): bumped when the arenas
  // are reused, so stale views fail loudly instead of reading new data.
  std::atomic<std::uint64_t> batch_path_gen_{0};
  mutable std::atomic<std::uint64_t> one_path_gen_{0};
};

}  // namespace croute
