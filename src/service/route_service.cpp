#include "service/route_service.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "persist/artifact_store.hpp"
#include "simd/simd.hpp"

namespace croute {

namespace {

/// Monotone max over an atomic double (no fetch_max for floats in C++20).
CROUTE_HOT void atomic_fetch_max(std::atomic<double>& target,
                                 double value) noexcept {
  double seen = target.load(std::memory_order_relaxed);
  while (value > seen &&
         !target.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
  }
}

CROUTE_HOT void atomic_fetch_max(std::atomic<std::uint64_t>& target,
                                 std::uint64_t value) noexcept {
  std::uint64_t seen = target.load(std::memory_order_relaxed);
  while (value > seen &&
         !target.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
  }
}

/// Appends one vertex to the (optional) diagnostic path arena. Arenas are
/// caller-owned and keep their high-water capacity across batches, so the
/// append is allocation-free in steady state — and path recording is the
/// opt-in record_paths diagnostic mode in the first place.
CROUTE_HOT inline void record_hop(std::vector<VertexId>* path, VertexId v) {
  if (path == nullptr) return;
  CROUTE_LINT_SUPPRESS(hot_path,
                       "opt-in path recording appends into a caller-owned "
                       "arena that keeps its high-water capacity across "
                       "batches");
  path->push_back(v);
}

/// The hop-by-hop walk of the flat serving path: same contract as
/// Simulator::run (statuses, hop budget, path recording), with every
/// decision taken by FlatRouter::step on the prepared header and the path
/// landing in a caller-owned arena.
CROUTE_HOT void walk(const Graph& g, const FlatRouter& router,
                     const FlatHeader& h, VertexId s, VertexId t,
                     std::vector<VertexId>* path, RouteAnswer& a) {
  const std::uint32_t max_hops = default_hop_budget(g);
  record_hop(path, s);
  VertexId here = s;
  while (true) {
    const TreeDecision d = router.step(here, h);
    if (d.deliver) {
      a.status = here == t ? RouteStatus::kDelivered
                           : RouteStatus::kWrongDeliver;
      return;
    }
    if (d.port >= g.degree(here)) {
      a.status = RouteStatus::kBadPort;
      return;
    }
    const Arc& arc = g.arc(here, d.port);
    a.length += arc.weight;
    ++a.hops;
    here = arc.head;
    record_hop(path, here);
    if (a.hops >= max_hops) {
      a.status = RouteStatus::kHopLimit;
      return;
    }
  }
}

}  // namespace

bool same_route(const RouteAnswer& a, const RouteAnswer& b) {
  return a.status == b.status && a.length == b.length && a.hops == b.hops &&
         a.header_bits == b.header_bits && a.stretch == b.stretch &&
         a.path.size() == b.path.size() &&
         std::equal(a.path.begin(), a.path.end(), b.path.begin());
}

/// Per-worker telemetry scratch. Padded to a cache line so neighboring
/// shards never false-share under concurrent increments. Each shard is
/// written by its owning pool worker alone (relaxed adds, flushed once
/// per chunk on the batched path), so the cells never contend; atomics
/// make them *readable* from any thread — snapshot() merges mid-batch.
/// Write order is queries first, delivered second (release), and
/// snapshot() reads delivered first (acquire): every delivered increment
/// a snapshot observes has its matching queries increment visible too,
/// so `delivered <= queries` holds in every snapshot.
struct alignas(64) RouteService::Shard {
  std::atomic<std::uint64_t> queries{0};
  std::atomic<std::uint64_t> delivered{0};
  std::atomic<std::uint64_t> total_hops{0};
  std::atomic<std::uint64_t> max_header_bits{0};
  std::atomic<double> busy_seconds{0};
};

RouteService::RouteService(const Graph& g, const RouteServiceOptions& options)
    : options_(options) {
  const std::string invalid = options_.validate();
  CROUTE_REQUIRE(invalid.empty(), invalid);
  // Observability objects exist before the initial package: the artifact
  // store registers its croute_persist_* instruments and emits its
  // recover spans into the same registry/recorder the serving metrics
  // use (instrument registration below still happens after the pool is
  // sized — only construction moves up).
  if (options_.metrics) {
    metrics_ = std::make_unique<obs::MetricRegistry>();
    trace_ = std::make_unique<obs::TraceRecorder>();
  }
  SchemePackagePtr pkg;
  if (!options_.persist.dir.empty()) {
    store_ = std::make_unique<persist::ArtifactStore>(
        persist::StoreOptions{options_.persist.dir, options_.persist.retain},
        metrics_.get(), trace_.get());
    // Recover-or-rebuild ladder: newest valid artifact → retained backup
    // → any intact older generation → fresh preprocessing. Whatever
    // happens, the reason lands in recovery_note() — a corrupt store
    // degrades, it never crashes the service.
    persist::RecoverResult rec =
        store_->recover_newest(options_, g.num_vertices());
    recovery_note_ = rec.note;
    if (rec.package != nullptr) {
      pkg = std::move(rec.package);
      recovered_ = true;
      recovered_generation_ = rec.meta.generation;
    }
  }
  if (pkg == nullptr) {
    pkg = build_scheme_package(std::make_shared<const Graph>(g), options);
  }
  num_vertices_ = pkg->graph->num_vertices();
  flat_compile_seconds_.store(pkg->flat_stats.total_ms / 1e3,
                              std::memory_order_relaxed);
  const std::uint64_t pool_bytes = pkg->flat_stats.pool_bytes;
  package_current_ = std::move(pkg);
  pool_ = std::make_unique<ThreadPool>(options.threads);
  for (unsigned w = 0; w < pool_->size(); ++w) shards_.emplace_back();
  arenas_.resize(pool_->size());
  batch_scratch_.reserve(pool_->size());
  for (unsigned w = 0; w < pool_->size(); ++w) {
    batch_scratch_.emplace_back(options_.batch_group);
  }
  dest_slot_.resize(num_vertices_, 0);
  dest_epoch_.resize(num_vertices_, 0);
  if (options_.metrics) {
    // One histogram/counter shard per pool worker plus one for the
    // driver thread and route_one callers (index pool size).
    const unsigned ms = pool_->size() + 1;
    const std::string scheme_label =
        std::string("{scheme=\"") + scheme_name(options_.scheme) + "\"}";
    hist_latency_ = &metrics_->histogram(
        "croute_query_latency_us",
        "Per-query service time at the worker (route(): amortized per "
        "pipeline generation; route_one: its own wall time)",
        ms);
    hist_queue_wait_ = &metrics_->histogram(
        "croute_queue_wait_us",
        "Batch dispatch to chunk dequeue at the owning worker", ms);
    hist_batch_ = &metrics_->histogram(
        "croute_batch_service_us", "route() batch wall time", 1);
    ctr_queries_ = &metrics_->counter(
        "croute_queries_total" + scheme_label, "Queries served", ms);
    ctr_delivered_ = &metrics_->counter(
        "croute_delivered_total" + scheme_label, "Queries delivered", ms);
    ctr_batches_ =
        &metrics_->counter("croute_batches_total", "route() batches");
    ctr_swaps_ = &metrics_->counter("croute_swaps_total",
                                    "Published generation flips");
    ctr_rebuilds_ = &metrics_->counter("croute_rebuilds_total",
                                       "Package rebuilds recorded");
    ctr_straddled_ = &metrics_->counter(
        "croute_straddled_batches_total", "Batches that overlapped a swap");
    gauge_pool_bytes_ = &metrics_->gauge(
        "croute_flat_pool_bytes", "Pool bytes of the current flat view");
    gauge_pool_bytes_->set(static_cast<double>(pool_bytes));
    gauge_lane_occupancy_ = &metrics_->gauge(
        "croute_batch_lane_occupancy",
        "Sampled fraction of pipeline slots doing useful work");
    gauge_searches_per_query_ = &metrics_->gauge(
        "croute_batch_searches_per_query",
        "Sampled bunch key-slice searches per query (lower-level B(v) "
        "probes; top-level lookups and the rule-0 directory probe need "
        "none)");
    // Constant-1 build-info gauge, Prometheus style: the interesting
    // facts ride in the labels so dashboards can join serving metrics
    // against the SIMD implementation that produced them.
    gauge_build_info_ = &metrics_->gauge(
        std::string("croute_build_info{simd_isa=\"") + simd::ops().name +
            "\",batch_group=\"" + std::to_string(options_.batch_group) +
            "\"}",
        "Constant 1; labels carry the dispatched SIMD implementation and "
        "the pipeline group size");
    gauge_build_info_->set(1);
    for (BatchScratch& ws : batch_scratch_) {
      ws.engine.set_stats_sample_every(64);
    }
  }
  // A freshly-built initial generation is persisted right away so the
  // NEXT start can recover it; a recovered one is already on disk.
  // Failure is graceful (counted, note kept) — the service serves from
  // memory either way.
  if (store_ != nullptr && !recovered_) {
    if (!persist_current() && recovery_note_.empty()) {
      recovery_note_ = "initial persist failed";
    }
  }
}

RouteService::~RouteService() = default;

bool RouteService::persist_current() {
  if (store_ == nullptr) return false;
  // Pin the generation for the whole encode: a concurrent publish may
  // retire it mid-write, and the pin keeps its pools alive.
  const SchemePackagePtr pkg = package();
  const persist::PublishResult res = store_->publish_generation(*pkg);
  if (res.ok) {
    artifacts_persisted_.fetch_add(1, std::memory_order_relaxed);
  } else {
    persist_failures_.fetch_add(1, std::memory_order_relaxed);
  }
  return res.ok;
}

void RouteService::publish(SchemePackagePtr next) {
  CROUTE_REQUIRE(next != nullptr, "publish needs a package");
  CROUTE_REQUIRE(next->graph->num_vertices() == num_vertices_,
                 "hot swap must preserve the vertex space (same n; churn "
                 "is link churn)");
  CROUTE_REQUIRE(next->options.scheme == options_.scheme,
                 "hot swap must keep the scheme kind");
  SchemePackagePtr retired;
  {
    std::lock_guard<std::mutex> lock(package_mutex_);
    retired = std::exchange(package_current_, std::move(next));
  }
  swap_seq_.fetch_add(1, std::memory_order_release);
  if (ctr_swaps_ != nullptr) ctr_swaps_->inc();
  if (gauge_pool_bytes_ != nullptr) {
    gauge_pool_bytes_->set(
        static_cast<double>(package()->flat_stats.pool_bytes));
  }
  // `retired` drops here — outside the lock. If an in-flight batch (or
  // an external pin) still holds the old generation, IT destroys the
  // package when it drains; the flip itself never frees pool memory.
}

void RouteService::record_rebuild(const SchemePackage& pkg) {
  if (ctr_rebuilds_ != nullptr) ctr_rebuilds_->inc();
  rebuilds_.fetch_add(1, std::memory_order_relaxed);
  rebuild_seconds_.fetch_add(pkg.build_seconds, std::memory_order_relaxed);
  flat_compile_seconds_.fetch_add(pkg.flat_stats.total_ms / 1e3,
                                  std::memory_order_relaxed);
  if (pkg.incr_stats.used) {
    incremental_rebuilds_.fetch_add(1, std::memory_order_relaxed);
    clusters_reused_.fetch_add(pkg.incr_stats.clusters_reused,
                               std::memory_order_relaxed);
    clusters_total_.fetch_add(pkg.incr_stats.clusters_total,
                              std::memory_order_relaxed);
    incremental_preprocess_seconds_.fetch_add(pkg.incr_stats.total_s,
                                              std::memory_order_relaxed);
  }
}

CROUTE_HOT RouteAnswer RouteService::serve(
    const SchemePackage& pkg, const RouteQuery& query,
    std::vector<VertexId>* path_out) const {
  const Graph& g = *pkg.graph;
  const VertexId n = g.num_vertices();
  CROUTE_REQUIRE(query.s < n && query.t < n, "endpoint out of range");
  RouteAnswer a;
  if (query.s == query.t) {
    // Self-query: the packet never leaves the source. Defined answer —
    // delivered, length 0, 0 hops, 0 header bits, stretch exactly 1
    // (d(s,s) = 0 is the true distance, not an unknown sentinel).
    a.status = RouteStatus::kDelivered;
    a.stretch = 1.0;
    record_hop(path_out, query.s);
    return a;
  }
  const FlatRouter& router = *pkg.flat_router;
  const FlatHeader h = options_.scheme == SchemeKind::kTZDirect
                           ? router.prepare(query.s, query.t)
                           : router.prepare_handshake(query.s, query.t);
  a.header_bits = h.bits;
  walk(g, router, h, query.s, query.t, path_out, a);
  if (a.delivered() && query.exact > 0) a.stretch = a.length / query.exact;
  return a;
}

CROUTE_HOT RouteAnswer RouteService::route_one(const RouteQuery& query) const {
  const SchemePackagePtr pkg = package();  // pin this generation
  using clock = std::chrono::steady_clock;
  const auto begin = clock::now();
  RouteAnswer a;
  if (!options_.record_paths) {
    a = serve(*pkg, query, nullptr);
  } else {
    // The arena makes route_one single-caller with record_paths on; the
    // answer's path invalidates only the previous route_one path — the
    // stamp bump makes that previous view fail loudly from here on.
    const std::uint64_t stamp =
        one_path_gen_.fetch_add(1, std::memory_order_relaxed) + 1;
    one_arena_.clear();
    a = serve(*pkg, query, &one_arena_);
    a.path = PathView{one_arena_.data(), one_arena_.size(), &one_path_gen_,
                      stamp};
  }
  const double sec =
      std::chrono::duration<double>(clock::now() - begin).count();
  a.latency_us = sec * 1e6;
  // queries before delivered (release): pairs with snapshot()'s
  // delivered-first (acquire) read so delivered <= queries always holds.
  one_slot_.queries.fetch_add(1, std::memory_order_relaxed);
  if (a.delivered()) one_slot_.delivered.fetch_add(1, std::memory_order_release);
  one_slot_.total_hops.fetch_add(a.hops, std::memory_order_relaxed);
  atomic_fetch_max(one_slot_.max_header_bits, a.header_bits);
  one_slot_.busy_seconds.fetch_add(sec, std::memory_order_relaxed);
  if (metrics_ != nullptr) {
    const unsigned shard = pool_->size();  // the driver/route_one shard
    hist_latency_->record(shard, a.latency_us);
    ctr_queries_->add(shard, 1);
    if (a.delivered()) ctr_delivered_->add(shard, 1);
  }
  return a;
}

void RouteService::group_by_destination(
    const SchemePackage& pkg, std::span<const RouteQuery> queries,
    std::span<const RouteRequest> requests) {
  const auto nq = static_cast<std::uint32_t>(queries.size());
  order_.resize(nq);
  ++epoch_;
  dest_memos_.clear();
  // Pass 1: one memo slot per distinct destination (epoch-gated, so the
  // n-sized maps never need clearing). The first request naming a
  // destination decides how its memo resolves: pooled label (vertex
  // form) or the request's own wire label (label form).
  for (std::uint32_t i = 0; i < nq; ++i) {
    const VertexId t = queries[i].t;
    CROUTE_REQUIRE(queries[i].s < num_vertices_ && t < num_vertices_,
                   "endpoint out of range");
    if (dest_epoch_[t] != epoch_) {
      dest_epoch_[t] = epoch_;
      dest_slot_[t] = static_cast<std::uint32_t>(dest_memos_.size());
      DestMemo m;
      m.t = t;
      if (i < requests.size() && !requests[i].label.empty()) m.lab_first = i;
      dest_memos_.push_back(m);
    }
    ++dest_memos_[dest_slot_[t]].count;
  }
  // Pass 2: group offsets; pass 3: stable scatter.
  std::uint32_t off = 0;
  for (DestMemo& m : dest_memos_) {
    m.begin = off;
    off += m.count;
    m.count = 0;
  }
  for (std::uint32_t i = 0; i < nq; ++i) {
    DestMemo& m = dest_memos_[dest_slot_[queries[i].t]];
    order_[m.begin + m.count++] = i;
  }
  // Resolve each destination's label once per batch (TZ direct: the
  // per-query prepare starts from the resolved view). Pooled views point
  // into \p pkg, which the caller pins for the whole batch; wire labels
  // decode into the batch arenas — every decode first (the arenas may
  // reallocate while appending), span fix-up after.
  if (options_.scheme == SchemeKind::kTZDirect) {
    lab_entries_.clear();
    lab_ports_.clear();
    for (DestMemo& m : dest_memos_) {
      if (m.lab_first == kNoRequest) continue;
      const RouteRequest& rq = requests[m.lab_first];
      const BitWriter bw = from_bytes(rq.label, rq.label_bits);
      BitReader r(bw);
      m.lab_begin = static_cast<std::uint32_t>(lab_entries_.size());
      const VertexId t = decode_wire_label(
          pkg.tz->label_codec(), num_vertices_, r, lab_entries_, lab_ports_);
      CROUTE_REQUIRE(t == m.t, "label target does not match its request");
      CROUTE_REQUIRE(r.position() == rq.label_bits,
                     "trailing garbage after the label");
      m.lab_count =
          static_cast<std::uint32_t>(lab_entries_.size()) - m.lab_begin;
    }
    for (DestMemo& m : dest_memos_) {
      if (m.lab_first == kNoRequest) {
        m.label = pkg.flat->label(m.t);
      } else {
        m.label = {lab_entries_.data() + m.lab_begin, m.lab_count};
        m.light_pool = lab_ports_.data();
      }
    }
  }
}

void RouteService::route(std::span<const RouteRequest> requests,
                         RouteSink& sink) {
  using clock = std::chrono::steady_clock;
  // Read the swap sequence BEFORE pinning: a flip landing between the
  // two then counts as straddled (conservative) instead of hiding a
  // batch that genuinely served a retired generation across a swap.
  const std::uint64_t seq_begin = swap_seq_.load(std::memory_order_acquire);
  // Pin one generation for the whole batch (RCU read-side critical
  // section): a publish() during the batch retires the old package only
  // after this shared_ptr drops.
  const SchemePackagePtr pkg = package();
  const auto batch_begin = clock::now();

  // Resolve phase: every request becomes a vertex-form query. A
  // label-addressed request's destination is peeked from the label's
  // leading id field here (a few byte loads); the full decode happens
  // once per distinct destination in group_by_destination.
  const auto nq = static_cast<std::uint32_t>(requests.size());
  resolved_.resize(nq);
  for (std::uint32_t i = 0; i < nq; ++i) {
    const RouteRequest& rq = requests[i];
    RouteQuery& q = resolved_[i];
    q.s = rq.s;
    q.exact = rq.exact;
    if (rq.label.empty()) {
      q.t = rq.t;
    } else {
      CROUTE_REQUIRE(options_.scheme == SchemeKind::kTZDirect,
                     "label-addressed requests need the kTZDirect scheme");
      const LabelCodec& codec = pkg->tz->label_codec();
      const std::uint32_t id_bits = codec.id_bits();
      CROUTE_REQUIRE(rq.label_bits >= id_bits &&
                         std::uint64_t{8} * rq.label.size() >= rq.label_bits,
                     "label too short for its id field");
      std::uint64_t v = 0;
      const std::uint32_t nbytes = (id_bits + 7) / 8;
      for (std::uint32_t b = 0; b < nbytes; ++b) {
        v |= std::uint64_t{rq.label[b]} << (8 * b);
      }
      q.t = static_cast<VertexId>(v & ((std::uint64_t{1} << id_bits) - 1));
    }
  }
  const std::span<const RouteQuery> queries{resolved_};

  answers_.assign(nq, RouteAnswer{});
  std::vector<RouteAnswer>& answers = answers_;
  group_by_destination(*pkg, queries, requests);
  const bool memo_active = options_.scheme == SchemeKind::kTZDirect;
  std::uint64_t path_stamp = 0;
  if (options_.record_paths) {
    // Bump the arena generation FIRST: from here on, every path view a
    // previous batch returned fails its stamp check loudly instead of
    // silently reading this batch's reused arena memory.
    path_stamp = batch_path_gen_.fetch_add(1, std::memory_order_relaxed) + 1;
    path_refs_.assign(queries.size(), PathRef{});
    for (auto& arena : arenas_) arena.clear();  // keeps capacity
  }
  // Batch-pipelined serving: each worker claims destination-grouped
  // chunks and routes them through its FlatBatchEngine — batch_group
  // descents interleaved, every lane's next dependent load prefetched
  // while the other lanes compute. Answer slots and path slices are
  // indexed by request, so results are byte-identical for every group
  // size and thread count.
  FlatBatchTarget target;
  target.graph = pkg->graph.get();
  target.kind = options_.scheme;
  target.flat = pkg->flat.get();
  // A chunk holds a few pipeline generations so refills amortize while
  // the dynamic schedule stays responsive to skewed per-query cost.
  const std::uint32_t chunk =
      std::max<std::uint32_t>(32, 2 * options_.batch_group);
  const std::uint64_t num_chunks = (queries.size() + chunk - 1) / chunk;
  const auto dispatch = clock::now();
  pool_->for_each(
      num_chunks,
      [&](std::uint64_t c, unsigned worker) {
        const auto lo = static_cast<std::uint32_t>(c * chunk);
        const auto hi = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(queries.size(), c * chunk + chunk));
        BatchScratch& ws = batch_scratch_[worker];
        ws.queries.resize(hi - lo);
        ws.answers.assign(hi - lo, FlatBatchAnswer{});
        for (std::uint32_t j = 0; j < hi - lo; ++j) {
          const std::uint32_t i = order_[lo + j];
          const RouteQuery& q = queries[i];
          ws.queries[j].s = q.s;
          ws.queries[j].t = q.t;
          if (memo_active) {
            const DestMemo& m = dest_memos_[dest_slot_[q.t]];
            ws.queries[j].label = m.label;
            ws.queries[j].light_pool = m.light_pool;
          } else {
            ws.queries[j].label = {};
            ws.queries[j].light_pool = nullptr;
          }
        }
        std::vector<VertexId>* arena =
            options_.record_paths ? &arenas_[worker] : nullptr;
        const auto begin = clock::now();
        // Queue wait of every query in the chunk: dispatch → this
        // worker dequeued the chunk (one measurement, chunk-shared).
        const double wait_us =
            std::chrono::duration<double>(begin - dispatch).count() * 1e6;
        ws.engine.route(target, ws.queries, ws.answers, arena);
        const auto end = clock::now();
        // Chunk-local accumulation; one atomic flush per chunk below.
        std::uint64_t nq = 0, nd = 0, nhops = 0, maxhb = 0;
        for (std::uint32_t j = 0; j < hi - lo; ++j) {
          const std::uint32_t i = order_[lo + j];
          const RouteQuery& q = queries[i];
          const FlatBatchAnswer& ba = ws.answers[j];
          RouteAnswer& out = answers[i];
          out.status = ba.status;
          out.length = ba.length;
          out.hops = ba.hops;
          out.header_bits = ba.header_bits;
          out.latency_us = ba.latency_us;
          out.queue_wait_us = wait_us;
          if (q.s == q.t) {
            out.stretch = 1.0;
          } else if (out.delivered() && q.exact > 0) {
            out.stretch = out.length / q.exact;
          }
          if (options_.record_paths) {
            path_refs_[i] = PathRef{worker, ba.path_off, ba.path_len};
          }
          ++nq;
          if (out.delivered()) ++nd;
          nhops += out.hops;
          if (out.header_bits > maxhb) maxhb = out.header_bits;
        }
        Shard& shard = shards_[worker];
        // queries before delivered (release): see the Shard comment.
        shard.queries.fetch_add(nq, std::memory_order_relaxed);
        shard.delivered.fetch_add(nd, std::memory_order_release);
        shard.total_hops.fetch_add(nhops, std::memory_order_relaxed);
        atomic_fetch_max(shard.max_header_bits, maxhb);
        shard.busy_seconds.fetch_add(
            std::chrono::duration<double>(end - begin).count(),
            std::memory_order_relaxed);
        if (metrics_ != nullptr) {
          hist_queue_wait_->record_n(worker, wait_us, hi - lo);
          ctr_queries_->add(worker, nq);
          ctr_delivered_->add(worker, nd);
          // Latencies repeat per pipeline generation — record each run
          // of equal values once (a few adds per chunk, not per query).
          std::uint32_t j = 0;
          while (j < hi - lo) {
            std::uint32_t run = 1;
            while (j + run < hi - lo &&
                   ws.answers[j + run].latency_us ==
                       ws.answers[j].latency_us) {
              ++run;
            }
            hist_latency_->record_n(worker, ws.answers[j].latency_us, run);
            j += run;
          }
        }
      },
      1);

  if (options_.record_paths) {
    // Arenas are append-only during the batch; pointers are stable now.
    for (std::size_t i = 0; i < answers.size(); ++i) {
      const PathRef& r = path_refs_[i];
      answers[i].path = PathView{arenas_[r.worker].data() + r.off, r.len,
                                 &batch_path_gen_, path_stamp};
    }
  }
  batches_.fetch_add(1, std::memory_order_relaxed);
  const double batch_sec =
      std::chrono::duration<double>(clock::now() - batch_begin).count();
  // Blackout accounting: a batch that observed a generation flip ran
  // concurrently with the swap; its wall time bounds the interruption
  // any of its queries could have seen.
  const bool straddled =
      swap_seq_.load(std::memory_order_acquire) != seq_begin;
  if (straddled) {
    straddled_batches_.fetch_add(1, std::memory_order_relaxed);
    atomic_fetch_max(max_swap_blackout_us_, batch_sec * 1e6);
  }
  if (metrics_ != nullptr) {
    ctr_batches_->inc();
    if (straddled) ctr_straddled_->inc();
    hist_batch_->record(0, batch_sec * 1e6);
    // Fold the engines' sampled pipeline stats (safe here: the pool
    // join above is the edge that publishes the workers' writes).
    FlatBatchStats agg;
    for (const BatchScratch& ws : batch_scratch_) {
      const FlatBatchStats& s = ws.engine.stats();
      agg.generations += s.generations;
      agg.lanes += s.lanes;
      agg.lane_hops += s.lane_hops;
      agg.slots += s.slots;
      agg.searches += s.searches;
    }
    if (agg.slots > 0) gauge_lane_occupancy_->set(agg.occupancy());
    if (agg.lanes > 0) {
      gauge_searches_per_query_->set(agg.searches_per_query());
    }
  }
  sink.on_answers(0, answers);
}

namespace {

/// route_collect's sink: copies the batch's answers out.
class CollectSink final : public RouteSink {
 public:
  explicit CollectSink(std::vector<RouteAnswer>& out) : out_(&out) {}
  void on_answers(std::uint32_t first,
                  std::span<const RouteAnswer> answers) override {
    if (out_->size() < first + answers.size()) {
      out_->resize(first + answers.size());
    }
    std::copy(answers.begin(), answers.end(), out_->begin() + first);
  }

 private:
  std::vector<RouteAnswer>* out_;
};

}  // namespace

std::vector<RouteAnswer> RouteService::route_collect(
    std::span<const RouteRequest> requests) {
  std::vector<RouteAnswer> out;
  CollectSink sink(out);
  route(requests, sink);
  return out;
}

std::vector<RouteAnswer> RouteService::route_collect(
    std::span<const RouteQuery> queries) {
  std::vector<RouteRequest> requests(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    requests[i].s = queries[i].s;
    requests[i].t = queries[i].t;
    requests[i].exact = queries[i].exact;
  }
  return route_collect(std::span<const RouteRequest>{requests});
}

ServiceTelemetry RouteService::snapshot() const {
  ServiceTelemetry t;
  t.batches = batches_.load(std::memory_order_relaxed);
  // Per shard, read delivered FIRST (acquire): it pairs with the
  // recording side's queries-then-delivered(release) order, so every
  // delivered increment this snapshot sees has its queries increment
  // visible too — delivered <= queries holds even mid-batch.
  for (const Shard& s : shards_) {
    t.delivered += s.delivered.load(std::memory_order_acquire);
    t.queries += s.queries.load(std::memory_order_relaxed);
    t.total_hops += s.total_hops.load(std::memory_order_relaxed);
    t.busy_seconds += s.busy_seconds.load(std::memory_order_relaxed);
    const std::uint64_t hb = s.max_header_bits.load(std::memory_order_relaxed);
    if (hb > t.max_header_bits) t.max_header_bits = hb;
  }
  t.delivered += one_slot_.delivered.load(std::memory_order_acquire);
  t.queries += one_slot_.queries.load(std::memory_order_relaxed);
  t.total_hops += one_slot_.total_hops.load(std::memory_order_relaxed);
  t.busy_seconds += one_slot_.busy_seconds.load(std::memory_order_relaxed);
  t.max_header_bits = std::max(
      t.max_header_bits,
      one_slot_.max_header_bits.load(std::memory_order_relaxed));
  t.swaps = swap_seq_.load(std::memory_order_acquire);
  t.rebuilds = rebuilds_.load(std::memory_order_relaxed);
  t.rebuild_seconds = rebuild_seconds_.load(std::memory_order_relaxed);
  t.straddled_batches = straddled_batches_.load(std::memory_order_relaxed);
  t.max_swap_blackout_us =
      max_swap_blackout_us_.load(std::memory_order_relaxed);
  t.flat_compile_seconds =
      flat_compile_seconds_.load(std::memory_order_relaxed);
  t.flat_pool_bytes = package()->flat_stats.pool_bytes;
  t.incremental_rebuilds =
      incremental_rebuilds_.load(std::memory_order_relaxed);
  t.clusters_reused = clusters_reused_.load(std::memory_order_relaxed);
  t.clusters_total = clusters_total_.load(std::memory_order_relaxed);
  t.incremental_preprocess_seconds =
      incremental_preprocess_seconds_.load(std::memory_order_relaxed);
  t.artifacts_persisted = artifacts_persisted_.load(std::memory_order_relaxed);
  t.persist_failures = persist_failures_.load(std::memory_order_relaxed);
  t.rebuild_retries = rebuild_retries_.load(std::memory_order_relaxed);
  return t;
}

std::uint64_t RouteService::table_bits(VertexId v) const {
  return package()->table_bits(v);
}

}  // namespace croute
