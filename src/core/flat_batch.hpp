/// \file flat_batch.hpp
/// \brief Batch-pipelined decision engine: G in-flight route descents in a
/// software pipeline with explicit prefetching.
///
/// The flat serving path (core/flat_scheme.hpp) made every query-path
/// structure a pooled array — but a single query still issues one
/// *dependent* cache-miss chain per hop: node record → graph arc (plus
/// offset entry → key slice before the record in a lower-level tree), one
/// load waiting on the previous. On the table sizes the paper's space
/// bound produces, nearly every link of that chain misses cache, so the
/// scalar decision is bounded by memory latency, not by memory bandwidth
/// — the core has room for many outstanding misses and the scalar loop
/// uses one.
///
/// This engine runs G ≈ 8–16 *independent* queries' descents interleaved
/// (the classic batched-Eytzinger / group-prefetch technique): each lane
/// is a tiny state machine whose stage boundaries sit exactly where the
/// next dependent load would stall, and every stage ends by issuing
/// a prefetch (CROUTE_PREFETCH) for the memory its *next* stage will
/// read. While
/// lane A's line travels from DRAM, lanes B…G execute their stages, so up
/// to G misses are in flight instead of one. Answers are byte-identical
/// to the scalar FlatRouter path — the stages reorder only *when* a line
/// is fetched, never what is computed (tests/test_flat_scheme.cpp checks
/// the served answers against the sim/ reference walk for both served
/// decisions and every group size, ragged tails and self-queries
/// included).
///
/// Every walk runs under default_hop_budget (sim/packet.hpp), the bound
/// route_one's scalar walk and the reference walk share.
///
/// Stage map per hop of the Thorup–Zwick walk at vertex v. A lane in a
/// top-level tree (every bunch holds all of A_{k−1}; most walks) reads
/// its record at v·T + rank(root) in the dense block, so its hop is two
/// stages:
///   kStepDecide  O(1) tree decision over the record (prefetched at the
///                previous advance), prefetch the arc;
///   kStepAdvance traverse the arc, compute the next vertex's record
///                index and prefetch the record.
/// A lane in a lower-level tree runs two probe stages first:
///   kStepMeta    read CSR offsets (prefetched on arrival), prefetch the
///                key slice's lines;
///   kStepProbe   branch-free descent → pool index, prefetch the node
///                record.
/// Prepare (rule-0 directory probe + min-level label scan) and the
/// handshake's bidirectional pivot walk are staged the same way; a
/// top-level label pivot or handshake meeting resolves without a probe.
///
/// The probe stages are *vectorized* (src/simd/): each round compacts
/// the live lanes' probes into SoA scratch arrays and resolves them in
/// one lane-parallel kernel call — the Eytzinger compare-and-step runs
/// across 8 lanes per AVX2 register (masked gathers keep retired lanes
/// off memory), and the generic implementation is the exact scalar loop,
/// so answers stay byte-identical on every ISA (tests/test_simd.cpp pins
/// the matrix).
///
/// Scheduling is *lockstep*: queries run in generations of G lanes, and
/// each pipeline stage is one tight loop over the live lanes (compact
/// index list; delivered lanes drop out). Adjacent loop iterations are
/// independent, so the out-of-order core overlaps their loads even
/// before the explicit prefetches land — the control cost per stage is a
/// predictable loop branch, not a per-lane state dispatch. Lanes that
/// finish a phase early (shorter label scan, earlier delivery) idle
/// until their generation drains; the next generation then refills all
/// lanes.
///
/// A wire label is untrusted: one whose scan finds no pivot in B(s), or
/// whose walk leaves a lower-level cluster, reaches the root with its dfs
/// outside the tree, or misses a light port, finishes its own lane with
/// kBadPort (no valid port exists) and leaves every other lane alone.
///
/// The engine is scalar state + scratch: one instance per worker thread,
/// reused across batches (no allocation once warm). RouteService routes
/// every destination-grouped chunk through per-worker engines; only
/// route_one keeps a scalar walk (it must stay allocation-free and
/// callable from any thread, so it cannot borrow per-worker scratch).

#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <vector>

#include "core/flat_scheme.hpp"
#include "sim/packet.hpp"
#include "util/annotations.hpp"

namespace croute {

/// Which of the paper's two served decisions the engine pipelines. The
/// service layer names this same enum SchemeKind
/// (service/scheme_package.hpp); its values are the scheme byte of
/// artifacts and of the wire WELCOME frame.
enum class FlatServeKind {
  kTZDirect,     ///< prepare (rule 0 + label scan) + tree walk; ≤ 4k−5
  kTZHandshake,  ///< bidirectional pivot walk + tree walk; ≤ 2k−1
};

/// What the engine routes against: one immutable generation's graph and
/// flat view (both must be set).
struct FlatBatchTarget {
  const Graph* graph = nullptr;
  FlatServeKind kind = FlatServeKind::kTZDirect;
  const FlatScheme* flat = nullptr;
};

/// One query. For kTZDirect \p label must be the destination's resolved
/// label (the service's per-batch memo resolves each distinct t once).
struct FlatBatchQuery {
  VertexId s = kNoVertex;
  VertexId t = kNoVertex;
  std::span<const FlatScheme::LabelEntryView> label;
  /// Base of the light-port pool the label's light_off fields index.
  /// nullptr = the scheme's own pool (pooled labels); a wire-decoded
  /// label points this at its batch-owned port buffer instead.
  const Port* light_pool = nullptr;
};

/// One answer. The deterministic fields (status, length, hops,
/// header_bits, path) are byte-identical to route_one's scalar walk;
/// latency_us is the query's amortized share of its pipeline
/// generation's wall time (G queries run interleaved — per-lane wall
/// time would charge every lane for all G).
struct FlatBatchAnswer {
  RouteStatus status = RouteStatus::kHopLimit;
  Weight length = 0;
  std::uint32_t hops = 0;
  std::uint64_t header_bits = 0;
  double latency_us = 0;
  std::uint32_t path_off = 0;  ///< slice into the caller's path arena
  std::uint32_t path_len = 0;
};

/// Sampled pipeline-occupancy and search counters (see
/// set_stats_sample_every).
/// Plain members of a per-worker engine: the owning thread writes them,
/// anyone else reads only across a synchronization edge (RouteService's
/// driver reads after the pool join).
struct FlatBatchStats {
  std::uint64_t generations = 0;  ///< sampled generations
  std::uint64_t lanes = 0;        ///< lanes those generations carried
  /// Useful per-hop pipeline slots: Σ over sampled lanes of their hop
  /// count (each hop occupies one slot of every stage loop).
  std::uint64_t lane_hops = 0;
  /// Issued slots: Σ over sampled generations of lanes × the longest
  /// lane's hops — a lane that retires early leaves its remaining slots
  /// idle until the generation drains.
  std::uint64_t slots = 0;
  /// Bunch key-slice searches (lower-level B(v) probes: label scan,
  /// handshake meeting, walk hops) the sampled generations ran. Top-level
  /// lookups need none; the rule-0 directory probe (one per direct
  /// query, whatever the table layout) is not counted.
  std::uint64_t searches = 0;

  /// Fraction of issued pipeline slots doing useful work (0 when no
  /// generation was sampled). Low occupancy means skewed lane lengths —
  /// the pipeline drains half-empty and loses memory-level parallelism.
  double occupancy() const noexcept {
    return slots > 0
               ? static_cast<double>(lane_hops) / static_cast<double>(slots)
               : 0;
  }
  /// Bunch searches per sampled query (0 when none was sampled).
  double searches_per_query() const noexcept {
    return lanes > 0
               ? static_cast<double>(searches) / static_cast<double>(lanes)
               : 0;
  }
};

/// The pipelined engine. Holds only scratch (lane array, per-lane path
/// buffers): keep one instance per worker thread and reuse it across
/// batches. Not thread-safe; distinct instances are independent.
class FlatBatchEngine {
 public:
  explicit FlatBatchEngine(std::uint32_t group = 8)
      : group_(group == 0 ? 1 : group) {}

  std::uint32_t group() const noexcept { return group_; }

  /// Samples every \p n-th generation into stats() (0 — the default —
  /// disables sampling entirely). Sampling reads the generation's
  /// finished answers and its search count (one add per bunch kernel
  /// call) after it drains; the stage loops are untouched, so routed bytes
  /// are identical with sampling on or off.
  void set_stats_sample_every(std::uint32_t n) noexcept {
    stats_sample_every_ = n;
  }
  const FlatBatchStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = FlatBatchStats{}; }

  /// Routes queries[i] → answers[i], every query to completion, G lanes
  /// in flight. When \p path_arena is non-null each query's visited
  /// vertices are appended to it (contiguous per query, in completion
  /// order) and answers[i].path_off/path_len index the slice.
  CROUTE_HOT void route(const FlatBatchTarget& target,
                        std::span<const FlatBatchQuery> queries,
                        std::span<FlatBatchAnswer> answers,
                        std::vector<VertexId>* path_arena = nullptr);

 private:
  struct Lane {
    std::uint32_t qi = 0;
    VertexId s = kNoVertex, t = kNoVertex, here = kNoVertex;
    // header under construction / in use
    VertexId root = kNoVertex;
    std::uint32_t dfs_in = 0;
    const Port* light = nullptr;
    std::uint32_t light_len = 0;
    std::uint64_t bits = 0;
    // staged probe
    FlatScheme::FindProbe probe;
    std::uint32_t pool_idx = 0;
    /// top_rank(root): the walk's records are at here·T + rank, with no
    /// probe; kNotFound for a lower-level tree.
    std::uint32_t rank = FlatScheme::kNotFound;
    // TZ label scan
    const FlatScheme::LabelEntryView* lab_it = nullptr;
    const FlatScheme::LabelEntryView* lab_end = nullptr;
    const Port* lab_pool = nullptr;  ///< light-port pool of this label
    // handshake walk
    VertexId hs_u = kNoVertex, hs_v = kNoVertex, hs_w = kNoVertex;
    std::uint32_t hs_i = 0;
    bool hs_done = false;
    // walk
    Weight length = 0;
    std::uint32_t hops = 0;
    Port port = kNoPort;
    std::vector<VertexId>* path = nullptr;  ///< into lane_paths_, or null
  };

  // Lockstep phases of one generation, whose lanes are live as
  // live_[0..live_count_); each is one loop over the live lanes.
  void prepare_tz_direct(const FlatBatchTarget& target);
  void prepare_tz_handshake(const FlatBatchTarget& target);
  void walk_tz(const FlatBatchTarget& target,
               std::span<FlatBatchAnswer> answers,
               std::vector<VertexId>* path_arena, std::uint32_t max_hops);

  /// Stages A and B of one probe round: reads the offsets of the lanes
  /// ids[0..count) and prefetches their key slices, then resolves every
  /// probe in one SIMD kernel call (bunch slices, or rule-0 directories
  /// when \p directory); batch_.out[i] answers lane ids[i].
  CROUTE_HOT void search(const FlatScheme& f, const std::uint32_t* ids,
                         std::uint32_t count, bool directory);
  /// Moves a direct lane's label scan to its candidate at lab_it: a
  /// top-level pivot is in every bunch, so it is chosen on the spot; a
  /// lower-level one stages a probe of B(s) (returns true). A scan past
  /// the label's end leaves the lane without a tree.
  CROUTE_HOT bool next_candidate(const FlatScheme& f, Lane& lane) const;
  /// Writes the label entry at lab_it (its pivot is in B(s)) into the
  /// lane's header.
  CROUTE_HOT void adopt_candidate(const FlatScheme& f, Lane& lane) const;
  /// Stages the handshake walk's membership probe find(hs_v, hs_w). A
  /// top-level hs_w is in every bunch: the walks meet on the spot, t's
  /// own label is t's record in the dense block, and no probe is staged
  /// (returns false).
  CROUTE_HOT bool stage_meeting(const FlatScheme& f, Lane& lane) const;
  /// Stages the record read of lane \p id's next decision at lane.here:
  /// a top-level lane computes its record index and prefetches it; a
  /// lower-level lane stages its bunch probe and joins scan_.
  CROUTE_HOT void stage_hop(const FlatScheme& f, std::uint32_t id);

  CROUTE_HOT void finish(Lane& lane, FlatBatchAnswer& answer,
                         RouteStatus status,
                         std::vector<VertexId>* path_arena) const;
  /// Drops live_[pos] from the live list (swap-with-last).
  CROUTE_HOT void retire(std::uint32_t pos) {
    live_[pos] = live_[--live_count_];
  }
  /// Warms the lane/scan/probe scratch to group_ capacity. All resizes
  /// are no-ops after the engine's first batch (capacity persists), so
  /// the stage loops themselves never allocate.
  void ensure_scratch(bool want_paths);

  std::uint32_t group_;
  std::uint32_t stats_sample_every_ = 0;  ///< 0 = sampling off
  std::uint64_t gen_seq_ = 0;             ///< generations since construction
  std::uint64_t gen_searches_ = 0;  ///< bunch searches, this generation
  FlatBatchStats stats_;
  std::vector<Lane> lanes_;
  std::vector<std::uint32_t> live_;  ///< live lane indices, compacted
  std::uint32_t live_count_ = 0;
  /// Lanes with a probe to resolve — prepare's unresolved lanes, the
  /// walk's lower-level lanes — and the survivors of a scan round:
  /// counted arrays pre-sized to group_ (like live_/live_count_), so the
  /// scan loops write slots instead of push_back-ing.
  std::vector<std::uint32_t> scan_;
  std::uint32_t scan_count_ = 0;
  std::vector<std::uint32_t> scan_next_;
  std::uint32_t scan_next_count_ = 0;
  /// SoA probe compaction: each stage-B round pushes the live lanes'
  /// probes here and one SIMD kernel call (simd::ops()) resolves them
  /// all — comparands contiguous, so a 256-bit register carries 8 lanes.
  FlatScheme::FindBatchScratch batch_;
  std::vector<std::vector<VertexId>> lane_paths_;
};

}  // namespace croute
