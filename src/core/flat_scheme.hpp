/// \file flat_scheme.hpp
/// \brief Flat, read-optimized compilation of a TZScheme for the serving
/// hot path.
///
/// The mutable-friendly structures a TZScheme is built into (one
/// `VertexTable` object per vertex, `ClusterDirectory` objects with their
/// own little vectors, `RoutingLabel`s whose tree labels each own a
/// `std::vector<Port>`) are exactly wrong for serving: every query chases
/// pointers across unrelated heap blocks, and every `prepare` materializes
/// a TreeLabel — a heap allocation per query. FlatScheme recompiles an
/// immutable scheme into structure-of-arrays pools shared by all vertices:
///
///  - **tables**: one pool of 32-byte, 32-byte-aligned FlatNodeRecords
///    (v's node record in T_w plus its own label's light-port slice; no
///    record straddles a cache line) in two regions. Every top-level tree
///    T_w, w ∈ A_{k−1}, spans V (d(A_k, v) = ∞, so A_{k−1} ⊆ B(v) for
///    every v), so the first n·T records are a dense block: v's record in
///    T_w sits at v·T + rank(w), T = |A_{k−1}|, addressed by arithmetic
///    with no key stored. The lower-level entries B(v) \ A_{k−1} follow,
///    with their keys (tree roots) in a separate CSR of per-vertex slices,
///    so a search touches the minimum number of cache lines;
///  - **directories**: the rule-0 member ids pooled the same way, with
///    dfs indices and light-port slices alongside;
///  - **labels**: every destination's entries in one pool; tree labels are
///    (dfs, slice-into-port-pool) views — nothing owns memory per entry.
///
/// `find(v, w)` resolves a top-level w in O(1) from the n-sized rank
/// array. Lower-level lookups (`find` for w ∉ A_{k−1}, `dir_find`) search
/// per-vertex key slices stored in the Eytzinger (BFS-of-a-binary-tree)
/// order with the branch-free descent `i = 2i + (key[i] < w)`: the same
/// O(log |B(v)|) probe count as `std::lower_bound`, but the first few
/// probes share cache lines and the loop has no unpredictable branches.
/// The paper's O(1) two-level hash stays in the reference structures
/// (core/tz_tables.hpp); on the serving path the per-vertex slices win
/// every measured row, because a walk's per-hop probes stay in cache
/// where a global hash's slot arrays do not (bench_micro_decision;
/// ROADMAP "Records", "One serving path", keeps the numbers).
///
/// FlatRouter mirrors TZRouter::prepare (the paper's min-level rule) /
/// prepare_handshake / step over the flat view with **zero heap
/// allocation per query**: headers carry a pointer into the pooled light
/// ports instead of owning a vector, and wire sizes come from a
/// precomputed bits-by-length table instead of a BitWriter run. Answers
/// are bit-identical to TZRouter's (tests/test_flat_scheme.cpp proves it
/// pairwise). The reference TZRouter keeps the ablation policies
/// (kMinEstimate, kLabelOnly); the flat view stores only what the two
/// served decisions read, so it keeps no distances or levels.
///
/// Compilation parallelizes over an optional ThreadPool (per-vertex table,
/// directory and label slices are disjoint once the CSR offsets are prefix-
/// summed, so the fill passes shard by vertex and the result is
/// byte-identical at every thread count), and `compile_stats()` reports
/// where the compile time went (rebuild telemetry surfaces it per swap).

#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "core/tz_router.hpp"
#include "core/tz_scheme.hpp"
#include "simd/simd.hpp"
#include "util/annotations.hpp"
#include "util/prefetch.hpp"

namespace croute {

class ThreadPool;

namespace flat_detail {

/// Branch-free Eytzinger lower-bound probe over one slice. Returns the
/// 0-based slice position of the key equal to \p x, or len (miss).
CROUTE_HOT inline std::uint32_t eytzinger_find(const VertexId* keys,
                                               std::uint32_t len,
                                               VertexId x) noexcept {
  std::uint32_t i = 1;
  while (i <= len) i = 2 * i + (keys[i - 1] < x);
  i >>= std::countr_one(i) + 1;
  if (i == 0 || keys[i - 1] != x) return len;
  return i - 1;
}

/// Prefetches the cache lines of [p, p + bytes), capped at 8 lines. The
/// per-vertex key slices this guards are a few lines; for the rare larger
/// slice the descent's upper levels (the slice front — that is the point
/// of the Eytzinger order) are still covered.
CROUTE_HOT inline void prefetch_span(const void* p,
                                     std::size_t bytes) noexcept {
  const char* c = static_cast<const char*>(p);
  const std::size_t lines = std::min<std::size_t>((bytes + 63) / 64, 8);
  for (std::size_t l = 0; l < lines; ++l) CROUTE_PREFETCH(c + 64 * l);
}

}  // namespace flat_detail

/// Where one flat compile's time and space went (rebuild telemetry).
struct FlatCompileStats {
  double tables_ms = 0;       ///< bunch-table pools (offsets + fill)
  double directories_ms = 0;  ///< rule-0 directory pools
  double labels_ms = 0;       ///< destination label pools
  double total_ms = 0;
  std::uint64_t pool_bytes = 0;
  unsigned threads = 1;  ///< compile workers used
};

/// Vertex v's view of one tree T_w on the flat path: its TreeNodeRecord
/// without heavy_in (HeavyPathDecomposition numbers the heavy child
/// first, so it is dfs_in + 1 wherever a heavy child exists; the compile
/// checks it), plus the slice of v's own label in T_w (the handshake's
/// destination side; its dfs half is dfs_in). One aligned half-line.
struct alignas(32) FlatNodeRecord {
  std::uint32_t dfs_in = 0;
  std::uint32_t dfs_out = 0;    ///< subtree interval [dfs_in, dfs_out)
  std::uint32_t heavy_out = 0;  ///< heavy child's interval end
  Port heavy_port = kNoPort;    ///< kNoPort: no heavy child
  Port parent_port = kNoPort;   ///< kNoPort at the root
  std::uint32_t light_depth = 0;
  std::uint32_t own_light_off = 0;  ///< slice into the table light pool
  std::uint32_t own_light_len = 0;

  /// TreeRoutingScheme::decide over non-owning label pieces, for a
  /// destination at dfs index \p dfs with light ports light[0, light_len).
  /// A label the tree cannot route from here — its dfs lies outside the
  /// tree at the root, or it lacks the light port for this branch point
  /// — yields {false, kNoPort}, which no vertex has as a port.
  CROUTE_HOT TreeDecision decide(std::uint32_t dfs, const Port* light,
                                 std::uint32_t light_len) const noexcept {
    if (dfs == dfs_in) return TreeDecision{true, kNoPort};
    if (dfs < dfs_in || dfs >= dfs_out) {
      return TreeDecision{false, parent_port};
    }
    // dfs > dfs_in here, so dfs >= heavy_in = dfs_in + 1 already holds.
    if (dfs < heavy_out && heavy_port != kNoPort) {
      return TreeDecision{false, heavy_port};
    }
    if (light_depth >= light_len) return TreeDecision{false, kNoPort};
    return TreeDecision{false, light[light_depth]};
  }
};
static_assert(sizeof(FlatNodeRecord) == 32);

/// The header carried by packets on the flat path. Unlike TZHeader it owns
/// nothing: `light` points into the FlatScheme pools (or a caller-decoded
/// buffer) and stays valid as long as the scheme does.
struct FlatHeader {
  VertexId target = kNoVertex;     ///< destination vertex (diagnostics)
  VertexId tree_root = kNoVertex;  ///< which tree the packet descends
  std::uint32_t dfs_in = 0;        ///< destination's dfs index in that tree
  const Port* light = nullptr;     ///< light ports of the root → t path
  std::uint32_t light_len = 0;
  std::uint64_t bits = 0;          ///< exact wire size (root id + label)
};

/// An immutable, read-optimized view compiled from a TZScheme. The base
/// scheme must stay alive (pools reference its preprocessing only, but
/// equivalence and diagnostics go through it).
class FlatScheme {
 public:
  /// "not found" sentinel of find / dir_find.
  static constexpr std::uint32_t kNotFound = ~std::uint32_t{0};

  /// One pooled label entry: the fields of LabelEntry the min-level rule
  /// reads (the pivot and t's tree label in T_w).
  struct LabelEntryView {
    VertexId w = kNoVertex;
    std::uint32_t dfs_in = 0;     ///< t's dfs index in T_w
    std::uint32_t light_off = 0;  ///< slice into label_light_pool()
    std::uint32_t light_len = 0;
  };
  static_assert(sizeof(LabelEntryView) == 16);

  /// Compiles the flat view, sharding the compile passes over \p pool
  /// when one is given (borrowed for the constructor call only; nullptr
  /// = serial). Deterministic: the pooled bytes are a pure function of
  /// the scheme — at every pool size.
  CROUTE_DETERMINISTIC explicit FlatScheme(const TZScheme& scheme,
                                           ThreadPool* pool = nullptr);

  CROUTE_HOT const TZScheme& base() const noexcept { return *base_; }
  const Graph& graph() const noexcept { return base_->graph(); }
  CROUTE_HOT std::uint32_t k() const noexcept { return base_->k(); }

  /// --- bunch lookups ------------------------------------------------------
  /// Pool index of v's entry for tree root w, or kNotFound. This is the
  /// per-hop operation: v·T + rank(w) for a top-level w, one Eytzinger
  /// descent over v's lower-level key slice otherwise.
  CROUTE_HOT std::uint32_t find(VertexId v, VertexId w) const noexcept;

  /// w's rank in A_{k−1} (ascending ids), or kNotFound when w is not a
  /// top-level center. A top-level w is in every bunch.
  CROUTE_HOT std::uint32_t top_rank(VertexId w) const noexcept {
    return top_rank_[w];
  }
  /// Pool index of v's record in the top-level tree of rank \p rank —
  /// find(v, w) for rank = top_rank(w), with no search: v·T + rank, T =
  /// |A_{k−1}| records per vertex in the dense block.
  CROUTE_HOT std::uint32_t top_index(VertexId v,
                                     std::uint32_t rank) const noexcept {
    return v * top_count_ + rank;
  }

  /// --- staged probes (software-pipelined batch engine) --------------------
  /// One lower-level find split into three rounds so a caller can keep G
  /// probes in flight and hide each round's cache miss behind the other
  /// lanes' compute (core/flat_batch.hpp):
  ///   stage0 — prefetch the CSR offset entry; no loads;
  ///   stage1 — read the offsets, prefetch the key slice's cache lines;
  ///   stage2 — the branch-free descent (batched: find_stage2_batch).
  /// stage2 yields exactly find(v, w) / dir_find(v, t) for a w that is
  /// not top-level (a top-level w needs no probe: top_index); the stages
  /// only move the dependent misses off the critical path.
  struct FindProbe {
    VertexId v = kNoVertex;
    VertexId w = kNoVertex;
    std::uint32_t off = 0;  ///< key slice offset
    std::uint32_t len = 0;  ///< key slice length
  };

  CROUTE_HOT void find_stage0(const FindProbe& p) const noexcept {
    CROUTE_PREFETCH(&low_off_[p.v]);
  }
  CROUTE_HOT void find_stage1(FindProbe& p) const noexcept {
    load_slice(low_off_, low_key_, p);
  }
  CROUTE_HOT void dir_find_stage0(const FindProbe& p) const noexcept {
    CROUTE_PREFETCH(&dir_off_[p.v]);
  }
  CROUTE_HOT void dir_find_stage1(FindProbe& p) const noexcept {
    load_slice(dir_off_, dir_key_, p);
  }

  /// --- batched stage2 (SIMD kernels, src/simd/) ---------------------------
  /// SoA scratch for resolving a whole round of staged probes in one
  /// kernel call. The batch engine compacts its live lanes' probes here
  /// each round — comparands contiguous in memory, so on AVX2 one
  /// 256-bit register carries 8 lanes' search keys — and reads the pool
  /// indices back from out[]. One instance per engine, reused across
  /// generations (no allocation once warm).
  struct FindBatchScratch {
    std::vector<std::uint32_t> offs, lens, xs, out;
    std::uint32_t count = 0;

    CROUTE_HOT void clear() noexcept { count = 0; }
    /// Pre-sizes all arrays for \p n lanes (push_slice never grows
    /// them).
    void reserve(std::uint32_t n) {
      offs.resize(n);
      lens.resize(n);
      xs.resize(n);
      out.resize(n);
    }
    /// Pushes one probe: search \p x in the Eytzinger slice [off, off +
    /// len) — a staged probe once stage1 has loaded its slice.
    CROUTE_HOT void push_slice(std::uint32_t off, std::uint32_t len,
                               std::uint32_t x) noexcept {
      offs[count] = off;
      lens[count] = len;
      xs[count] = x;
      ++count;
    }
  };

  /// Resolves every pushed probe at once: b.out[i] = find(v_i, w_i),
  /// computed by the selected SIMD implementation (simd::ops() is re-read
  /// per call, so force() / CROUTE_SIMD take effect on the next batch).
  CROUTE_HOT void find_stage2_batch(FindBatchScratch& b) const noexcept {
    resolve_batch(low_key_, low_base_, b);
  }
  /// Batched dir_find (rule-0 directory probes).
  CROUTE_HOT void dir_find_stage2_batch(FindBatchScratch& b) const noexcept {
    resolve_batch(dir_key_, 0, b);
  }

  /// Payload prefetches for resolved pool indices (next round's loads).
  /// A record is one aligned half-line: one prefetch covers it.
  CROUTE_HOT void prefetch_record(std::uint32_t idx) const noexcept {
    CROUTE_PREFETCH(&tbl_record_[idx]);
  }
  CROUTE_HOT void prefetch_dir_payload(std::uint32_t idx) const noexcept {
    CROUTE_PREFETCH(&dir_dfs_[idx]);
    CROUTE_PREFETCH(&dir_light_off_[idx]);
    CROUTE_PREFETCH(&dir_light_len_[idx]);
  }

  /// |B(v)|: T top-level entries plus v's lower-level slice.
  std::uint32_t table_size(VertexId v) const noexcept {
    return top_count_ + low_off_[v + 1] - low_off_[v];
  }
  CROUTE_HOT const FlatNodeRecord& record(std::uint32_t idx) const noexcept {
    return tbl_record_[idx];
  }
  /// Light ports of v's own tree label in T_w for entry \p idx (the
  /// handshake's destination side; the dfs half is record(idx).dfs_in).
  CROUTE_HOT std::span<const Port> own_light_ports(
      std::uint32_t idx) const noexcept {
    const FlatNodeRecord& r = tbl_record_[idx];
    return {tbl_light_pool_.data() + r.own_light_off, r.own_light_len};
  }

  /// --- rule-0 directory lookups -------------------------------------------
  /// Pool index of t within v's cluster directory, or kNotFound.
  CROUTE_HOT std::uint32_t dir_find(VertexId v, VertexId t) const noexcept;

  std::uint32_t dir_size(VertexId v) const noexcept {
    return dir_off_[v + 1] - dir_off_[v];
  }
  CROUTE_HOT std::uint32_t dir_dfs(std::uint32_t idx) const noexcept {
    return dir_dfs_[idx];
  }
  CROUTE_HOT std::span<const Port> dir_light_ports(
      std::uint32_t idx) const noexcept {
    return {dir_light_pool_.data() + dir_light_off_[idx],
            dir_light_len_[idx]};
  }

  /// --- pooled destination labels ------------------------------------------
  CROUTE_HOT std::span<const LabelEntryView> label(VertexId t) const noexcept {
    return {lab_entries_.data() + lab_off_[t],
            lab_off_[t + 1] - lab_off_[t]};
  }
  CROUTE_HOT std::span<const Port> label_light_ports(
      const LabelEntryView& e) const noexcept {
    return {lab_light_pool_.data() + e.light_off, e.light_len};
  }
  CROUTE_HOT const Port* label_light_pool() const noexcept {
    return lab_light_pool_.data();
  }

  /// Exact wire size of a header whose tree label has \p light_len light
  /// ports: root id + dfs + gamma(len+1) + len ports. Precomputed table
  /// for every length the pools contain, closed form beyond it (a
  /// caller-decoded label may be longer); agrees bit-for-bit with
  /// TZRouter::header_bits.
  CROUTE_HOT std::uint64_t header_bits_for(
      std::uint32_t light_len) const noexcept {
    if (light_len < bits_by_len_.size()) return bits_by_len_[light_len];
    return header_fixed_bits_ +
           2 * floor_log2(std::uint64_t{light_len} + 1) + 1 +
           std::uint64_t{light_len} * port_bits_;
  }

  /// Length of the precomputed bits-by-length table (max pooled light
  /// count + 1). header_bits_for serves lengths below this from the
  /// table and at/beyond it from the closed form — exposed so tests can
  /// pin that boundary exactly against TZRouter::header_bits.
  std::uint32_t header_bits_table_len() const noexcept {
    return static_cast<std::uint32_t>(bits_by_len_.size());
  }

  /// Total bytes held by the pools (diagnostics for the layout story).
  std::uint64_t pool_bytes() const noexcept;

  /// Where this compile's time/space went (set once by the constructor).
  const FlatCompileStats& compile_stats() const noexcept { return stats_; }

 private:
  /// Returns the longest own-label light slice (sizes bits_by_len_).
  std::uint32_t compile_tables(ThreadPool* pool);
  void compile_directories(ThreadPool* pool);
  void compile_labels(ThreadPool* pool);

  /// The shared stage1 body: reads v's CSR offsets, prefetches its keys.
  CROUTE_HOT static void load_slice(const std::vector<std::uint32_t>& offs,
                                    const std::vector<VertexId>& keys,
                                    FindProbe& p) noexcept {
    p.off = offs[p.v];
    p.len = offs[p.v + 1] - p.off;
    flat_detail::prefetch_span(keys.data() + p.off, p.len * sizeof(VertexId));
  }

  /// The shared batched-stage2 body behind find_stage2_batch /
  /// dir_find_stage2_batch: one kernel call over the compacted probes,
  /// then the miss/offset mapping find applies (\p base: the pool index
  /// of key slot 0).
  CROUTE_HOT static void resolve_batch(const std::vector<VertexId>& keys,
                                       std::uint32_t base,
                                       FindBatchScratch& b) noexcept {
    simd::ops().eytzinger_batch(keys.data(), b.offs.data(), b.lens.data(),
                                b.xs.data(), b.out.data(), b.count);
    for (std::uint32_t i = 0; i < b.count; ++i) {
      b.out[i] =
          b.out[i] == b.lens[i] ? kNotFound : base + b.offs[i] + b.out[i];
    }
  }

  const TZScheme* base_ = nullptr;
  FlatCompileStats stats_;

  // Tables: one record pool, the dense top-level block (n·T records,
  // vertex-major) first, then the lower-level entries, whose keys live in
  // a CSR of per-vertex slices. Each lower slice of keys and records is
  // stored in that vertex's Eytzinger permutation (one shared order).
  std::uint32_t top_count_ = 0;            ///< T = |A_{k−1}|
  std::uint32_t low_base_ = 0;             ///< n·T: first lower record
  std::vector<std::uint32_t> top_rank_;    ///< n; rank in A_{k−1}
  std::vector<std::uint32_t> low_off_;     ///< n+1
  std::vector<VertexId> low_key_;          ///< hot: lower tree roots
  std::vector<FlatNodeRecord> tbl_record_;
  std::vector<Port> tbl_light_pool_;

  // Directories, pooled the same way (keys = member ids).
  std::vector<std::uint32_t> dir_off_;  ///< n+1
  std::vector<VertexId> dir_key_;
  std::vector<std::uint32_t> dir_dfs_;
  std::vector<std::uint32_t> dir_light_off_;
  std::vector<std::uint32_t> dir_light_len_;
  std::vector<Port> dir_light_pool_;

  // Labels.
  std::vector<std::uint32_t> lab_off_;  ///< n+1
  std::vector<LabelEntryView> lab_entries_;
  std::vector<Port> lab_light_pool_;

  std::vector<std::uint64_t> bits_by_len_;  ///< header bits by light count
  std::uint64_t header_fixed_bits_ = 0;     ///< root id bits + dfs bits
  std::uint32_t port_bits_ = 1;
};

/// TZRouter's algorithms over the flat view; every operation is
/// allocation-free. Stateless: safe to share across threads.
class FlatRouter {
 public:
  explicit FlatRouter(const FlatScheme& flat) : flat_(&flat) {}

  CROUTE_HOT const FlatScheme& scheme() const noexcept { return *flat_; }

  /// Source decision without handshake (stretch ≤ 4k−5): rule 0, then
  /// the first entry of t's pooled label whose pivot is in s's bunch —
  /// the pivot TZRouter::prepare chooses under the min-level rule.
  CROUTE_HOT FlatHeader prepare(VertexId s, VertexId t) const;

  /// Source decision with handshake (stretch ≤ 2k−1).
  CROUTE_HOT FlatHeader prepare_handshake(VertexId s, VertexId t) const;

  /// Per-hop decision at vertex v. Requires v ∈ C(header.tree_root).
  CROUTE_HOT TreeDecision step(VertexId v, const FlatHeader& header) const;

  /// Exact wire size of \p header (precomputed at compile time).
  CROUTE_HOT std::uint64_t header_bits(const FlatHeader& header) const noexcept {
    return header.bits;
  }

 private:
  const FlatScheme* flat_;
};

/// Decodes one LabelCodec-encoded routing label from \p r into flat entry
/// views — the wire seam of label-addressed serving. Appends the entries
/// to \p entries and their light ports to \p ports (light_off fields are
/// absolute offsets into \p ports; pass ports.data() as the light pool
/// once the batch's decodes are done). Returns the label's target vertex.
/// Each entry's level and (when the codec carries them) distance fields
/// are read and dropped: the wire format is LabelCodec's, the view keeps
/// what the min-level rule reads.
///
/// Unlike LabelCodec::decode this parser is *incremental*: it never
/// pre-sizes a container from an untrusted count, so a hostile length
/// field exhausts the bit stream (throwing std::invalid_argument) before
/// it can balloon memory — every claimed entry/port must actually be
/// present in the bits. Also validated: the target and every pivot id are
/// < \p n, and the label has at least one entry. On throw the containers
/// may hold a partial append; callers treat the batch arenas as
/// invalidated (the service rewinds, the tests expect the throw).
VertexId decode_wire_label(const LabelCodec& codec, VertexId n, BitReader& r,
                           std::vector<FlatScheme::LabelEntryView>& entries,
                           std::vector<Port>& ports);

}  // namespace croute
