#include "core/incremental_rebuild.hpp"

#include <chrono>
#include <utility>

#include "core/tz_build.hpp"
#include "util/dheap.hpp"

namespace croute {

namespace {

using clock = std::chrono::steady_clock;

double seconds_since(clock::time_point start) {
  return std::chrono::duration<double>(clock::now() - start).count();
}

/// How one changed edge can affect a distance field.
enum class ChangeKind : std::uint8_t {
  kOrphaning,  ///< removed or weight-increased: invalidates old paths using it
  kImproving,  ///< added or weight-decreased: may shorten paths
};

struct EdgeChangeRef {
  VertexId u, v;
  ChangeKind kind;
};

/// Recomputes the exact distance field of one top-level (whole-graph)
/// tree after a delta, reusing every still-valid previous distance. The
/// ISSUE mechanism, literally: re-run Dijkstra only over the region the
/// delta orphans, seeded with the still-valid boundary distances.
///
/// Exactness: non-orphan labels keep their previous value, which is a
/// valid upper bound (their old tree path survives intact), and every
/// vertex whose label must change is reachable through a seeded
/// relaxation chain — orphans through a seeded non-orphan boundary
/// neighbor, improvement waves through the seeded endpoints of
/// added/decreased edges. Positive weights make the resulting fixpoint
/// the unique Bellman solution, computed with the same floating-point
/// expressions a from-scratch Dijkstra uses — so the field is not just
/// equal, it is bitwise identical, which is what the canonical tree
/// construction (make_canonical_spt) needs for byte-identity.
class TopTreeUpdater {
 public:
  TopTreeUpdater(const Graph& g_old, const Graph& g_new,
                 const GraphDelta& delta, VertexId n)
      : g_old_(&g_old),
        g_new_(&g_new),
        heap_(n),
        dist_(n, kInfiniteWeight),
        parent_(n, kNoVertex),
        child_off_(std::size_t{n} + 2, 0),
        child_(n),
        orphan_(n, 0) {
    changes_.reserve(delta.changed_edges());
    for (const auto& [u, v] : delta.removed) {
      changes_.push_back({u, v, ChangeKind::kOrphaning});
    }
    for (const auto& [u, v] : delta.added) {
      changes_.push_back({u, v, ChangeKind::kImproving});
    }
    for (const EdgeReweight& r : delta.reweighted) {
      changes_.push_back({r.u, r.v,
                          r.new_weight > r.old_weight
                              ? ChangeKind::kOrphaning
                              : ChangeKind::kImproving});
    }
  }

  /// Updates and returns the distance field of center \p w. The returned
  /// reference is valid until the next update() call.
  const std::vector<Weight>& update(
      VertexId w,
      const std::vector<std::pair<VertexId, const TableEntry*>>& members,
      IncrementalRebuildStats& stats) {
    const VertexId n = g_new_->num_vertices();
    CROUTE_ASSERT(members.size() == n,
                  "a top-level cluster spans every vertex");
    // Previous distances and parents (ports decode against the OLD
    // graph — the tree was built over it).
    for (const auto& [v, entry] : members) {
      dist_[v] = entry->dist;
      parent_[v] = entry->record.parent_port == kNoPort
                       ? kNoVertex
                       : g_old_->neighbor(v, entry->record.parent_port);
    }
    CROUTE_ASSERT(parent_[w] == kNoVertex, "center must be the tree root");

    // Children lists (counting sort by parent), then orphan the subtree
    // under every tree edge the delta removed or increased.
    std::fill(child_off_.begin(), child_off_.end(), 0);
    for (VertexId v = 0; v < n; ++v) {
      if (parent_[v] != kNoVertex) ++child_off_[parent_[v] + 2];
    }
    for (std::size_t i = 2; i < child_off_.size(); ++i) {
      child_off_[i] += child_off_[i - 1];
    }
    for (VertexId v = 0; v < n; ++v) {
      if (parent_[v] != kNoVertex) child_[child_off_[parent_[v] + 1]++] = v;
    }

    orphan_roots_.clear();
    auto orphan_if_tree_edge = [&](VertexId a, VertexId b) {
      if (parent_[a] == b) orphan_roots_.push_back(a);
      if (parent_[b] == a) orphan_roots_.push_back(b);
    };
    for (const EdgeChangeRef& c : changes_) {
      if (c.kind == ChangeKind::kOrphaning) orphan_if_tree_edge(c.u, c.v);
    }
    queue_.clear();
    for (const VertexId r : orphan_roots_) {
      if (!orphan_[r]) {
        orphan_[r] = 1;
        queue_.push_back(r);
      }
    }
    for (std::size_t head = 0; head < queue_.size(); ++head) {
      const VertexId v = queue_[head];
      for (std::uint32_t c = child_off_[v]; c < child_off_[v + 1]; ++c) {
        if (!orphan_[child_[c]]) {
          orphan_[child_[c]] = 1;
          queue_.push_back(child_[c]);
        }
      }
    }

    // Seed: still-valid boundary distances around the orphaned region,
    // plus the endpoints of improving edges.
    heap_.clear();
    for (const VertexId x : queue_) {
      dist_[x] = kInfiniteWeight;
      for (const Arc& a : g_new_->arcs(x)) {
        if (!orphan_[a.head]) heap_.push_or_decrease(a.head, dist_[a.head]);
      }
    }
    for (const EdgeChangeRef& c : changes_) {
      if (c.kind != ChangeKind::kImproving) continue;
      if (!orphan_[c.u]) heap_.push_or_decrease(c.u, dist_[c.u]);
      if (!orphan_[c.v]) heap_.push_or_decrease(c.v, dist_[c.v]);
    }

    // Dijkstra over the affected region (label improvements re-enter the
    // heap; everything untouched keeps its previous exact label).
    while (!heap_.empty()) {
      const VertexId v = heap_.pop();
      ++stats.top_update_pops;
      const Weight dv = dist_[v];
      for (const Arc& a : g_new_->arcs(v)) {
        const Weight cand = dv + a.weight;
        if (cand < dist_[a.head]) {
          dist_[a.head] = cand;
          heap_.push_or_decrease(a.head, cand);
        }
      }
    }

    // Reset scratch for the next center (orphan flags + parents).
    for (const VertexId x : queue_) {
      CROUTE_ASSERT(dist_[x] < kInfiniteWeight,
                    "orphaned vertex unreachable after update (the delta "
                    "must keep the graph connected)");
      orphan_[x] = 0;
    }
    return dist_;
  }

 private:
  const Graph* g_old_;
  const Graph* g_new_;
  std::vector<EdgeChangeRef> changes_;
  DHeap<Weight> heap_;
  std::vector<Weight> dist_;
  std::vector<VertexId> parent_;
  std::vector<std::uint32_t> child_off_;  ///< n+2 prefix offsets
  std::vector<VertexId> child_;
  std::vector<std::uint8_t> orphan_;
  std::vector<VertexId> orphan_roots_;
  std::vector<VertexId> queue_;
};

}  // namespace

/// Friend of TZScheme / TZPreprocessing / VertexTable / ClusterDirectory:
/// fills a scheme from a mix of spliced previous-generation state and
/// freshly rebuilt invalidated trees.
class IncrementalRebuilder {
 public:
  static TZScheme rebuild(const TZScheme& prev, const Graph& g,
                          const GraphDelta& delta,
                          const TZSchemeOptions& options, Rng& rng,
                          IncrementalRebuildStats& stats) {
    const auto t_total = clock::now();
    const VertexId n = g.num_vertices();
    CROUTE_REQUIRE(delta.n == n, "delta was computed for a different graph");
    CROUTE_REQUIRE(prev.graph().num_vertices() == n,
                   "incremental rebuild requires a fixed vertex set");
    CROUTE_REQUIRE(prev.k() == options.pre.k,
                   "incremental rebuild requires an unchanged k");

    stats.used = true;
    stats.changed_edges = delta.changed_edges();
    stats.touched_vertices = delta.touched.size();

    TZScheme out;
    out.g_ = &g;
    out.options_ = options;

    // ---- fresh preprocessing: rank + hierarchy sampling + pivots.
    // Consumes the RNG stream exactly as a from-scratch build would —
    // the hierarchy draws interleave with cluster measurements, so
    // re-running them is what keeps byte-identity unconditional.
    const auto t_pre = clock::now();
    out.pre_ = TZPreprocessing(g, options.pre, rng);
    stats.pre_s = seconds_since(t_pre);
    const TZPreprocessing& pre = out.pre_;
    const TZPreprocessing& old_pre = prev.preprocessing();
    CROUTE_REQUIRE(pre.rank() == old_pre.rank(),
                   "incremental rebuild requires the previous seed "
                   "(rank permutations differ)");
    const std::uint32_t k = pre.k();
    const std::uint32_t id_bits = bits_for_universe(n);
    out.tree_codec_ = TreeRoutingScheme::Codec(n, g.max_degree());
    out.codec_ = LabelCodec(n, g.max_degree(), options.labels_carry_distances);
    const bool codec_equal =
        out.tree_codec_.dfs_bits == prev.tree_codec().dfs_bits &&
        out.tree_codec_.port_bits == prev.tree_codec().port_bits;

    // ---- label skeletons: the exact fresh-constructor pass
    // (core/tz_build.hpp — shared so the byte-identity contract cannot
    // drift).
    const tz_build::NeededLabels needed =
        tz_build::label_skeletons(pre, out.labels_);

    // ---- dirty analysis: which previous trees stay verbatim-valid.
    const auto t_analysis = clock::now();

    // Endpoints of changed edges: their arc lists (weights and port
    // numbering) differ between the graphs, so no tree containing one
    // can be reused.
    std::vector<std::uint8_t> incident(n, 0);
    for (const VertexId v : delta.touched) incident[v] = 1;

    // Per level 1..k-1: the guard (d(A_i, v), rank of p_i(v)) changed at
    // v or at a neighbor of v. The restricted run consults guards of
    // members and, at relaxation time, of members' neighbors, so one hop
    // of adjacency expansion makes the per-member flag sufficient.
    std::vector<std::vector<std::uint8_t>> guard_dirty(k);
    std::vector<std::uint8_t> base(n, 0);
    for (std::uint32_t i = 1; i < k; ++i) {
      for (VertexId v = 0; v < n; ++v) {
        base[v] = old_pre.pivot(i, v) != pre.pivot(i, v) ||
                  old_pre.pivot_dist(i, v) != pre.pivot_dist(i, v);
      }
      std::vector<std::uint8_t>& expanded = guard_dirty[i];
      expanded.assign(n, 0);
      for (VertexId v = 0; v < n; ++v) {
        if (base[v]) {
          expanded[v] = 1;
          continue;
        }
        for (const Arc& a : g.arcs(v)) {
          if (base[a.head]) {
            expanded[v] = 1;
            break;
          }
        }
      }
    }

    // Previous member lists: invert the previous tables once. A table
    // entry of v keyed by w IS membership v ∈ C_prev(w), record included.
    std::vector<std::vector<std::pair<VertexId, const TableEntry*>>>
        prev_members(n);
    for (VertexId v = 0; v < n; ++v) {
      for (const TableEntry& e : prev.table(v).entries()) {
        prev_members[e.w].emplace_back(v, &e);
      }
    }

    // Reuse decision per center.
    std::vector<std::uint8_t> reuse(n, 0);
    for (VertexId w = 0; w < n; ++w) {
      const std::uint32_t level = pre.center_level(w);
      if (level != old_pre.center_level(w)) continue;
      const std::vector<std::uint8_t>* dirty =
          level + 1 < k ? &guard_dirty[level + 1] : nullptr;
      bool ok = true;
      for (const auto& [v, entry] : prev_members[w]) {
        (void)entry;
        if (incident[v] || (dirty != nullptr && (*dirty)[v])) {
          ok = false;
          break;
        }
      }
      // Labels referencing a reused tree copy their tree label from the
      // previous scheme. Level-0 directories cover every member; higher
      // levels need the previous label of t to reference T_w too.
      if (ok && level > 0) {
        for (const auto& [t, idx] : needed[w]) {
          (void)idx;
          if (find_tree_label(prev, t, w, level) == nullptr) {
            ok = false;
            break;
          }
        }
      }
      reuse[w] = ok ? 1 : 0;
    }
    stats.analysis_s = seconds_since(t_analysis);
    stats.clusters_total = n;
    stats.labels_total = 0;
    for (VertexId w = 0; w < n; ++w) {
      stats.labels_total += needed[w].size();
      if (reuse[w]) ++stats.clusters_reused;
    }

    // ---- sweep: ascending center id, splices and re-run Dijkstras
    // interleaved so pool append order equals the fresh constructor's.
    const auto t_sweep = clock::now();
    std::vector<tz_build::PendingTable> pending(n);
    for (VertexId v = 0; v < n; ++v) {
      // The new table's shape is close to the previous one's — reserve
      // so interleaved splices don't pay reallocation churn.
      pending[v].entries.reserve(prev.table(v).size() + 2);
    }
    std::vector<std::uint8_t> fresh_contrib(n, 0);
    out.dirs_.resize(n);
    RestrictedDijkstra rd(g);
    TopTreeUpdater top_updater(prev.graph(), g, delta, n);
    // A boundary-seeded update beats a full Dijkstra only while the
    // orphaned region is a minority of the graph; on dense deltas the
    // bookkeeping costs more than it saves (the bytes are identical
    // either way — this is purely a cost cutover).
    const bool dynamic_top = delta.touched.size() * 8 < std::size_t{n};
    // Dense VertexId → local-index scratch for make_local_tree and
    // consume_cluster alike: each leaves it all kNoLocal on return.
    std::vector<std::uint32_t> local_index(n, kNoLocal);

    // The fresh-construction consumer — the SAME code the fresh
    // constructor runs (core/tz_build.hpp), so the spliced and rebuilt
    // halves cannot drift apart.
    const auto consume_fresh = [&](VertexId w, std::uint32_t level,
                                   const LocalTree& tree) {
      tz_build::consume_cluster(w, level, tree, out.tree_codec_, id_bits,
                                pending, out.dirs_, out.labels_, needed,
                                local_index, &fresh_contrib);
    };

    // Per-branch time: one clock read per center, charged to the branch
    // that center took.
    auto t_branch = clock::now();
    const auto charge = [&](double& branch_s) {
      const auto now = clock::now();
      branch_s += std::chrono::duration<double>(now - t_branch).count();
      t_branch = now;
    };
    for (VertexId w = 0; w < n; ++w) {
      const std::uint32_t level = pre.center_level(w);
      if (reuse[w]) {
        for (const auto& [v, entry] : prev_members[w]) {
          tz_build::PendingTable& pt = pending[v];
          TableEntry e = *entry;
          const auto ports = prev.table(v).own_light_ports(*entry);
          e.light_off = static_cast<std::uint32_t>(pt.light_pool.size());
          e.light_len = static_cast<std::uint32_t>(ports.size());
          pt.light_pool.insert(pt.light_pool.end(), ports.begin(),
                               ports.end());
          pt.entries.push_back(std::move(e));
          ++stats.entries_spliced;
        }
        if (level == 0) {
          out.dirs_[w] = prev.directory(w);
          if (!codec_equal) reaccount_directory(out.dirs_[w], out, id_bits);
        }
        for (const auto& [t, idx] : needed[w]) {
          const TreeLabel* copied = find_tree_label(prev, t, w, level);
          CROUTE_ASSERT(copied != nullptr,
                        "reuse decision guaranteed the previous tree label");
          out.labels_[t].entries[idx].tree = *copied;
          ++stats.labels_copied;
        }
        charge(stats.sweep_splice_s);
        continue;
      }

      if (level + 1 >= k && dynamic_top &&
          old_pre.center_level(w) == level && prev_members[w].size() == n) {
        // Invalidated top-level tree: its membership is all of V, so only
        // the distance field needs recomputing — re-run Dijkstra over the
        // delta's orphaned region seeded with still-valid boundary
        // distances, then rebuild the canonical tree (a pure function of
        // the distances — see make_canonical_spt) exactly as the fresh
        // path does.
        const std::vector<Weight>& d =
            top_updater.update(w, prev_members[w], stats);
        consume_fresh(w, level, make_canonical_spt(g, w, d));
        ++stats.top_trees_updated;
        charge(stats.sweep_top_s);
        continue;
      }
      if (level + 1 >= k) {
        // Top-level center without a same-shape previous tree (its level
        // changed, or the previous hierarchy differs): fresh path.
        consume_fresh(w, level, make_canonical_spt(g, w, dijkstra(g, w).dist));
        stats.fresh_settled += n;
        charge(stats.sweep_top_s);
        continue;
      }

      // Invalidated root below the top level: the exact
      // fresh-construction path (a seeded heap would break the
      // byte-identity tie-breaking contract; these runs are bounded by
      // their cluster size anyway).
      auto guard_fn = [&](VertexId v) { return pre.cluster_guard(level, v); };
      const LocalTree tree =
          make_local_tree(rd.run(w, pre.rank()[w], guard_fn), local_index);
      stats.fresh_settled += tree.size();
      consume_fresh(w, level, tree);
      charge(stats.sweep_lower_s);
    }
    stats.sweep_s = seconds_since(t_sweep);

    // ---- finalize tables. A vertex whose every entry was spliced (and
    // whose previous table has the same entry count, i.e. no tree it
    // belonged to went away) gets the previous finalized table verbatim
    // — same sorted entries, same pool layout, same accounted bits.
    const auto t_finalize = clock::now();
    out.tables_.reserve(n);
    for (VertexId v = 0; v < n; ++v) {
      stats.entries_total += pending[v].entries.size();
      if (codec_equal && !options.hash_index && !fresh_contrib[v] &&
          prev.table(v).size() == pending[v].entries.size() &&
          !prev.table(v).has_hash_index()) {
        out.tables_.push_back(prev.table(v));
        continue;
      }
      out.tables_.emplace_back(std::move(pending[v].entries),
                               std::move(pending[v].light_pool),
                               out.tree_codec_, id_bits);
      if (options.hash_index) out.tables_.back().build_hash_index(rng);
    }
    stats.finalize_s = seconds_since(t_finalize);
    stats.total_s = seconds_since(t_total);
    return out;
  }

 private:
  /// Tree label of \p t in the reused tree T_w, looked up in the
  /// previous scheme: any previous label entry referencing T_w carries
  /// it, and level-0 centers additionally keep every member's label in
  /// their directory. Returns nullptr when the previous scheme never
  /// materialized it (which the reuse decision treats as "rebuild w").
  static const TreeLabel* find_tree_label(const TZScheme& prev, VertexId t,
                                          VertexId w, std::uint32_t level) {
    for (const LabelEntry& e : prev.label(t).entries) {
      if (e.w == w) return &e.tree;
    }
    if (level == 0) {
      const ClusterDirectory& dir = prev.directory(w);
      const std::uint32_t idx = dir.find_index(t);
      if (idx != ClusterDirectory::kNoIndex) {
        // Directory labels are pool-flattened; materialize lazily into
        // a per-call scratch that lives until the next call.
        thread_local TreeLabel scratch;
        scratch = dir.label_at(idx);
        return &scratch;
      }
    }
    return nullptr;
  }

  /// Recomputes a copied directory's accounted bit size under the new
  /// codec (only needed when the port width changed — dfs width is a
  /// function of n, which link churn keeps fixed).
  static void reaccount_directory(ClusterDirectory& dir, const TZScheme& out,
                                  std::uint32_t id_bits) {
    dir.bit_size_ = 0;
    for (std::uint32_t i = 0; i < dir.size(); ++i) {
      dir.bit_size_ +=
          id_bits + TreeRoutingScheme::label_bits(
                        dir.light_off_[i + 1] - dir.light_off_[i],
                        out.tree_codec_);
    }
  }
};

CROUTE_DETERMINISTIC TZScheme rebuild_tz_incremental(const TZScheme& previous,
                                                     const Graph& g,
                                const GraphDelta& delta,
                                const TZSchemeOptions& options, Rng& rng,
                                IncrementalRebuildStats* stats) {
  IncrementalRebuildStats local;
  IncrementalRebuildStats& s = stats != nullptr ? *stats : local;
  return IncrementalRebuilder::rebuild(previous, g, delta, options, rng, s);
}

}  // namespace croute
