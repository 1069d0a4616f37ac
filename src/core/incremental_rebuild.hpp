/// \file incremental_rebuild.hpp
/// \brief Delta-aware TZ rebuilds that reuse untouched cluster SPTs.
///
/// Reacting to topology churn costs one full Thorup–Zwick preprocessing
/// per delta, and the churn telemetry shows that cost is dominated by the
/// landmark/cluster Dijkstras — shortest-path trees a small link delta
/// (graph/delta.hpp) leaves mostly untouched. This module rebuilds a
/// TZScheme from (previous scheme, perturbed graph, GraphDelta),
/// recomputing only what the delta invalidates, with a hard contract:
///
///   **the result is byte-identical to a from-scratch build on the same
///   seed** (tests compare save_scheme streams), so an incremental
///   generation is indistinguishable from a fresh one — the hot-swap
///   determinism contract survives unchanged.
///
/// ### What can be reused, exactly
///
/// A cluster tree T_w is the output of one restricted Dijkstra
/// (dijkstra.hpp). That run is a deterministic function of
///   (a) the arc lists of the cluster members (heads, weights, port
///       numbering — ports ARE arc indices),
///   (b) the guard values (d(A_{l+1}, ·), rank of the pivot) of every
///       member and every neighbor of a member (the guard is evaluated
///       at relaxation time, so the consulted surface is exactly
///       members ∪ neighbors(members)), and
///   (c) the center's rank — fixed, because the rank permutation depends
///       only on (seed, n).
/// Hence T_w from the previous build is verbatim-valid iff no member is
/// an endpoint of a changed edge AND no member or neighbor-of-member
/// changed its level-(l+1) pivot guard. Both are cheap vertex flags:
/// endpoint dirt comes straight from the delta's touched set, guard dirt
/// from comparing the old and new pivot arrays (recomputed each rebuild
/// — k multi-source Dijkstras are a trivial slice of preprocessing),
/// expanded by one hop of adjacency — the parent-pointer/SPT-surface
/// propagation step. Top-level trees span all of V, so any non-empty
/// delta rebuilds them; they are the irreducible floor of a rebuild.
///
/// The hierarchy itself (centered sampling) is re-run from scratch: its
/// RNG draws interleave with cluster measurements, so replaying it is
/// what keeps the byte-identity contract trivially true, and it is cheap
/// relative to the cluster sweep.
///
/// A reused tree is never re-walked: the member records are spliced out
/// of the previous scheme's vertex tables, the rule-0 directory is
/// copied wholesale (re-accounted only if the port codec widened), and
/// destination labels referencing the tree copy their tree label from
/// the previous label/directory. Invalidated roots re-run restricted
/// Dijkstra exactly as the fresh constructor would — deliberately NOT
/// seeded with boundary distances: a seeded heap has a different
/// insertion order, and insertion order is what breaks ties, so seeding
/// would produce a correct but not byte-identical tree. The sweep walks
/// centers in ascending id interleaving splices and fresh builds, so
/// every pool layout matches the fresh constructor's append order.

#pragma once

#include <cstdint>

#include "core/tz_scheme.hpp"
#include "graph/delta.hpp"

namespace croute {

/// What one incremental rebuild did — the reuse-ratio/phase-timing
/// extension the churn telemetry surfaces next to the flat-compile
/// stats.
struct IncrementalRebuildStats {
  /// True when the incremental path ran (false = full rebuild, either
  /// requested or because no compatible previous generation existed).
  bool used = false;
  /// Why the incremental path was skipped (static string, never null
  /// when !used after a build_scheme_package_incremental call).
  const char* fallback_reason = nullptr;

  // --- reuse counters (zeros when !used) ---
  std::uint64_t clusters_total = 0;
  std::uint64_t clusters_reused = 0;   ///< trees spliced verbatim
  std::uint64_t entries_spliced = 0;   ///< table entries copied, not rebuilt
  std::uint64_t entries_total = 0;
  std::uint64_t labels_copied = 0;     ///< label tree-labels copied
  std::uint64_t labels_total = 0;
  std::uint64_t fresh_settled = 0;     ///< vertices settled by re-run Dijkstras
  /// Top-level (whole-graph) trees refreshed by the boundary-seeded
  /// dynamic distance update instead of a full Dijkstra.
  std::uint64_t top_trees_updated = 0;
  /// Heap pops those dynamic updates performed (vs n per tree for a full
  /// re-run) — the "orphaned region" size the delta actually cost.
  std::uint64_t top_update_pops = 0;
  std::uint64_t changed_edges = 0;     ///< |delta| that drove the rebuild
  std::uint64_t touched_vertices = 0;

  // --- phase wall times (seconds) ---
  double diff_s = 0;      ///< graph diff (package layer)
  double pre_s = 0;       ///< rank + hierarchy sampling + pivots (fresh)
  double analysis_s = 0;  ///< dirty flags + reuse decisions
  double sweep_s = 0;     ///< splice + invalidated-root Dijkstras
  /// sweep_s by branch (the loop's share; sweep_s adds its setup):
  double sweep_top_s = 0;     ///< top-level distance update, tree, consume
  double sweep_lower_s = 0;   ///< lower-level restricted re-runs, consume
  double sweep_splice_s = 0;  ///< reused trees spliced from the previous
  double finalize_s = 0;  ///< table/label finalization
  double total_s = 0;

  /// Fraction of cluster trees reused verbatim (0 when nothing ran).
  double reuse_ratio() const noexcept {
    return clusters_total == 0
               ? 0.0
               : static_cast<double>(clusters_reused) /
                     static_cast<double>(clusters_total);
  }
};

/// Rebuilds a scheme over \p g — the perturbed topology — reusing every
/// cluster SPT of \p previous that \p delta provably leaves untouched.
/// \p rng must carry the same seed as a fresh build would use; the
/// incremental path consumes the stream identically (rank + hierarchy
/// sampling), which is what makes the result byte-identical to
/// `TZScheme(g, options, rng)` on every input.
///
/// Requirements (checked): \p delta.n == g.num_vertices() == previous
/// graph's, and \p options match the previous scheme's construction
/// options (same k, sampling mode, hash/label switches). Callers that
/// cannot guarantee compatibility use build_scheme_package_incremental,
/// which falls back to a full build instead.
TZScheme rebuild_tz_incremental(const TZScheme& previous, const Graph& g,
                                const GraphDelta& delta,
                                const TZSchemeOptions& options, Rng& rng,
                                IncrementalRebuildStats* stats = nullptr);

}  // namespace croute
