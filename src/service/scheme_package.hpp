/// \file scheme_package.hpp
/// \brief SchemePackage: one immutable, refcounted scheme generation.
///
/// Hot-swapping a routing scheme under live traffic only works if
/// *everything* a query touches — the graph CSR, the TZ preprocessing and
/// the compiled flat view — lives and dies as ONE unit. SchemePackage is
/// that unit:
/// built once by build_scheme_package(), immutable afterwards, and
/// shared via `std::shared_ptr<const SchemePackage>` so the reference
/// count IS the retirement protocol. RouteService publishes a package
/// with an atomic pointer flip (RCU-style); every in-flight batch pins
/// the package it started on, and an old generation is destroyed
/// exactly when its last pinned batch drains — readers never block,
/// swappers never wait for readers.
///
/// Internal ownership order matters and is encoded here: the package
/// owns its Graph (a value copy — rebuilds serve a *different* topology
/// than the caller's original), TZScheme points into that graph,
/// FlatScheme points into the TZScheme, and FlatRouter into the
/// FlatScheme. Destruction runs in reverse member order, so no dangling
/// pointers at teardown.

#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/flat_batch.hpp"
#include "core/flat_scheme.hpp"
#include "core/incremental_rebuild.hpp"
#include "core/tz_scheme.hpp"
#include "graph/graph.hpp"

namespace croute {

/// Which of the paper's two decisions a service serves: Thorup–Zwick
/// without handshake (kTZDirect, stretch ≤ 4k−5) or with it
/// (kTZHandshake, stretch ≤ 2k−1). The batch engine's own enum, so the
/// service hands it over unmapped. Fixed per package; hot swap replaces
/// the graph and the preprocessing, never the scheme kind.
using SchemeKind = FlatServeKind;

const char* scheme_name(SchemeKind kind) noexcept;

/// Parses "tz" / "tz-handshake" (throws on others).
SchemeKind parse_scheme(const std::string& name);

const char* sampling_name(SamplingMode mode) noexcept;

/// Parses "centered" / "bernoulli" (throws on others).
SamplingMode parse_sampling(const std::string& name);

/// Construction-time options for RouteService and for every package a
/// rebuild produces. A generation's content is a function of (graph,
/// scheme, k, sampling, seed); the other fields only change how it is
/// served.
struct RouteServiceOptions {
  SchemeKind scheme = SchemeKind::kTZDirect;
  /// Worker threads (0 = worker_count()).
  unsigned threads = 0;
  /// TZ hierarchy depth.
  std::uint32_t k = 3;
  /// Landmark sampler. Centered (the default) is the
  /// paper's worst-case-table refinement; Bernoulli trades that bound
  /// for a hierarchy that is a pure function of (seed, n) — under
  /// topology churn the landmark set then never flips, which roughly
  /// doubles the SPT reuse the delta-aware rebuild achieves (the
  /// centered sampler loses a few cap-marginal landmarks per delta).
  SamplingMode sampling = SamplingMode::kCentered;
  /// Preprocessing seed (landmark sampling). Rebuilds reuse it, so a
  /// hot-swapped service and a fresh service on the same graph
  /// preprocess byte-identically.
  std::uint64_t seed = 1;
  /// Record full vertex paths in answers (tests want them; throughput
  /// runs usually don't). Paths land in per-worker arenas — see
  /// RouteAnswer::path for the validity contract.
  bool record_paths = false;
  /// Pipeline depth of the batched serving engine (core/flat_batch.hpp):
  /// how many queries' descents one worker keeps in flight, prefetching
  /// each lane's next load while the others compute. A power of two;
  /// every route() batch runs through the engine, and answers are
  /// byte-identical at every depth. 8–16 covers the dev containers we
  /// measure on.
  std::uint32_t batch_group = 16;
  /// Worker threads for the flat compile passes (0 = worker_count(),
  /// 1 = serial). The compiled bytes are identical at every count.
  unsigned compile_threads = 0;
  /// Always-on observability (src/obs/): per-worker latency/queue-wait
  /// histograms, decision counters, and the rebuild trace recorder. The
  /// record path is a couple of relaxed atomic adds per *batch chunk* (not
  /// per query), so the default is on; false drops every obs recording
  /// for apples-to-apples overhead measurements.
  bool metrics = true;
  /// Crash-safe persistence + rebuild-resilience knobs, nested as one
  /// sub-struct (they configure the same src/persist seam and travel
  /// together through CLIs and tests).
  struct PersistOptions {
    /// Optional crash-safe artifact directory (src/persist). When set,
    /// the service recovers the newest valid artifact at construction
    /// instead of preprocessing (degrading gracefully — a corrupt or
    /// incompatible store falls back to a fresh build with a recorded
    /// reason), and persists every generation (initial + rebuilds)
    /// atomically after publishing it. This is the one way a service
    /// starts from disk: it covers both scheme kinds, carries the
    /// generation's own graph, checks the construction options against
    /// the artifact's digest, and survives crashes at any byte (tmp →
    /// fsync → rename + MANIFEST). Empty = persistence off.
    std::string dir;
    /// Artifact generations retained on disk; older ones are unlinked
    /// after each publish (the MANIFEST's live + backup are always
    /// kept).
    std::uint32_t retain = 2;
    /// Retries a failed background rebuild takes before surfacing the
    /// error, with capped exponential backoff (10 ms · 2^attempt, capped
    /// at 500 ms) between attempts. 0 (default) = fail fast on wait().
    /// Either way the service keeps serving the old generation.
    std::uint32_t rebuild_retries = 0;
  };
  PersistOptions persist;

  /// Validates the whole option surface in one place. Returns "" when
  /// every field is consistent, else one actionable message naming the
  /// offending flag and the accepted values. RouteService's constructor
  /// calls it (throwing std::invalid_argument on a non-empty result);
  /// CLIs call it right after parsing so a typo fails before minutes of
  /// preprocessing.
  std::string validate() const;
};

/// One immutable scheme generation: the graph it was built over plus
/// every query-path structure, owned together. Share as
/// `std::shared_ptr<const SchemePackage>`; never mutate after build.
///
/// Both scheme kinds serve from the pooled SoA state in flat/flat_router.
/// The TZ scheme stays beside it: labels, the handshake's pivots and
/// persistence read it.
struct SchemePackage {
  SchemePackage() = default;
  SchemePackage(const SchemePackage&) = delete;
  SchemePackage& operator=(const SchemePackage&) = delete;

  RouteServiceOptions options;  ///< the options this generation was built with
  std::shared_ptr<const Graph> graph;
  std::unique_ptr<const TZScheme> tz;
  std::unique_ptr<const FlatScheme> flat;
  std::unique_ptr<const FlatRouter> flat_router;
  double build_seconds = 0;  ///< wall time of build_scheme_package
  /// Where the flat compile's time/space went — surfaced per swap by the
  /// rebuild telemetry.
  FlatCompileStats flat_stats;
  /// What the delta-aware rebuild reused (used=false for initial builds
  /// and full rebuilds) — the reuse-ratio/phase-timing half of the
  /// rebuild telemetry.
  IncrementalRebuildStats incr_stats;

  /// Bits of routing state the scheme stores at vertex v (space story).
  std::uint64_t table_bits(VertexId v) const;
};

using SchemePackagePtr = std::shared_ptr<const SchemePackage>;

/// Compiles \p pkg.tz into the flat serving view (flat, flat_router,
/// flat_stats) under \p pkg.options. The one place the flat compile's
/// pool is chosen: fresh builds and artifact recovery both call it, so a
/// recovered generation's pools are the pools a fresh build compiles from
/// the same TZ scheme.
void compile_flat_view(SchemePackage& pkg);

/// Preprocesses \p graph under \p options into a fresh package.
/// Deterministic: (graph, options) fixes every byte of the result, so a
/// hot-swapped generation is indistinguishable from a fresh service's.
/// Throws std::invalid_argument with options.validate()'s message when
/// the options are inconsistent. Safe to call from a background thread —
/// it touches nothing shared.
SchemePackagePtr build_scheme_package(std::shared_ptr<const Graph> graph,
                                      const RouteServiceOptions& options);

/// Like build_scheme_package, but delta-aware: diffs \p graph against
/// \p previous's topology and reuses every cluster SPT the delta leaves
/// untouched (core/incremental_rebuild.hpp). The package is
/// byte-identical to build_scheme_package(graph, options) — incremental
/// rebuilds change the cost of a generation, never its content. Falls
/// back to a full build (recording why in incr_stats.fallback_reason)
/// when \p previous is missing or was built for another vertex set or
/// other construction options. Callers that
/// want a full build call build_scheme_package (RebuildMode::kFull).
/// Safe to call from a background thread.
SchemePackagePtr build_scheme_package_incremental(
    SchemePackagePtr previous, std::shared_ptr<const Graph> graph,
    const RouteServiceOptions& options);

}  // namespace croute
