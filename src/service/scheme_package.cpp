#include "service/scheme_package.hpp"

#include <chrono>
#include <stdexcept>

#include "graph/connectivity.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"

namespace croute {

const char* scheme_name(SchemeKind kind) noexcept {
  switch (kind) {
    case SchemeKind::kTZDirect: return "tz";
    case SchemeKind::kTZHandshake: return "tz-handshake";
  }
  return "?";
}

SchemeKind parse_scheme(const std::string& name) {
  if (name == "tz") return SchemeKind::kTZDirect;
  if (name == "tz-handshake" || name == "handshake")
    return SchemeKind::kTZHandshake;
  throw std::invalid_argument("unknown scheme: " + name +
                              " (want tz|tz-handshake)");
}

const char* sampling_name(SamplingMode mode) noexcept {
  return mode == SamplingMode::kCentered ? "centered" : "bernoulli";
}

SamplingMode parse_sampling(const std::string& name) {
  if (name == "centered") return SamplingMode::kCentered;
  if (name == "bernoulli") return SamplingMode::kBernoulli;
  throw std::invalid_argument("unknown sampling mode: " + name +
                              " (want centered|bernoulli)");
}

std::string RouteServiceOptions::validate() const {
  if (batch_group == 0 || (batch_group & (batch_group - 1)) != 0) {
    return "batch_group must be a power of two (e.g. 16, 32, 64); got " +
           std::to_string(batch_group);
  }
  if (k < 1) {
    return "k must be >= 1; got " + std::to_string(k);
  }
  if (k > 64) {
    return "k = " + std::to_string(k) +
           " is past any useful hierarchy depth (want 1..64)";
  }
  if (persist.dir.empty() && persist.retain != 2) {
    return "persist.retain is set but persist.dir is empty — persistence "
           "is off; set persist.dir or drop the retain override";
  }
  if (!persist.dir.empty() && persist.retain < 1) {
    return "persist.retain must be >= 1 (the live artifact itself); got 0";
  }
  return "";
}

std::uint64_t SchemePackage::table_bits(VertexId v) const {
  return tz->table_bits(v);
}

void compile_flat_view(SchemePackage& pkg) {
  CROUTE_REQUIRE(pkg.tz != nullptr, "compile_flat_view needs a TZ scheme");
  // Shard the compile over a transient pool (per-vertex slices are
  // disjoint; the compiled bytes are pool-size-invariant). Serial when
  // only one core is available — the pool would only add queue overhead.
  const unsigned compile_threads = pkg.options.compile_threads != 0
                                       ? pkg.options.compile_threads
                                       : worker_count();
  std::unique_ptr<ThreadPool> compile_pool;
  if (compile_threads > 1) {
    compile_pool = std::make_unique<ThreadPool>(compile_threads);
  }
  pkg.flat = std::make_unique<const FlatScheme>(*pkg.tz, compile_pool.get());
  pkg.flat_router = std::make_unique<const FlatRouter>(*pkg.flat);
  pkg.flat_stats = pkg.flat->compile_stats();
}

namespace {

/// Shared body of the two public builders. When \p previous is non-null
/// the TZ preprocessing runs delta-aware (the caller has already
/// verified compatibility); everything else — flat compile, timings — is
/// identical, as are the produced bytes.
SchemePackagePtr build_package(std::shared_ptr<const Graph> graph,
                               const RouteServiceOptions& options,
                               const SchemePackage* previous,
                               IncrementalRebuildStats incr_stats) {
  using clock = std::chrono::steady_clock;
  CROUTE_REQUIRE(graph != nullptr, "build_scheme_package needs a graph");
  // User input (a CLI flag combination) can land here: one actionable
  // message from the options' own check, the same one the service's
  // constructor and the CLIs report.
  const std::string invalid = options.validate();
  if (!invalid.empty()) throw std::invalid_argument(invalid);
  const Graph& g = *graph;
  CROUTE_REQUIRE(g.num_vertices() >= 2, "RouteService needs >= 2 vertices");
  CROUTE_REQUIRE(is_connected(g),
                 "RouteService requires a connected graph (route per "
                 "component via PartitionedScheme upstream)");

  const auto begin = clock::now();
  auto pkg = std::make_shared<SchemePackage>();
  pkg->options = options;
  pkg->graph = std::move(graph);
  TZSchemeOptions opt;
  opt.pre.k = options.k;
  opt.pre.hierarchy.mode = options.sampling;
  Rng rng(options.seed);
  if (previous != nullptr) {
    const auto diff_begin = clock::now();
    const GraphDelta delta = diff_graphs(*previous->graph, g);
    incr_stats.diff_s =
        std::chrono::duration<double>(clock::now() - diff_begin).count();
    pkg->tz = std::make_unique<const TZScheme>(rebuild_tz_incremental(
        *previous->tz, g, delta, opt, rng, &incr_stats));
  } else {
    pkg->tz = std::make_unique<const TZScheme>(g, opt, rng);
  }
  compile_flat_view(*pkg);
  pkg->incr_stats = incr_stats;
  pkg->build_seconds = std::chrono::duration<double>(clock::now() - begin).count();
  return pkg;
}

}  // namespace

SchemePackagePtr build_scheme_package(std::shared_ptr<const Graph> graph,
                                      const RouteServiceOptions& options) {
  return build_package(std::move(graph), options, nullptr, {});
}

SchemePackagePtr build_scheme_package_incremental(
    SchemePackagePtr previous, std::shared_ptr<const Graph> graph,
    const RouteServiceOptions& options) {
  // Every fallback keeps the build correct (full preprocessing produces
  // the same bytes); the reason is recorded so telemetry can say why a
  // rebuild did not reuse.
  const char* fallback = nullptr;
  if (previous == nullptr || previous->tz == nullptr ||
      previous->graph == nullptr) {
    fallback = "no previous generation";
  } else if (previous->graph->num_vertices() != graph->num_vertices()) {
    fallback = "vertex set changed";
  } else if (previous->options.k != options.k ||
             previous->options.seed != options.seed ||
             previous->options.sampling != options.sampling) {
    fallback = "construction options changed";
  }
  if (fallback != nullptr) {
    IncrementalRebuildStats stats;
    stats.fallback_reason = fallback;
    return build_package(std::move(graph), options, nullptr, stats);
  }
  return build_package(std::move(graph), options, previous.get(), {});
}

}  // namespace croute
