// Cross-ISA equivalence suite for the SIMD dispatch layer (src/simd/).
//
// Two levels:
//  - kernel level: every compiled-in, CPU-supported implementation must
//    return byte-identical outputs to the scalar reference
//    (flat_detail::eytzinger_find) on randomized probe batches — ragged
//    counts, empty slices at pool end, missing keys, mixed lane
//    retirement times;
//  - engine level (the one oracle): forcing each implementation,
//    RouteService::route must serve byte-identical answers (same_route:
//    status, length, hops, header bits, stretch, path) to the paper's
//    sim/ reference walk for every scheme kind, G ∈ {16, 32, 64} and
//    threads ∈ {1, 4}; route_one's scalar walk is held to the same
//    reference once per kind.
//
// Plus the dispatcher contract: name round-trips, generic always
// available, force() refusing unavailable ISAs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/flat_scheme.hpp"
#include "reference_walk.hpp"
#include "service/route_service.hpp"
#include "service/workload.hpp"
#include "sim/experiment.hpp"
#include "simd/simd.hpp"
#include "util/random.hpp"

namespace croute {
namespace {

/// Every implementation this binary + CPU can actually run.
std::vector<simd::Isa> usable_isas() {
  std::vector<simd::Isa> out;
  for (const simd::Isa isa : simd::compiled()) {
    if (simd::available(isa)) out.push_back(isa);
  }
  return out;
}

/// Restores the auto-selected implementation after a forcing test.
struct IsaGuard {
  simd::Isa initial = simd::selected();
  ~IsaGuard() { simd::force(initial); }
};

TEST(SimdDispatch, NamesRoundTripAndGenericAlwaysUsable) {
  for (const simd::Isa isa :
       {simd::Isa::kGeneric, simd::Isa::kAVX2, simd::Isa::kNEON}) {
    const auto parsed = simd::isa_from_name(simd::isa_name(isa));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, isa);
  }
  EXPECT_FALSE(simd::isa_from_name("avx512").has_value());
  EXPECT_FALSE(simd::isa_from_name("sse42").has_value());
  EXPECT_FALSE(simd::isa_from_name("").has_value());
  EXPECT_FALSE(simd::isa_from_name("GENERIC").has_value());

  EXPECT_TRUE(simd::available(simd::Isa::kGeneric));
  const auto compiled = simd::compiled();
  EXPECT_NE(std::find(compiled.begin(), compiled.end(), simd::Isa::kGeneric),
            compiled.end());

  IsaGuard guard;
  EXPECT_TRUE(simd::force(simd::Isa::kGeneric));
  EXPECT_EQ(simd::selected(), simd::Isa::kGeneric);
  // Forcing an unavailable implementation fails and leaves the selection
  // untouched.
  for (const simd::Isa isa : {simd::Isa::kAVX2, simd::Isa::kNEON}) {
    if (!simd::available(isa)) {
      EXPECT_FALSE(simd::force(isa));
      EXPECT_EQ(simd::selected(), simd::Isa::kGeneric);
    }
  }
  // The selected table always carries the kernel.
  EXPECT_NE(simd::ops().eytzinger_batch, nullptr);
}

// Randomized slice batches: every ISA's eytzinger_batch must equal the
// scalar flat_detail::eytzinger_find lane for lane. Slices get wildly
// different lengths (including 0 — one at the very end of the pool, so a
// kernel touching a retired lane's memory would read out of bounds) to
// force lanes to retire at different descent depths.
TEST(SimdKernels, EytzingerBatchMatchesScalarOnEveryIsa) {
  Rng rng(1234);
  std::vector<std::uint32_t> keys, offs, lens, xs;
  for (std::uint32_t lane = 0; lane < 300; ++lane) {
    const auto len = static_cast<std::uint32_t>(rng.next_below(40));
    offs.push_back(static_cast<std::uint32_t>(keys.size()));
    lens.push_back(len);
    for (std::uint32_t i = 0; i < len; ++i) {
      keys.push_back(static_cast<std::uint32_t>(
          rng.next_below(std::uint64_t{1} << 32)));
    }
    // Half the lanes search a key actually present somewhere in the
    // slice; the rest search random values (usually misses).
    if (len > 0 && rng.next_bernoulli(0.5)) {
      xs.push_back(keys[offs.back() + static_cast<std::uint32_t>(
                                          rng.next_below(len))]);
    } else {
      xs.push_back(static_cast<std::uint32_t>(
          rng.next_below(std::uint64_t{1} << 32)));
    }
  }
  // Empty slice whose offset is the pool end (nothing to read there).
  offs.push_back(static_cast<std::uint32_t>(keys.size()));
  lens.push_back(0);
  xs.push_back(7);

  const auto count = static_cast<std::uint32_t>(offs.size());
  std::vector<std::uint32_t> expect(count);
  for (std::uint32_t l = 0; l < count; ++l) {
    expect[l] =
        flat_detail::eytzinger_find(keys.data() + offs[l], lens[l], xs[l]);
  }
  IsaGuard guard;
  for (const simd::Isa isa : usable_isas()) {
    const char* name = simd::isa_name(isa);
    ASSERT_TRUE(simd::force(isa)) << name;
    // Ragged sub-batches exercise both the vector main loop and the
    // scalar tail at several alignments.
    for (const std::uint32_t sub : {0u, 1u, 3u, 7u, 8u, 9u, 31u, count}) {
      std::vector<std::uint32_t> out(sub, 0xDEAD);
      simd::ops().eytzinger_batch(keys.data(), offs.data(), lens.data(),
                                  xs.data(), out.data(), sub);
      for (std::uint32_t l = 0; l < sub; ++l) {
        ASSERT_EQ(out[l], expect[l])
            << name << " lane " << l << " of " << sub;
      }
    }
  }
}

// The one oracle, on the path that serves traffic: forced ISA × scheme
// kind × batch group × thread count, every RouteService::route answer
// compared against the sim/ reference walk. One service per (kind, G,
// threads) is reused across ISAs — the engine re-reads simd::ops() per
// probe round, so a force takes effect on the next batch. Per kind the
// queries walk both top-level trees (dense block) and lower-level ones
// (searched slices), so every cell of the matrix runs both branches.
TEST(SimdEngine, RoutesMatchReferenceWalkOnEveryIsa) {
  Rng grng(171);
  const Graph g = make_workload(GraphFamily::kErdosRenyi, 220, grng);
  Rng prng(172);
  const std::vector<PairSample> pairs = sample_pairs(g, 330, prng);
  std::vector<RouteQuery> queries;
  for (const auto& p : pairs) queries.push_back({p.s, p.t, p.exact});
  for (VertexId v = 0; v < 5; ++v) {  // self-queries retire at lane issue
    queries.insert(queries.begin() + 29 * (v + 1), RouteQuery{v, v, 0.0});
  }

  IsaGuard guard;
  const std::vector<simd::Isa> isas = usable_isas();
  ASSERT_FALSE(isas.empty());
  for (const SchemeKind kind :
       {SchemeKind::kTZDirect, SchemeKind::kTZHandshake}) {
    RouteServiceOptions opt;
    opt.scheme = kind;
    opt.k = 3;
    opt.seed = 173;
    opt.record_paths = true;
    const ReferenceWalk ref = reference_walk(g, opt, queries);
    {
      // route_one keeps its own scalar walk, which depends on neither
      // the ISA nor G: once per kind covers it.
      const RouteService service(g, opt);
      const TreeMix mix = tree_mix(*service.package(), kind, queries);
      EXPECT_GT(mix.top, 0u) << scheme_name(kind);
      EXPECT_GT(mix.lower, 0u) << scheme_name(kind);
      for (std::size_t i = 0; i < queries.size(); ++i) {
        ASSERT_TRUE(same_route(ref.answers[i], service.route_one(queries[i])))
            << scheme_name(kind) << " route_one diverges at query " << i;
      }
    }
    for (const std::uint32_t group : {16u, 32u, 64u}) {
      for (const unsigned threads : {1u, 4u}) {
        opt.batch_group = group;
        opt.threads = threads;
        RouteService service(g, opt);
        for (const simd::Isa isa : isas) {
          ASSERT_TRUE(simd::force(isa));
          const std::vector<RouteAnswer> answers =
              service.route_collect(queries);
          ASSERT_EQ(answers.size(), ref.answers.size());
          for (std::size_t i = 0; i < answers.size(); ++i) {
            ASSERT_TRUE(same_route(ref.answers[i], answers[i]))
                << scheme_name(kind) << " G=" << group
                << " threads=" << threads << " isa=" << simd::isa_name(isa)
                << " diverges at query " << i;
          }
        }
      }
    }
  }
}

// Non-power-of-two pipeline groups, 0 included, must be rejected up
// front with a clear error, by the service and by the package builder
// alike (the sweep grid and the CLI flags promise powers of two).
TEST(SimdEngine, ServiceRejectsNonPowerOfTwoBatchGroup) {
  Rng grng(11);
  const Graph g = make_workload(GraphFamily::kErdosRenyi, 40, grng);
  const auto graph = std::make_shared<const Graph>(g);
  RouteServiceOptions opt;
  opt.threads = 1;
  opt.seed = 12;
  for (const std::uint32_t bad : {24u, 0u}) {
    opt.batch_group = bad;
    EXPECT_THROW(RouteService(g, opt), std::invalid_argument) << bad;
    EXPECT_THROW(build_scheme_package(graph, opt), std::invalid_argument)
        << bad;
    EXPECT_THROW(build_scheme_package_incremental(nullptr, graph, opt),
                 std::invalid_argument)
        << bad;
  }
  opt.batch_group = 1;  // 2^0: one lane, still the engine
  EXPECT_NO_THROW(RouteService(g, opt));
}

}  // namespace
}  // namespace croute
