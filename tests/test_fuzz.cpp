// Seeded fuzz / differential tests: random configurations (family, size,
// weights, k) are drawn per seed and every guarantee is asserted on every
// routed pair. Complements the structured sweeps with coverage of odd
// corners: k = 1 and k > log n, extreme weight ranges, dense graphs,
// structured interconnects (hypercube, expander), and scheme/oracle
// consistency on identical preprocessing inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>

#include "baseline/cowen.hpp"
#include "baseline/full_table.hpp"
#include "core/scheme_io.hpp"
#include "core/tz_router.hpp"
#include "core/tz_scheme.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "oracle/distance_oracle.hpp"
#include "persist/artifact.hpp"
#include "service/scheme_package.hpp"
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"
#include "util/random.hpp"

namespace croute {
namespace {

struct FuzzConfig {
  Graph graph;
  std::uint32_t k;
  std::string description;
};

/// Derives a full random configuration from one seed.
FuzzConfig make_config(std::uint64_t seed) {
  Rng rng(mix64(seed));
  FuzzConfig cfg;
  const std::uint64_t family = rng.next_below(8);
  const VertexId n = 60 + static_cast<VertexId>(rng.next_below(200));
  const std::uint64_t weight_kind = rng.next_below(3);
  const WeightModel weights =
      weight_kind == 0   ? WeightModel::unit()
      : weight_kind == 1 ? WeightModel::uniform_real(1e-3, 1e3)
                         : WeightModel::uniform_int(1, 1000000);
  switch (family) {
    case 0:
      cfg.graph = largest_component(
                      erdos_renyi_gnm(n, std::uint64_t{n} * 3, rng, weights))
                      .graph;
      cfg.description = "er";
      break;
    case 1:
      cfg.graph = barabasi_albert(n, 2, rng, weights);
      cfg.description = "ba";
      break;
    case 2:
      cfg.graph = random_tree(n, rng, weights);
      cfg.description = "tree";
      break;
    case 3:
      cfg.graph = complete_graph(std::min<VertexId>(n, 70));
      cfg.description = "complete";
      break;
    case 4:
      cfg.graph = cycle_graph(n);
      cfg.description = "cycle";
      break;
    case 5:
      cfg.graph = hypercube(7, weights);
      cfg.description = "hypercube";
      break;
    case 6:
      cfg.graph = random_regular(n - n % 2, 4, rng, weights);
      cfg.description = "regular";
      break;
    default:
      cfg.graph =
          grid2d(8 + static_cast<VertexId>(rng.next_below(8)), 12, true,
                 rng, weights);
      cfg.description = "torus";
      break;
  }
  cfg.k = 1 + static_cast<std::uint32_t>(rng.next_below(8));  // 1..8
  return cfg;
}

class FuzzSweep : public ::testing::TestWithParam<int> {};

TEST_P(FuzzSweep, AllGuaranteesOnRandomConfiguration) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const FuzzConfig cfg = make_config(seed);
  const Graph& g = cfg.graph;
  ASSERT_GE(g.num_vertices(), 2u) << cfg.description;

  Rng scheme_rng(seed * 1013 + 7);
  TZSchemeOptions opt;
  opt.pre.k = cfg.k;
  const TZScheme scheme(g, opt, scheme_rng);
  Rng oracle_rng(seed * 1013 + 7);
  DistanceOracle::Options oopt;
  oopt.k = cfg.k;
  const DistanceOracle oracle(g, oopt, oracle_rng);

  const Simulator sim(g);
  Rng pair_rng(seed * 31 + 1);
  const auto pairs = sample_pairs(g, 300, pair_rng);
  const double direct_bound = cfg.k == 1 ? 1.0 : 4.0 * cfg.k - 5.0;
  const double hs_bound = 2.0 * cfg.k - 1.0;

  for (const auto& p : pairs) {
    const RouteResult direct = route_tz(sim, scheme, p.s, p.t);
    ASSERT_TRUE(direct.delivered())
        << cfg.description << " k=" << cfg.k << " " << p.s << "->" << p.t;
    ASSERT_GE(direct.length, p.exact - 1e-9 * p.exact)
        << "route shorter than the shortest path?!";
    ASSERT_LE(direct.length, direct_bound * p.exact * (1 + 1e-12) + 1e-9)
        << cfg.description << " k=" << cfg.k;

    const RouteResult hs = route_tz_handshake(sim, scheme, p.s, p.t);
    ASSERT_TRUE(hs.delivered());
    ASSERT_LE(hs.length, hs_bound * p.exact * (1 + 1e-12) + 1e-9);

    const Weight est = oracle.query(p.s, p.t);
    ASSERT_GE(est, p.exact - 1e-9 * p.exact);
    ASSERT_LE(est, hs_bound * p.exact * (1 + 1e-12) + 1e-9);
  }
}

TEST_P(FuzzSweep, PreparationIsDeterministic) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const FuzzConfig cfg = make_config(seed);
  Rng r1(seed), r2(seed);
  TZSchemeOptions opt;
  opt.pre.k = cfg.k;
  const TZScheme a(cfg.graph, opt, r1);
  const TZScheme b(cfg.graph, opt, r2);
  const TZRouter ra(a), rb(b);
  Rng pair_rng(seed + 5);
  const auto pairs = sample_pairs(cfg.graph, 50, pair_rng);
  for (const auto& p : pairs) {
    const TZHeader ha = ra.prepare(p.s, a.label(p.t));
    const TZHeader hb = rb.prepare(p.s, b.label(p.t));
    ASSERT_EQ(ha.tree_root, hb.tree_root);
    ASSERT_EQ(ha.tree_label, hb.tree_label);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep, ::testing::Range(1, 25));

TEST(Determinism, IndependentOfThreadCount) {
  // DESIGN.md promises: same seed => identical schemes regardless of
  // worker count. parallel_for is used by Cowen and full-table
  // construction and by pair sampling; rerun both under 1 and 3 workers.
  Rng graph_rng(99);
  const Graph g =
      largest_component(erdos_renyi_gnm(120, 480, graph_rng)).graph;

  setenv("CROUTE_THREADS", "1", 1);
  Rng c1(5);
  const CowenScheme cowen1(g, c1);
  const FullTableScheme full1(g);
  setenv("CROUTE_THREADS", "3", 1);
  Rng c3(5);
  const CowenScheme cowen3(g, c3);
  const FullTableScheme full3(g);
  unsetenv("CROUTE_THREADS");

  ASSERT_EQ(cowen1.landmarks(), cowen3.landmarks());
  ASSERT_EQ(cowen1.cluster_sizes(), cowen3.cluster_sizes());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(cowen1.table_bits(v), cowen3.table_bits(v));
    ASSERT_EQ(cowen1.label(v).home, cowen3.label(v).home);
    ASSERT_EQ(cowen1.label(v).port_at_home, cowen3.label(v).port_at_home);
    for (VertexId t = 0; t < g.num_vertices(); ++t) {
      ASSERT_EQ(full1.next_hop(v, t), full3.next_hop(v, t));
    }
  }
}

TEST(Fuzz, ArtifactMutationCorpusNeverCrashesOrMisroutes) {
  // Hostile-bytes contract of the persist tier (persist/artifact.hpp):
  // for ANY mutation of a valid artifact, decode either throws a clean
  // std::invalid_argument or — only when the mutation happened to leave
  // the bytes equivalent — produces the identical package. Anything else
  // (a crash, another exception type, a silently different scheme that
  // would mis-route) fails this test. The mutation corpus mixes bit
  // flips, truncations, duplicated slices, zeroed ranges, and splices of
  // two valid artifacts.
  Rng graph_rng(1234);
  const Graph g =
      largest_component(erdos_renyi_gnm(130, 520, graph_rng)).graph;
  RouteServiceOptions opt;
  opt.scheme = SchemeKind::kTZDirect;
  opt.k = 3;
  opt.seed = 55;
  opt.metrics = false;
  const SchemePackagePtr pkg =
      build_scheme_package(std::make_shared<const Graph>(g), opt);
  const std::string bytes = persist::encode_package(*pkg, 1);
  const std::string other = persist::encode_package(*pkg, 2);

  Rng rng(0xa57f00d);
  int rejected = 0;
  for (int iter = 0; iter < 400; ++iter) {
    std::string mut = bytes;
    switch (rng.next_below(5)) {
      case 0: {  // flip 1–8 random bits
        const std::uint64_t flips = 1 + rng.next_below(8);
        for (std::uint64_t i = 0; i < flips; ++i) {
          const std::size_t at = rng.next_below(mut.size());
          mut[at] = static_cast<char>(mut[at] ^ (1u << rng.next_below(8)));
        }
        break;
      }
      case 1:  // truncate anywhere
        mut.resize(rng.next_below(mut.size()));
        break;
      case 2: {  // duplicate a random slice in place (shifts the tail)
        const std::size_t at = rng.next_below(mut.size());
        const std::size_t len =
            1 + rng.next_below(std::min<std::size_t>(4096, mut.size() - at));
        mut.insert(at, mut.substr(at, len));
        break;
      }
      case 3: {  // zero a random range
        const std::size_t at = rng.next_below(mut.size());
        const std::size_t len =
            1 + rng.next_below(std::min<std::size_t>(512, mut.size() - at));
        for (std::size_t i = 0; i < len; ++i) mut[at + i] = '\0';
        break;
      }
      default: {  // splice: head of this artifact + tail of another
        const std::size_t cut = rng.next_below(mut.size());
        mut = bytes.substr(0, cut) + other.substr(
                  std::min(other.size(), static_cast<std::size_t>(cut)));
        break;
      }
    }
    // Zeroing a range that was already zero is an identity mutation; it
    // must decode. Anything that actually changed a byte must be thrown
    // out cleanly — CRC32C at three granularities makes accidental
    // acceptance of a real mutation essentially impossible.
    const bool changed = mut != bytes;
    try {
      const SchemePackagePtr decoded = persist::decode_package(mut, opt);
      ASSERT_FALSE(changed) << "iter " << iter
                            << ": a mutated artifact decoded";
      ASSERT_NE(decoded, nullptr);
    } catch (const std::invalid_argument&) {
      ASSERT_TRUE(changed) << "iter " << iter
                           << ": an untouched artifact was rejected";
      ++rejected;  // the defined failure mode
    }
  }
  EXPECT_GT(rejected, 300);  // the corpus overwhelmingly mutates for real
}

TEST(Fuzz, SchemeBytesMutationCorpusLoadsOrThrowsInvalidArgument) {
  // The same hostile-bytes contract for load_scheme. Scheme files carry
  // no checksum, so the decoder alone stands between a corrupt file and
  // the process: every mutant must either load or throw a clean
  // std::invalid_argument. Any other exception type fails here, and a
  // crash or an out-of-bounds read fails the sanitizer job. Besides the
  // artifact corpus's flips, truncations, duplicated slices and zeroed
  // ranges, this corpus writes hostile values over 8-byte windows, which
  // lands on the stream's element counts.
  Rng graph_rng(4321);
  const Graph g =
      largest_component(erdos_renyi_gnm(130, 520, graph_rng)).graph;
  TZSchemeOptions sopt;
  sopt.pre.k = 3;
  sopt.hash_index = true;  // loading rebuilds the index from mutated keys
  Rng scheme_rng(77);
  const std::string bytes = save_scheme(TZScheme(g, sopt, scheme_rng));
  const std::uint64_t hostile[] = {
      std::uint64_t{1} << 24, std::uint64_t{1} << 32, std::uint64_t{1} << 40,
      std::uint64_t{1} << 62, ~std::uint64_t{0}};

  Rng rng(0x5c4e3e);
  int rejected = 0;
  for (int iter = 0; iter < 600; ++iter) {
    std::string mut = bytes;
    switch (rng.next_below(5)) {
      case 0: {  // flip 1–8 random bits
        const std::uint64_t flips = 1 + rng.next_below(8);
        for (std::uint64_t i = 0; i < flips; ++i) {
          const std::size_t at = rng.next_below(mut.size());
          mut[at] = static_cast<char>(mut[at] ^ (1u << rng.next_below(8)));
        }
        break;
      }
      case 1:  // truncate anywhere
        mut.resize(rng.next_below(mut.size()));
        break;
      case 2: {  // duplicate a random slice in place (shifts the tail)
        const std::size_t at = rng.next_below(mut.size());
        const std::size_t len =
            1 + rng.next_below(std::min<std::size_t>(4096, mut.size() - at));
        mut.insert(at, mut.substr(at, len));
        break;
      }
      case 3: {  // zero a random range
        const std::size_t at = rng.next_below(mut.size());
        const std::size_t len =
            1 + rng.next_below(std::min<std::size_t>(512, mut.size() - at));
        for (std::size_t i = 0; i < len; ++i) mut[at + i] = '\0';
        break;
      }
      default: {  // a hostile count over any 8-byte window
        const std::size_t at = rng.next_below(mut.size() - 8);
        const std::uint64_t v = hostile[rng.next_below(std::size(hostile))];
        std::memcpy(mut.data() + at, &v, 8);
        break;
      }
    }
    try {
      (void)load_scheme(mut, g);
    } catch (const std::invalid_argument&) {
      ++rejected;  // the defined failure mode
    } catch (const std::exception& e) {
      FAIL() << "iter " << iter << ": escaped as a non-invalid_argument "
             << "exception: " << e.what();
    }
  }
  EXPECT_GT(rejected, 400);  // the corpus overwhelmingly breaks the format
}

}  // namespace
}  // namespace croute
