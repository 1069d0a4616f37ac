// Tests for core/scheme_io: loaded schemes must be behaviorally identical
// to the originals (headers, hops, space accounting), and the loader must
// reject wrong graphs, corrupt streams, and version mismatches.

#include "core/scheme_io.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "core/tz_router.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"
#include "util/random.hpp"

namespace croute {
namespace {

TZScheme make_scheme(const Graph& g, std::uint32_t k, std::uint64_t seed,
                     bool hash_index = false, bool carry = false) {
  Rng rng(seed);
  TZSchemeOptions opt;
  opt.pre.k = k;
  opt.hash_index = hash_index;
  opt.labels_carry_distances = carry;
  return TZScheme(g, opt, rng);
}

TEST(SchemeIo, RoundTripPreservesEveryHeaderAndTable) {
  Rng graph_rng(1);
  const Graph g =
      largest_component(erdos_renyi_gnm(150, 600, graph_rng)).graph;
  const TZScheme original = make_scheme(g, 3, 7);

  const TZScheme loaded = load_scheme(save_scheme(original), g);

  ASSERT_EQ(loaded.k(), original.k());
  const TZRouter r1(original), r2(loaded);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(loaded.table(v).size(), original.table(v).size());
    ASSERT_EQ(loaded.table_bits(v), original.table_bits(v));
    ASSERT_EQ(loaded.label_bits(v), original.label_bits(v));
  }
  for (VertexId s = 0; s < g.num_vertices(); s += 7) {
    for (VertexId t = 0; t < g.num_vertices(); t += 5) {
      const TZHeader h1 = r1.prepare(s, original.label(t));
      const TZHeader h2 = r2.prepare(s, loaded.label(t));
      ASSERT_EQ(h1.tree_root, h2.tree_root);
      ASSERT_EQ(h1.tree_label, h2.tree_label);
      const TZHeader hs1 = r1.prepare_handshake(s, t);
      const TZHeader hs2 = r2.prepare_handshake(s, t);
      ASSERT_EQ(hs1.tree_root, hs2.tree_root);
      ASSERT_EQ(hs1.tree_label, hs2.tree_label);
    }
  }
}

TEST(SchemeIo, LoadedSchemeRoutesIdentically) {
  Rng rng(2);
  const Graph g = make_workload(GraphFamily::kBarabasiAlbert, 400, rng);
  const TZScheme original = make_scheme(g, 2, 9);
  const TZScheme loaded = load_scheme(save_scheme(original), g);
  const Simulator sim(g);
  const auto pairs = sample_pairs(g, 400, rng);
  for (const auto& p : pairs) {
    const RouteResult a = route_tz(sim, original, p.s, p.t);
    const RouteResult b = route_tz(sim, loaded, p.s, p.t);
    ASSERT_TRUE(b.delivered());
    ASSERT_EQ(a.path, b.path);
    ASSERT_EQ(a.header_bits, b.header_bits);
  }
}

TEST(SchemeIo, HashIndexRebuiltOnLoad) {
  Rng graph_rng(3);
  const Graph g =
      largest_component(erdos_renyi_gnm(80, 320, graph_rng)).graph;
  const TZScheme original = make_scheme(g, 3, 11, /*hash_index=*/true);
  const TZScheme loaded = load_scheme(save_scheme(original), g);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_TRUE(loaded.table(v).has_hash_index());
    for (const TableEntry& e : original.table(v).entries()) {
      ASSERT_NE(loaded.lookup(v, e.w), nullptr);
    }
  }
}

TEST(SchemeIo, CarriedDistancesSurvive) {
  Rng graph_rng(4);
  const Graph g =
      largest_component(erdos_renyi_gnm(60, 240, graph_rng)).graph;
  const TZScheme original =
      make_scheme(g, 3, 13, false, /*carry=*/true);
  const TZScheme loaded = load_scheme(save_scheme(original), g);
  for (VertexId t = 0; t < g.num_vertices(); ++t) {
    const auto& a = original.label(t).entries;
    const auto& b = loaded.label(t).entries;
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].dist, b[i].dist);
    }
  }
  // kMinEstimate still works on the loaded scheme.
  const TZRouter router(loaded);
  EXPECT_NO_THROW(
      router.prepare(0, loaded.label(1), RoutingPolicy::kMinEstimate));
}

TEST(SchemeIo, WrongGraphRejected) {
  Rng graph_rng(5);
  const Graph g =
      largest_component(erdos_renyi_gnm(70, 280, graph_rng)).graph;
  const Graph other =
      largest_component(erdos_renyi_gnm(70, 280, graph_rng)).graph;
  const TZScheme original = make_scheme(g, 2, 15);
  EXPECT_THROW(load_scheme(save_scheme(original), other),
               std::invalid_argument);
}

TEST(SchemeIo, ReweightedGraphRejected) {
  GraphBuilder b1(3), b2(3);
  b1.add_edge(0, 1, 1.0).add_edge(1, 2, 1.0);
  b2.add_edge(0, 1, 1.0).add_edge(1, 2, 2.0);
  const Graph g1 = b1.build(), g2 = b2.build();
  const TZScheme original = make_scheme(g1, 2, 17);
  EXPECT_THROW(load_scheme(save_scheme(original), g2), std::invalid_argument);
}

TEST(SchemeIo, TruncatedStreamRejected) {
  Rng graph_rng(6);
  const Graph g =
      largest_component(erdos_renyi_gnm(50, 200, graph_rng)).graph;
  const TZScheme original = make_scheme(g, 2, 19);
  const std::string full = save_scheme(original);
  for (const double frac : {0.1, 0.5, 0.9, 0.999}) {
    const std::string cut = full.substr(
        0, static_cast<std::size_t>(static_cast<double>(full.size()) * frac));
    EXPECT_THROW(load_scheme(cut, g), std::invalid_argument)
        << "fraction " << frac;
  }
}

TEST(SchemeIo, GarbageRejected) {
  const Graph g = path_graph(4);
  EXPECT_THROW(load_scheme("this is not a scheme", g), std::invalid_argument);
}

/// Byte offsets of two element counts in save_scheme output, derived
/// from the layout in core/scheme_io.cpp: the first vertex table's entry
/// count, and the first routing label's entry count.
struct CountOffsets {
  std::size_t first_table = 0;
  std::size_t first_label = 0;
};

CountOffsets count_offsets(const TZScheme& s, std::size_t total_bytes) {
  const std::size_t n = s.graph().num_vertices();
  const LandmarkHierarchy& h = s.preprocessing().hierarchy();
  std::size_t off = 8 + 4 + 8;      // magic, version, fingerprint
  off += 4 + 1 + 8 + 4 + 1 + 1;     // options
  off += 8 + 4 * n;                 // rank
  off += 4;                         // hierarchy height
  for (const auto& level : h.levels) off += 8 + 4 * level.size();
  off += 8 + 4 * n;                 // level_of
  off += 8;                         // pivot level count
  off += h.k * ((8 + 8 * n) + 3 * (8 + 4 * n));  // dist, owner, parent, port
  off += 4 + 4;                     // tree codec
  off += 8;                         // table count
  CountOffsets c;
  c.first_table = off;
  // Labels close the stream: walk back over all of them.
  std::size_t labels = 0;
  for (VertexId t = 0; t < n; ++t) {
    labels += 4 + 8;  // target, entry count
    for (const LabelEntry& e : s.label(t).entries) {
      labels += 4 + 4 + 8 + 4 + 8 + 4 * e.tree.light_ports.size();
    }
  }
  c.first_label = total_bytes - labels + 4;
  return c;
}

std::uint64_t read_u64(const std::string& bytes, std::size_t at) {
  std::uint64_t v = 0;
  std::memcpy(&v, bytes.data() + at, 8);
  return v;
}

TEST(SchemeIo, HostileCountsThrowInvalidArgumentBeforeAllocating) {
  // A count is checked against the bytes left before anything is sized
  // from it: 2^24 table entries would otherwise allocate ~900 MiB, and
  // 2^40 would escape as std::bad_alloc.
  Rng graph_rng(8);
  const Graph g =
      largest_component(erdos_renyi_gnm(120, 480, graph_rng)).graph;
  const TZScheme original = make_scheme(g, 3, 23);
  const std::string bytes = save_scheme(original);
  const CountOffsets at = count_offsets(original, bytes.size());
  ASSERT_EQ(read_u64(bytes, at.first_table), original.table(0).size());
  ASSERT_EQ(read_u64(bytes, at.first_label),
            original.label(0).entries.size());
  for (const std::size_t offset : {at.first_table, at.first_label}) {
    for (const std::uint64_t count :
         {std::uint64_t{65}, std::uint64_t{1} << 24, std::uint64_t{1} << 40,
          ~std::uint64_t{0}}) {
      if (offset == at.first_table && count == 65) continue;  // plausible
      std::string mut = bytes;
      std::memcpy(mut.data() + offset, &count, 8);
      EXPECT_THROW(load_scheme(mut, g), std::invalid_argument)
          << "count " << count << " at byte " << offset;
    }
  }
}

TEST(SchemeIo, TrailingBytesRejected) {
  Rng graph_rng(9);
  const Graph g =
      largest_component(erdos_renyi_gnm(40, 160, graph_rng)).graph;
  const std::string bytes = save_scheme(make_scheme(g, 2, 25)) + "x";
  EXPECT_THROW(load_scheme(bytes, g), std::invalid_argument);
}

TEST(SchemeIo, FileRoundTrip) {
  Rng graph_rng(7);
  const Graph g =
      largest_component(erdos_renyi_gnm(40, 160, graph_rng)).graph;
  const TZScheme original = make_scheme(g, 2, 21);
  const std::string path = "/tmp/croute_scheme_io_test.bin";
  save_scheme_file(path, original);
  const TZScheme loaded = load_scheme_file(path, g);
  EXPECT_EQ(loaded.total_table_bits(), original.total_table_bits());
  std::remove(path.c_str());
}

TEST(SchemeIo, FingerprintIsOrderIndependentButStructureSensitive) {
  GraphBuilder b1(3), b2(3);
  b1.add_edge(0, 1).add_edge(1, 2);
  b2.add_edge(1, 2).add_edge(0, 1);  // same edges, different insertion order
  EXPECT_EQ(graph_fingerprint(b1.build()), graph_fingerprint(b2.build()));
  GraphBuilder b3(3);
  b3.add_edge(0, 1).add_edge(0, 2);  // different structure
  EXPECT_NE(graph_fingerprint(b1.build()), graph_fingerprint(b3.build()));
}

}  // namespace
}  // namespace croute
