#include "core/scheme_io.hpp"

#include <fstream>

#include "util/assert.hpp"
#include "util/serialize.hpp"

namespace croute {

namespace {

constexpr std::uint64_t kMagic = 0x63726F7574657A31ULL;  // "croutez1"
constexpr std::uint32_t kVersion = 1;

// Smallest on-disk size of one element, for SpanReader::count: a table
// entry is 12 fixed fields; a label entry is 4 fixed fields plus the
// u64 count of its light-port array.
constexpr std::uint64_t kTableEntryBytes = 4 * 2 + 8 + 4 * 7 + 4 * 2;
constexpr std::uint64_t kLabelEntryBytes = 4 * 2 + 8 + 4 + 8;
constexpr std::uint64_t kMaxLabelEntries = 64;

}  // namespace

std::uint64_t graph_fingerprint(const Graph& g) {
  // Order-independent over arcs (XOR of per-arc mixes) plus the counts;
  // weight bits participate so a reweighted graph is a different network.
  std::uint64_t h = mix64(g.num_vertices()) ^ mix64(g.num_edges() + 1);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const Arc& a : g.arcs(v)) {
      std::uint64_t wbits;
      static_assert(sizeof(Weight) == 8);
      std::memcpy(&wbits, &a.weight, 8);
      h ^= mix64((std::uint64_t{v} << 32) ^ a.head) + mix64(wbits);
    }
  }
  return h;
}

/// Befriended by TZScheme, TZPreprocessing, VertexTable, ClusterDirectory:
/// the only code with cross-class layout knowledge.
class SchemeSerializer {
 public:
  static void save(BufferWriter& w, const TZScheme& s) {
    w.u64(kMagic);
    w.u32(kVersion);
    w.u64(graph_fingerprint(*s.g_));

    // Options.
    w.u32(s.options_.pre.k);
    w.u8(s.options_.pre.hierarchy.mode == SamplingMode::kCentered ? 1 : 0);
    w.f64(s.options_.pre.hierarchy.cap_factor);
    w.u32(s.options_.pre.hierarchy.max_rounds);
    w.u8(s.options_.hash_index ? 1 : 0);
    w.u8(s.options_.labels_carry_distances ? 1 : 0);

    // Preprocessing: rank, hierarchy, pivots.
    const TZPreprocessing& pre = s.pre_;
    w.vec_u32(pre.rank_);
    w.u32(pre.hierarchy_.k);
    for (const auto& level : pre.hierarchy_.levels) w.vec_u32(level);
    w.vec_u32(pre.hierarchy_.level_of);
    w.u64(pre.pivots_.size());
    for (const MultiSourceResult& ms : pre.pivots_) {
      w.vec_f64(ms.dist);
      w.vec_u32(ms.owner);
      w.vec_u32(ms.parent);
      w.vec_u32(ms.parent_port);
    }

    // Codecs.
    w.u32(s.tree_codec_.dfs_bits);
    w.u32(s.tree_codec_.port_bits);

    // Tables.
    w.u64(s.tables_.size());
    for (const VertexTable& t : s.tables_) {
      w.u64(t.entries_.size());
      for (const TableEntry& e : t.entries_) {
        w.u32(e.w);
        w.u32(e.level);
        w.f64(e.dist);
        w.u32(e.record.dfs_in);
        w.u32(e.record.dfs_out);
        w.u32(e.record.heavy_in);
        w.u32(e.record.heavy_out);
        w.u32(e.record.heavy_port);
        w.u32(e.record.parent_port);
        w.u32(e.record.light_depth);
        w.u32(e.light_off);
        w.u32(e.light_len);
      }
      w.vec_u32(t.light_pool_);
      w.u64(t.bit_size_);
    }

    // Directories.
    w.u64(s.dirs_.size());
    for (const ClusterDirectory& d : s.dirs_) {
      w.vec_u32(d.ts_);
      w.vec_u32(d.dfs_);
      w.vec_u32(d.light_off_);
      w.vec_u32(d.pool_);
      w.u64(d.bit_size_);
    }

    // Labels.
    w.u64(s.labels_.size());
    for (const RoutingLabel& l : s.labels_) {
      w.u32(l.t);
      w.u64(l.entries.size());
      for (const LabelEntry& e : l.entries) {
        w.u32(e.level);
        w.u32(e.w);
        w.f64(e.dist);
        w.u32(e.tree.dfs_in);
        w.vec_u32(e.tree.light_ports);
      }
    }
  }

  static TZScheme load(SpanReader& r, const Graph& g) {
    CROUTE_REQUIRE(r.u64() == kMagic, "not a croute scheme stream");
    CROUTE_REQUIRE(r.u32() == kVersion, "unsupported scheme version");
    CROUTE_REQUIRE(r.u64() == graph_fingerprint(g),
                   "scheme was built for a different graph");

    TZScheme s;
    s.g_ = &g;
    s.options_.pre.k = r.u32();
    s.options_.pre.hierarchy.mode =
        r.u8() != 0 ? SamplingMode::kCentered : SamplingMode::kBernoulli;
    s.options_.pre.hierarchy.cap_factor = r.f64();
    s.options_.pre.hierarchy.max_rounds = r.u32();
    s.options_.hash_index = r.u8() != 0;
    s.options_.labels_carry_distances = r.u8() != 0;

    TZPreprocessing& pre = s.pre_;
    pre.g_ = &g;
    pre.rank_ = r.vec_u32<std::uint32_t>();
    pre.hierarchy_.k = r.u32();
    CROUTE_REQUIRE(pre.hierarchy_.k >= 1 && pre.hierarchy_.k <= 64,
                   "implausible hierarchy height");
    pre.hierarchy_.levels.resize(pre.hierarchy_.k);
    for (auto& level : pre.hierarchy_.levels) {
      level = r.vec_u32<VertexId>();
    }
    pre.hierarchy_.level_of = r.vec_u32<std::uint32_t>();
    const std::uint64_t num_pivots = r.u64();
    CROUTE_REQUIRE(num_pivots == pre.hierarchy_.k,
                   "pivot level count mismatch");
    pre.pivots_.resize(num_pivots);
    for (MultiSourceResult& ms : pre.pivots_) {
      ms.dist = r.vec_f64();
      ms.owner = r.vec_u32<VertexId>();
      ms.parent = r.vec_u32<VertexId>();
      ms.parent_port = r.vec_u32<Port>();
    }

    s.tree_codec_.dfs_bits = r.u32();
    s.tree_codec_.port_bits = r.u32();
    s.codec_ = LabelCodec(g.num_vertices(), g.max_degree(),
                          s.options_.labels_carry_distances);

    const std::uint64_t num_tables = r.u64();
    CROUTE_REQUIRE(num_tables == g.num_vertices(), "table count mismatch");
    s.tables_.resize(num_tables);
    Rng hash_rng(graph_fingerprint(g) ^ 0x68617368u);  // derived state only
    for (VertexTable& t : s.tables_) {
      t.entries_.resize(r.count(kTableEntryBytes));
      for (TableEntry& e : t.entries_) {
        e.w = r.u32();
        e.level = r.u32();
        e.dist = r.f64();
        e.record.dfs_in = r.u32();
        e.record.dfs_out = r.u32();
        e.record.heavy_in = r.u32();
        e.record.heavy_out = r.u32();
        e.record.heavy_port = r.u32();
        e.record.parent_port = r.u32();
        e.record.light_depth = r.u32();
        e.light_off = r.u32();
        e.light_len = r.u32();
      }
      t.light_pool_ = r.vec_u32<Port>();
      t.bit_size_ = r.u64();
      if (s.options_.hash_index) t.build_hash_index(hash_rng);
    }

    const std::uint64_t num_dirs = r.u64();
    CROUTE_REQUIRE(num_dirs == g.num_vertices(), "directory count mismatch");
    s.dirs_.resize(num_dirs);
    for (ClusterDirectory& d : s.dirs_) {
      d.ts_ = r.vec_u32<VertexId>();
      d.dfs_ = r.vec_u32<std::uint32_t>();
      d.light_off_ = r.vec_u32<std::uint32_t>();
      d.pool_ = r.vec_u32<Port>();
      d.bit_size_ = r.u64();
      CROUTE_REQUIRE(d.dfs_.size() == d.ts_.size() &&
                         (d.ts_.empty() ||
                          d.light_off_.size() == d.ts_.size() + 1),
                     "corrupt directory block");
    }

    const std::uint64_t num_labels = r.u64();
    CROUTE_REQUIRE(num_labels == g.num_vertices(), "label count mismatch");
    s.labels_.resize(num_labels);
    for (RoutingLabel& l : s.labels_) {
      l.t = r.u32();
      const std::uint64_t entries = r.count(kLabelEntryBytes);
      CROUTE_REQUIRE(entries >= 1 && entries <= kMaxLabelEntries,
                     "corrupt label block");
      l.entries.resize(entries);
      for (LabelEntry& e : l.entries) {
        e.level = r.u32();
        e.w = r.u32();
        e.dist = r.f64();
        e.tree.dfs_in = r.u32();
        e.tree.light_ports = r.vec_u32<Port>();
      }
    }
    return s;
  }
};

void save_scheme(const TZScheme& scheme, std::string& out) {
  BufferWriter w(out);
  SchemeSerializer::save(w, scheme);
}

std::string save_scheme(const TZScheme& scheme) {
  std::string out;
  save_scheme(scheme, out);
  return out;
}

TZScheme load_scheme(std::string_view bytes, const Graph& g) {
  SpanReader r(bytes);
  TZScheme s = SchemeSerializer::load(r, g);
  CROUTE_REQUIRE(r.done(), std::to_string(r.remaining()) +
                               " trailing bytes after the scheme");
  return s;
}

void save_scheme_file(const std::string& path, const TZScheme& scheme) {
  const std::string bytes = save_scheme(scheme);
  std::ofstream os(path, std::ios::binary);
  CROUTE_REQUIRE(os.good(), "cannot open " + path + " for writing");
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  os.close();  // flushes; a failed flush must surface here
  CROUTE_REQUIRE(!os.fail(), "write failed for " + path);
}

TZScheme load_scheme_file(const std::string& path, const Graph& g) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  const std::streamoff size = is.tellg();
  CROUTE_REQUIRE(is.good() && size >= 0, "cannot open " + path);
  std::string bytes(static_cast<std::size_t>(size), '\0');
  is.seekg(0);
  is.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  CROUTE_REQUIRE(is.good(), "cannot read " + path);
  return load_scheme(bytes, g);
}

}  // namespace croute
