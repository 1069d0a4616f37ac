#include "persist/artifact.hpp"

#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/scheme_io.hpp"
#include "simd/simd.hpp"
#include "util/crc32c.hpp"
#include "util/random.hpp"
#include "util/serialize.hpp"

namespace croute {
namespace {

/// "croutea1" as a little-endian u64 (artifact, format family 1).
constexpr std::uint64_t kMagic = 0x31616574756F7263ULL;

// Section ids. The loader locates sections by id, so the order on disk
// is irrelevant (relocatable) and unknown future ids are a clean
// version-skew error, never an out-of-bounds read. Ids 3–5 named
// sections of older formats; they are not reused.
constexpr std::uint32_t kSecGraph = 1;  ///< edge list, rebuilt via GraphBuilder
constexpr std::uint32_t kSecTZ = 2;     ///< scheme_io bytes (TZ preprocessing)

constexpr std::uint32_t kMaxSections = 16;
constexpr std::uint32_t kMaxHostLen = 256;

[[noreturn]] void reject(const std::string& what) {
  throw std::invalid_argument("artifact: " + what);
}

std::string read_host(SpanReader& r) {
  const std::uint32_t len = r.u32();
  if (len > kMaxHostLen) {
    reject("implausible string length at byte offset " +
           std::to_string(r.offset() - 4));
  }
  return std::string(r.bytes(len));
}

struct Section {
  std::uint32_t id = 0;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  std::uint32_t crc = 0;
};

struct ParsedHeader {
  persist::ArtifactMeta meta;
  std::vector<Section> sections;
  std::uint64_t header_bytes = 0;  ///< size of header incl. its CRC
};

const char* section_name(std::uint32_t id) {
  switch (id) {
    case kSecGraph: return "GRAPH";
    case kSecTZ: return "TZ";
  }
  return "?";
}

}  // namespace
}  // namespace croute

namespace croute::persist {

namespace {

std::string isa_stamp() {
  return std::string(simd::ops().name) + "/" + crc32c_backend();
}

void encode_graph_section(BufferWriter& w, const Graph& g) {
  w.u32(g.num_vertices());
  w.u64(g.num_edges());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const Arc& a : g.arcs(v)) {
      if (a.head > v) {
        w.u32(v);
        w.u32(a.head);
        w.f64(a.weight);
      }
    }
  }
}

std::shared_ptr<const Graph> decode_graph_section(SpanReader r) {
  const VertexId n = r.u32();
  const std::uint64_t m = r.count(16);  // 16 bytes per edge record
  GraphBuilder builder(n);
  for (std::uint64_t i = 0; i < m; ++i) {
    const VertexId u = r.u32();
    const VertexId v = r.u32();
    const Weight w = r.f64();
    if (u >= n || v >= n) reject("GRAPH: edge endpoint out of range");
    builder.add_edge(u, v, w);
  }
  // GraphBuilder::build canonicalizes (sorted arcs, deterministic
  // reverse ports), so this reconstruction is bit-identical to the
  // graph the artifact was written from — the fingerprint check in
  // decode_package pins it.
  return std::make_shared<const Graph>(builder.build());
}

void write_header(BufferWriter& w, const ArtifactMeta& meta,
                  const std::vector<Section>& sections) {
  w.u64(kMagic);
  w.u32(kArtifactFormatVersion);
  w.u8(static_cast<std::uint8_t>(meta.scheme));
  w.u8(static_cast<std::uint8_t>(meta.sampling));
  w.u32(meta.k);
  w.u32(meta.n);
  w.u64(meta.seed);
  w.u64(meta.options_digest);
  w.u64(meta.graph_digest);
  w.u64(meta.generation);
  w.u32(static_cast<std::uint32_t>(meta.build_host.size()));
  w.raw(meta.build_host.data(), meta.build_host.size());
  w.u32(static_cast<std::uint32_t>(sections.size()));
  for (const Section& s : sections) {
    w.u32(s.id);
    w.u64(s.offset);
    w.u64(s.size);
    w.u32(s.crc);
  }
}

/// Parses and validates the header: magic, version, field sanity, the
/// header CRC, and the section table's geometry (contiguous, inside the
/// payload area, no duplicate ids). Everything after this function is
/// entitled to trust the table's offsets.
ParsedHeader parse_header(std::string_view bytes) {
  SpanReader r(bytes);
  ParsedHeader h;
  const std::uint64_t magic = r.u64();
  if (magic != kMagic) {
    reject("bad magic (not an artifact, or the header is corrupt)");
  }
  h.meta.format_version = r.u32();
  if (h.meta.format_version != kArtifactFormatVersion) {
    reject("format version " + std::to_string(h.meta.format_version) +
           " (this build reads version " +
           std::to_string(kArtifactFormatVersion) + ")");
  }
  const std::uint8_t scheme = r.u8();
  if (scheme > static_cast<std::uint8_t>(SchemeKind::kTZHandshake)) {
    reject("unknown scheme kind in header");
  }
  h.meta.scheme = static_cast<SchemeKind>(scheme);
  const std::uint8_t sampling = r.u8();
  if (sampling > 1) reject("unknown sampling mode in header");
  h.meta.sampling = static_cast<SamplingMode>(sampling);
  h.meta.k = r.u32();
  h.meta.n = r.u32();
  h.meta.seed = r.u64();
  h.meta.options_digest = r.u64();
  h.meta.graph_digest = r.u64();
  h.meta.generation = r.u64();
  h.meta.build_host = read_host(r);
  const std::uint32_t nsec = r.u32();
  if (nsec == 0 || nsec > kMaxSections) {
    reject("implausible section count in header");
  }
  h.sections.resize(nsec);
  for (Section& s : h.sections) {
    s.id = r.u32();
    s.offset = r.u64();
    s.size = r.u64();
    s.crc = r.u32();
  }
  const std::uint64_t crc_at = r.offset();
  const std::uint32_t header_crc = r.u32();
  if (crc32c(bytes.data(), crc_at) != header_crc) {
    reject("header checksum mismatch (torn or corrupted header)");
  }
  h.header_bytes = r.offset();

  // Geometry: sections are laid out back to back between the header and
  // the 4-byte whole-file CRC trailer. Anything else — overlap, gaps,
  // duplicated sections, a table pointing past the end — is rejected
  // here so no later stage computes an out-of-bounds slice.
  if (bytes.size() < h.header_bytes + 4) reject("no room for the file trailer");
  std::uint64_t expect = h.header_bytes;
  std::uint32_t seen_ids = 0;
  for (const Section& s : h.sections) {
    if (s.id == 0 || s.id > 31) reject("unknown section id in table");
    if (seen_ids & (1u << s.id)) {
      reject(std::string("duplicated section ") + section_name(s.id));
    }
    seen_ids |= 1u << s.id;
    if (s.offset != expect) reject("section table is not contiguous");
    if (s.size > bytes.size() - 4 - s.offset) {
      reject("section table points past the end of the file");
    }
    expect = s.offset + s.size;
  }
  if (expect != bytes.size() - 4) {
    reject("payload size disagrees with the section table");
  }
  return h;
}

void verify_file_crc(std::string_view bytes) {
  std::uint32_t file_crc;
  std::memcpy(&file_crc, bytes.data() + bytes.size() - 4, 4);
  if (crc32c(bytes.data(), bytes.size() - 4) != file_crc) {
    reject("whole-file checksum mismatch (torn or truncated artifact)");
  }
}

const Section* find_section(const ParsedHeader& h, std::uint32_t id) {
  for (const Section& s : h.sections) {
    if (s.id == id) return &s;
  }
  return nullptr;
}

std::string_view section_bytes(std::string_view bytes, const ParsedHeader& h,
                               std::uint32_t id) {
  const Section* s = find_section(h, id);
  if (s == nullptr) {
    reject(std::string("missing required section ") + section_name(id));
  }
  // Localize corruption: the per-section sum says WHICH section rotted,
  // where the whole-file sum only says "something did".
  if (crc32c(bytes.data() + s->offset, s->size) != s->crc) {
    reject(std::string("section ") + section_name(id) +
           " checksum mismatch (payload corrupted at bytes [" +
           std::to_string(s->offset) + ", " +
           std::to_string(s->offset + s->size) + "))");
  }
  return bytes.substr(s->offset, s->size);
}

/// A reader over a checked section whose messages carry absolute offsets.
SpanReader section_reader(std::string_view bytes, const ParsedHeader& h,
                          std::uint32_t id) {
  const std::string_view sec = section_bytes(bytes, h, id);
  return SpanReader(sec, static_cast<std::uint64_t>(sec.data() - bytes.data()));
}

}  // namespace

std::uint64_t content_options_digest(const RouteServiceOptions& options) {
  // Only fields that determine the package's *bytes* participate;
  // serving knobs (threads, batch_group, metrics, record_paths) change
  // how a package is driven, never what it contains.
  std::uint64_t h = 0x6172746966616374ULL;  // "artifact"
  h = mix64(h ^ static_cast<std::uint64_t>(options.scheme));
  h = mix64(h ^ options.k);
  h = mix64(h ^ static_cast<std::uint64_t>(options.sampling));
  h = mix64(h ^ options.seed);
  return h;
}

std::string encode_package(const SchemePackage& pkg,
                           std::uint64_t generation) {
  ArtifactMeta meta;
  meta.format_version = kArtifactFormatVersion;
  meta.scheme = pkg.options.scheme;
  meta.sampling = pkg.options.sampling;
  meta.k = pkg.options.k;
  meta.n = pkg.graph->num_vertices();
  meta.seed = pkg.options.seed;
  meta.options_digest = content_options_digest(pkg.options);
  meta.graph_digest = graph_fingerprint(*pkg.graph);
  meta.generation = generation;
  meta.build_host = isa_stamp();

  std::vector<Section> sections = {{kSecGraph}, {kSecTZ}};

  // One buffer, one pass. The reservation is a generous estimate (the
  // TZ section is smaller than the flat pools compiled from it): pages
  // it never touches are never faulted in, so overshooting is free and
  // only an undershoot costs a regrowth.
  std::string out;
  out.reserve(4096 + 16 * pkg.graph->num_edges() +
              2 * pkg.flat->pool_bytes());
  BufferWriter w(out);
  // The header is fixed-width once the section count is known: write it
  // with zero offsets to claim its bytes, then overwrite it in place.
  write_header(w, meta, sections);
  const std::size_t header_len = out.size();
  w.u32(0);  // header CRC
  for (Section& sec : sections) {
    sec.offset = out.size();
    switch (sec.id) {
      case kSecGraph: encode_graph_section(w, *pkg.graph); break;
      case kSecTZ: save_scheme(*pkg.tz, out); break;
    }
    sec.size = out.size() - sec.offset;
    sec.crc = crc32c(out.data() + sec.offset, sec.size);
  }
  std::string header;
  BufferWriter hw(header);
  write_header(hw, meta, sections);
  const std::uint32_t header_crc = crc32c(header.data(), header.size());
  std::memcpy(out.data(), header.data(), header_len);
  std::memcpy(out.data() + header_len, &header_crc, 4);
  w.u32(crc32c(out.data(), out.size()));
  return out;
}

ArtifactMeta read_artifact_meta(std::string_view bytes) {
  ParsedHeader h = parse_header(bytes);
  verify_file_crc(bytes);
  return std::move(h.meta);
}

SchemePackagePtr decode_package(std::string_view bytes,
                                const RouteServiceOptions& serving,
                                ArtifactMeta* meta_out, VertexId expected_n) {
  using clock = std::chrono::steady_clock;
  const auto begin = clock::now();

  const ParsedHeader h = parse_header(bytes);
  verify_file_crc(bytes);
  if (expected_n != 0 && h.meta.n != expected_n) {
    reject("built for n=" + std::to_string(h.meta.n) +
           ", service generates n=" + std::to_string(expected_n));
  }
  if (h.meta.scheme != serving.scheme) {
    reject(std::string("built for scheme '") + scheme_name(h.meta.scheme) +
           "', service runs '" + scheme_name(serving.scheme) + "'");
  }
  if (h.meta.options_digest != content_options_digest(serving)) {
    reject(
        "built under different construction options (digest mismatch: "
        "k/sampling/seed changed) — refusing to serve it");
  }

  auto pkg = std::make_shared<SchemePackage>();
  // The digest check above makes the content options equal, so a
  // recovered generation is the fresh build's bytes on (graph, seed) and
  // anchors incremental rebuilds like one.
  pkg->options = serving;

  pkg->graph = decode_graph_section(section_reader(bytes, h, kSecGraph));
  if (graph_fingerprint(*pkg->graph) != h.meta.graph_digest) {
    reject("graph payload does not match its recorded fingerprint");
  }
  pkg->tz = std::make_unique<const TZScheme>(
      load_scheme(section_bytes(bytes, h, kSecTZ), *pkg->graph));
  compile_flat_view(*pkg);

  pkg->incr_stats.fallback_reason = "recovered from artifact";
  pkg->build_seconds =
      std::chrono::duration<double>(clock::now() - begin).count();
  if (meta_out != nullptr) *meta_out = h.meta;
  return pkg;
}

}  // namespace croute::persist
