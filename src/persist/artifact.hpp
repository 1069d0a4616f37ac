/// \file artifact.hpp
/// \brief The on-disk scheme artifact: a versioned, section-checksummed,
/// relocatable container for one full SchemePackage generation.
///
/// A million-user routing service must survive being killed; paying full
/// TZ preprocessing plus flat compilation on every start is the cost this
/// tier removes. An artifact carries one representation of everything a
/// generation serves from — the graph copy and the TZ preprocessing
/// (scheme_io bytes) — so a restart is a read, a verify and a decode, not
/// a rebuild. The flat TZ pools are derived state and are not stored:
/// decode compiles them from the decoded TZ scheme through the same
/// compile_flat_view a fresh build uses. The compile is cheaper than
/// decoding stored pools was, and leaving them out halves the artifact.
///
/// Layout, format 5 (all little-endian, util/serialize.hpp):
///
///   header   magic "croutea1" · format version · generation metadata
///            (scheme kind, k, sampling, seed, n, options digest, graph
///            fingerprint, generation number, build host/ISA stamp) ·
///            section table (id, absolute offset, size, CRC32C each) ·
///            CRC32C of the header bytes
///   payload  sections back to back (GRAPH, TZ)
///   trailer  CRC32C of everything before it (whole-file)
///
/// Format 1 also stored a FLAT_TZ section, formats 1 and 2 carried the
/// serving-path and flat-lookup bytes of the deleted legacy path and FKS
/// layout, formats 1–3 carried a warm-start byte for generations loaded
/// from a scheme file (a mode the service no longer has), and formats 1–4
/// could hold the Cowen and full-table serving pools (section ids 4 and
/// 5) of scheme kinds the service no longer serves. Loaders reject them
/// all as version skew, and the service falls back to a fresh build with
/// the reason recorded. The header's scheme byte is 0 (tz) or 1
/// (tz-handshake); any other value is rejected.
///
/// The dual stamps — format version for the *container*, the metadata
/// digests for the *generation* — mean a loader rejects incompatible or
/// torn artifacts from the header alone, before touching payload bytes;
/// per-section sums then localize any corruption to the section that
/// rotted. Loaded state is byte-identical to a fresh build on the same
/// (graph, options): the TZ bytes go through scheme_io's proven
/// round-trip, and the derived flat TZ pools are recompiled from the
/// decoded scheme.
///
/// Everything here is pure bytes-in/bytes-out; the atomic file lifecycle
/// (tmp → fsync → rename, MANIFEST, retention, fault injection) lives in
/// artifact_store.hpp.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "service/scheme_package.hpp"

namespace croute::persist {

/// Container format version (bump on layout changes; loaders reject
/// anything else — version skew falls back to fresh preprocessing).
inline constexpr std::uint32_t kArtifactFormatVersion = 5;

/// Generation metadata, readable from the header alone.
struct ArtifactMeta {
  std::uint32_t format_version = 0;
  SchemeKind scheme = SchemeKind::kTZDirect;
  SamplingMode sampling = SamplingMode::kCentered;
  std::uint32_t k = 0;
  VertexId n = 0;             ///< vertex count of the payload graph
  std::uint64_t seed = 0;
  std::uint64_t options_digest = 0;  ///< content_options_digest at build
  std::uint64_t graph_digest = 0;    ///< graph_fingerprint of the payload
  std::uint64_t generation = 0;      ///< store generation number
  std::string build_host;            ///< SIMD ISA + CRC backend stamp
};

/// Digest over the options fields that determine a package's bytes
/// (scheme, k, sampling, seed). Serving knobs
/// (threads, batch_group, metrics, record_paths) do not participate: a
/// recovered artifact serves under whatever serving options the process
/// was started with.
std::uint64_t content_options_digest(const RouteServiceOptions& options);

/// Serializes \p pkg into artifact bytes. Every package a build or a
/// decode produces is persistable.
std::string encode_package(const SchemePackage& pkg,
                           std::uint64_t generation);

/// Header-only validation: magic, format version, header CRC, whole-file
/// CRC, section table sanity. Throws std::invalid_argument (with byte
/// offsets) on anything torn or alien; does not touch payload decoding.
ArtifactMeta read_artifact_meta(std::string_view bytes);

/// Full decode: verifies the header, whole-file and section checksums
/// (each computed once), then reconstructs the package. Content options
/// must match \p serving (digest equality); serving-only knobs are taken
/// from \p serving. A non-zero \p expected_n rejects an artifact built for
/// another vertex count from the header alone. The returned package owns
/// its graph and is indistinguishable from a fresh build_scheme_package
/// on the same (graph, content options) — the byte-identity contract
/// tests/test_persist.cpp pins. Throws std::invalid_argument on any
/// mismatch or corruption; never crashes on hostile bytes
/// (tests/test_fuzz.cpp's mutation corpus).
SchemePackagePtr decode_package(std::string_view bytes,
                                const RouteServiceOptions& serving,
                                ArtifactMeta* meta_out = nullptr,
                                VertexId expected_n = 0);

}  // namespace croute::persist
