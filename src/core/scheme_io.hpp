/// \file scheme_io.hpp
/// \brief Persisting preprocessed routing schemes.
///
/// Preprocessing costs Õ(n^{1+1/k}); routing state is Õ(n^{1/k}) per
/// vertex. A deployment preprocesses once, saves, and ships tables to
/// routers. save_scheme/load_scheme persist everything the routing
/// algorithms consult — hierarchy, pivots, tables, cluster directories,
/// labels — in a versioned binary format with a graph fingerprint so a
/// scheme cannot silently be loaded against the wrong network.
///
/// The byte forms are the codec: save_scheme appends the scheme to a
/// string, load_scheme decodes it from a byte span in one pass
/// (util/serialize.hpp). The persist tier embeds these bytes as an
/// artifact's TZ section, and the file wrappers (croute_cli's reference
/// preprocess/stats/route commands) store them verbatim, so both read
/// the same format. A service starts from disk only through the persist
/// tier, which also checks the construction options.
///
/// Loaded schemes are behaviorally identical: every header prepared and
/// every hop decided from a loaded scheme equals the original's (tested
/// exhaustively in test_scheme_io). The optional FKS index is rebuilt on
/// load (it is derived state; its randomness does not affect results).
///
/// Hostile bytes fail cleanly: every element count is checked against
/// the bytes left before anything is sized from it, so a corrupt or
/// malicious input throws std::invalid_argument instead of allocating.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/tz_scheme.hpp"

namespace croute {

/// Appends the bytes of \p scheme to \p out.
void save_scheme(const TZScheme& scheme, std::string& out);
std::string save_scheme(const TZScheme& scheme);

/// Decodes a scheme bound to \p g from exactly \p bytes. Throws
/// std::invalid_argument on format, version, or graph-fingerprint
/// mismatch, on truncation, trailing bytes, and implausible counts. The
/// graph must outlive the returned scheme.
TZScheme load_scheme(std::string_view bytes, const Graph& g);

/// File convenience wrappers over the byte forms.
void save_scheme_file(const std::string& path, const TZScheme& scheme);
TZScheme load_scheme_file(const std::string& path, const Graph& g);

/// Structural fingerprint of a graph (order-independent over arcs):
/// detects routing state loaded against the wrong network.
std::uint64_t graph_fingerprint(const Graph& g);

}  // namespace croute
