// Tests for the crash-safe artifact tier: the codec's byte-identity
// round trip (persist/artifact.hpp) for both SchemeKinds, the atomic
// publish/recover protocol (persist/artifact_store.hpp) under the fault
// injector, and the RouteService/SchemeManager lifecycle built on both.
//
// The load-bearing claims, in the order the corruption matrix pins them:
//  1. decode(encode(pkg)) re-encodes to the SAME bytes — an artifact is a
//     fixed point, so recover-then-persist cycles never drift.
//  2. A recovered service answers byte-identically to a fresh build on
//     the same (graph, content options).
//  3. NO corruption — bit flips in any section, truncation at any byte,
//     stale or garbage manifests, version skew, injected write/fsync/
//     rename failures — ever crashes or mis-routes: every failure path
//     lands in a defined state (clean std::invalid_argument from the
//     codec; recorded rejection + fallback from the store).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/scheme_io.hpp"
#include "graph/delta.hpp"
#include "graph/generators.hpp"
#include "persist/artifact.hpp"
#include "persist/artifact_store.hpp"
#include "persist/fault_injection.hpp"
#include "service/hot_swap.hpp"
#include "service/route_service.hpp"
#include "service/workload.hpp"
#include "sim/experiment.hpp"
#include "util/crc32c.hpp"
#include "util/random.hpp"

namespace croute {
namespace {

namespace fs = std::filesystem;

Graph test_graph(std::uint64_t seed, VertexId n = 300) {
  Rng rng(seed);
  return make_workload(GraphFamily::kErdosRenyi, n, rng);
}

RouteServiceOptions base_options(SchemeKind kind) {
  RouteServiceOptions opt;
  opt.scheme = kind;
  opt.threads = 1;
  opt.k = 3;
  opt.seed = 99;
  opt.record_paths = false;
  opt.metrics = false;
  return opt;
}

SchemePackagePtr build(const Graph& g, const RouteServiceOptions& opt) {
  return build_scheme_package(std::make_shared<const Graph>(g), opt);
}

/// A scratch directory under /tmp, wiped at acquisition so every test
/// starts from an empty store.
std::string scratch_dir(const char* name) {
  const std::string dir = std::string("/tmp/croute_persist_") + name;
  fs::remove_all(dir);
  return dir;
}

std::vector<RouteQuery> probe_queries(const Graph& g, std::uint32_t count) {
  Rng rng(17);
  return make_traffic(g, WorkloadKind::kUniform, count, rng);
}

void expect_same_answers(const std::vector<RouteAnswer>& a,
                         const std::vector<RouteAnswer>& b,
                         const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(same_route(a[i], b[i])) << what << " diverges at " << i;
  }
}

/// Rewrites the trailing whole-file CRC so a deliberate payload mutation
/// survives the outer integrity check and must be caught by the
/// per-section sums — the localization property, not just detection.
void refresh_file_crc(std::string& bytes) {
  ASSERT_GE(bytes.size(), 4u);
  const std::uint32_t crc = crc32c(bytes.data(), bytes.size() - 4);
  for (int i = 0; i < 4; ++i) {
    bytes[bytes.size() - 4 + static_cast<std::size_t>(i)] =
        static_cast<char>((crc >> (8 * i)) & 0xff);
  }
}

// --- codec round trip ----------------------------------------------------

class ArtifactRoundtrip : public ::testing::TestWithParam<SchemeKind> {};

TEST_P(ArtifactRoundtrip, DecodeThenReencodeIsByteIdentical) {
  const Graph g = test_graph(3);
  const RouteServiceOptions opt = base_options(GetParam());
  const SchemePackagePtr pkg = build(g, opt);

  const std::string bytes = persist::encode_package(*pkg, 7);
  const persist::ArtifactMeta meta = persist::read_artifact_meta(bytes);
  EXPECT_EQ(meta.format_version, persist::kArtifactFormatVersion);
  EXPECT_EQ(meta.scheme, opt.scheme);
  EXPECT_EQ(meta.k, opt.k);
  EXPECT_EQ(meta.n, g.num_vertices());
  EXPECT_EQ(meta.seed, opt.seed);
  EXPECT_EQ(meta.generation, 7u);
  EXPECT_EQ(meta.options_digest, persist::content_options_digest(opt));
  EXPECT_EQ(meta.graph_digest, graph_fingerprint(g));
  EXPECT_FALSE(meta.build_host.empty());

  persist::ArtifactMeta decoded_meta;
  const SchemePackagePtr rt = persist::decode_package(bytes, opt,
                                                      &decoded_meta);
  ASSERT_NE(rt, nullptr);
  EXPECT_EQ(decoded_meta.generation, 7u);
  EXPECT_EQ(rt->graph->num_vertices(), g.num_vertices());
  EXPECT_EQ(graph_fingerprint(*rt->graph), graph_fingerprint(g));

  // The fixed-point property: the decoded package serializes to the very
  // same bytes, so persist → recover → persist cannot drift.
  const std::string again = persist::encode_package(*rt, 7);
  ASSERT_EQ(again.size(), bytes.size());
  EXPECT_TRUE(again == bytes);

  // Space accounting survives the trip.
  for (VertexId v = 0; v < g.num_vertices(); v += 37) {
    EXPECT_EQ(rt->table_bits(v), pkg->table_bits(v)) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ArtifactRoundtrip,
                         ::testing::Values(SchemeKind::kTZDirect,
                                           SchemeKind::kTZHandshake));

// The flat TZ pools are not stored: decode compiles them from the decoded
// TZ section. They must be exactly the pools a fresh build compiles —
// same size, same answers — for both TZ schemes.
class RecoveredFlatPools : public ::testing::TestWithParam<SchemeKind> {};

TEST_P(RecoveredFlatPools, EqualAFreshCompile) {
  const Graph g = test_graph(25, 250);
  const RouteServiceOptions opt = base_options(GetParam());
  const SchemePackagePtr pkg = build(g, opt);
  const SchemePackagePtr rt =
      persist::decode_package(persist::encode_package(*pkg, 1), opt);
  ASSERT_NE(rt->flat, nullptr);
  EXPECT_EQ(rt->flat->pool_bytes(), pkg->flat->pool_bytes());
  EXPECT_EQ(rt->flat_stats.pool_bytes, pkg->flat_stats.pool_bytes);

  RouteService fresh(g, opt);
  RouteService recovered(g, opt);
  recovered.publish(rt);
  const std::vector<RouteQuery> queries = probe_queries(g, 2000);
  expect_same_answers(recovered.route_collect(queries),
                      fresh.route_collect(queries), "recovered vs fresh");
}

INSTANTIATE_TEST_SUITE_P(TZKinds, RecoveredFlatPools,
                         ::testing::Values(SchemeKind::kTZDirect,
                                           SchemeKind::kTZHandshake));

// --- corruption matrix ---------------------------------------------------

TEST(ArtifactCorruption, BitFlipsAnywhereRejectCleanly) {
  const Graph g = test_graph(7, 150);
  const RouteServiceOptions opt = base_options(SchemeKind::kTZDirect);
  const std::string bytes = persist::encode_package(*build(g, opt), 1);
  // One flip per ~1/64 of the file covers the header, the section table,
  // every payload section, and the trailer.
  for (std::size_t i = 0; i < 64; ++i) {
    std::string mut = bytes;
    const std::size_t at = i * bytes.size() / 64;
    mut[at] = static_cast<char>(mut[at] ^ 0x10);
    EXPECT_THROW(persist::read_artifact_meta(mut), std::invalid_argument)
        << "flip at " << at;
    EXPECT_THROW(persist::decode_package(mut, opt), std::invalid_argument)
        << "flip at " << at;
  }
}

TEST(ArtifactCorruption, TruncationAtEveryRegionRejectsCleanly) {
  const Graph g = test_graph(8, 150);
  const RouteServiceOptions opt = base_options(SchemeKind::kTZDirect);
  const std::string bytes = persist::encode_package(*build(g, opt), 1);
  std::vector<std::size_t> cuts = {0,  1,  4,  7,  8,  11, 12,
                                   bytes.size() - 1, bytes.size() - 4,
                                   bytes.size() - 5};
  for (std::size_t i = 1; i < 32; ++i) cuts.push_back(i * bytes.size() / 32);
  for (const std::size_t cut : cuts) {
    const std::string mut = bytes.substr(0, cut);
    EXPECT_THROW(persist::read_artifact_meta(mut), std::invalid_argument)
        << "cut at " << cut;
    EXPECT_THROW(persist::decode_package(mut, opt), std::invalid_argument)
        << "cut at " << cut;
  }
}

TEST(ArtifactCorruption, SectionCrcLocalizesPayloadRot) {
  const Graph g = test_graph(9, 150);
  const RouteServiceOptions opt = base_options(SchemeKind::kTZDirect);
  const std::string bytes = persist::encode_package(*build(g, opt), 1);
  // Rot a payload byte, then *repair the whole-file CRC*: the outer
  // integrity check now passes and only the per-section sum can object —
  // and its message must say which section and where.
  std::string mut = bytes;
  const std::size_t at = 2 * bytes.size() / 3;
  mut[at] = static_cast<char>(mut[at] ^ 0x01);
  refresh_file_crc(mut);
  EXPECT_NO_THROW(persist::read_artifact_meta(mut));
  try {
    persist::decode_package(mut, opt);
    FAIL() << "payload rot must not decode";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("section"), std::string::npos)
        << e.what();
  }
}

TEST(ArtifactCorruption, VersionSkewRejects) {
  const Graph g = test_graph(10, 120);
  const RouteServiceOptions opt = base_options(SchemeKind::kTZDirect);
  const std::string bytes = persist::encode_package(*build(g, opt), 1);
  // The format version lives right after the 8-byte magic.
  std::string mut = bytes;
  mut[8] = static_cast<char>(persist::kArtifactFormatVersion + 1);
  EXPECT_THROW(persist::read_artifact_meta(mut), std::invalid_argument);
  EXPECT_THROW(persist::decode_package(mut, opt), std::invalid_argument);
}

// The scheme byte follows the format version (byte 12). Only 0 (tz) and
// 1 (tz-handshake) name a served kind; 2 and 3 were the Cowen and
// full-table kinds, which the service no longer has. The byte is checked
// before the header CRC, so the bare flip is enough to reach the check.
TEST(ArtifactCorruption, UnknownSchemeKindRejects) {
  const Graph g = test_graph(10, 120);
  const RouteServiceOptions opt = base_options(SchemeKind::kTZDirect);
  const std::string bytes = persist::encode_package(*build(g, opt), 1);
  std::string mut = bytes;
  mut[12] = '\x02';
  for (const bool full_decode : {false, true}) {
    try {
      if (full_decode) {
        persist::decode_package(mut, opt);
      } else {
        persist::read_artifact_meta(mut);
      }
      FAIL() << "scheme byte 2 must be rejected";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("unknown scheme kind in header"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ArtifactCorruption, AlienAndEmptyInputsReject) {
  const RouteServiceOptions opt = base_options(SchemeKind::kTZDirect);
  EXPECT_THROW(persist::read_artifact_meta(""), std::invalid_argument);
  EXPECT_THROW(persist::decode_package("", opt), std::invalid_argument);
  EXPECT_THROW(persist::decode_package("not an artifact at all", opt),
               std::invalid_argument);
  std::string junk(4096, '\x5a');
  EXPECT_THROW(persist::decode_package(junk, opt), std::invalid_argument);
}

TEST(ArtifactCorruption, OptionsMismatchRejects) {
  const Graph g = test_graph(11, 120);
  const RouteServiceOptions opt = base_options(SchemeKind::kTZDirect);
  const std::string bytes = persist::encode_package(*build(g, opt), 1);
  RouteServiceOptions other = opt;
  other.seed = opt.seed + 1;  // different construction seed → different bytes
  EXPECT_THROW(persist::decode_package(bytes, other), std::invalid_argument);
  RouteServiceOptions wrong_kind = opt;
  wrong_kind.scheme = SchemeKind::kTZHandshake;
  EXPECT_THROW(persist::decode_package(bytes, wrong_kind),
               std::invalid_argument);
}

TEST(ArtifactCorruption, ServingKnobsDoNotParticipateInDigest) {
  const Graph g = test_graph(12, 120);
  const RouteServiceOptions opt = base_options(SchemeKind::kTZDirect);
  const std::string bytes = persist::encode_package(*build(g, opt), 1);
  RouteServiceOptions serving = opt;
  serving.threads = 8;
  serving.batch_group = 64;
  serving.metrics = true;
  const SchemePackagePtr rt = persist::decode_package(bytes, serving);
  ASSERT_NE(rt, nullptr);
  EXPECT_EQ(rt->options.threads, 8u);
  EXPECT_EQ(rt->options.batch_group, 64u);
}

// --- store: publish / recover / faults -----------------------------------

TEST(ArtifactStore, PublishThenRecoverServesSameBytes) {
  const std::string dir = scratch_dir("store_roundtrip");
  const Graph g = test_graph(13);
  const RouteServiceOptions opt = base_options(SchemeKind::kTZDirect);
  const SchemePackagePtr pkg = build(g, opt);

  persist::ArtifactStore store({dir, 2});
  const persist::PublishResult pub = store.publish_generation(*pkg);
  ASSERT_TRUE(pub.ok) << pub.error;
  EXPECT_EQ(pub.generation, 1u);
  EXPECT_GT(pub.bytes, 0u);
  EXPECT_EQ(store.newest_generation(), 1u);

  const persist::RecoverResult rec =
      store.recover_newest(opt, g.num_vertices());
  ASSERT_NE(rec.package, nullptr) << rec.note;
  EXPECT_EQ(rec.meta.generation, 1u);
  EXPECT_TRUE(rec.rejected.empty());
  EXPECT_TRUE(persist::encode_package(*rec.package, 1) ==
              persist::encode_package(*pkg, 1));
}

TEST(ArtifactStore, InjectedFaultsFailGracefullyAndKeepPreviousGeneration) {
  const std::string dir = scratch_dir("store_faults");
  const Graph g = test_graph(14, 200);
  const RouteServiceOptions opt = base_options(SchemeKind::kTZDirect);
  const SchemePackagePtr pkg = build(g, opt);

  persist::ArtifactStore store({dir, 4});
  ASSERT_TRUE(store.publish_generation(*pkg).ok);  // generation 1, clean

  using persist::FaultAction;
  using persist::FaultOp;
  const FaultAction actions[] = {FaultAction::kFail, FaultAction::kShort,
                                 FaultAction::kEnospc};
  const FaultOp ops[] = {FaultOp::kWrite, FaultOp::kFsync, FaultOp::kRename};
  for (const FaultAction action : actions) {
    for (const FaultOp op : ops) {
      for (const std::uint64_t at : {std::uint64_t{1}, std::uint64_t{2}}) {
        if (action == FaultAction::kShort && op != FaultOp::kWrite) continue;
        store.fault_injector().arm({action, op, at});
        const persist::PublishResult pub = store.publish_generation(*pkg);
        EXPECT_FALSE(pub.ok);
        EXPECT_FALSE(pub.error.empty());
        // The previous generation must still recover, whatever was torn.
        const persist::RecoverResult rec =
            store.recover_newest(opt, g.num_vertices());
        ASSERT_NE(rec.package, nullptr)
            << "after fault action=" << static_cast<int>(action)
            << " op=" << static_cast<int>(op) << " at=" << at << ": "
            << rec.note;
      }
    }
  }
  // Disarm; the store must heal (sweep litter, publish the next gen).
  store.fault_injector().arm({});
  const persist::PublishResult pub = store.publish_generation(*pkg);
  ASSERT_TRUE(pub.ok) << pub.error;
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_NE(entry.path().extension(), ".tmp")
        << "litter survived a successful publish: " << entry.path();
  }
}

TEST(ArtifactStore, RetentionKeepsNewestAndPinned) {
  const std::string dir = scratch_dir("store_retention");
  const Graph g = test_graph(15, 150);
  const RouteServiceOptions opt = base_options(SchemeKind::kTZDirect);
  const SchemePackagePtr pkg = build(g, opt);
  persist::ArtifactStore store({dir, 2});
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(store.publish_generation(*pkg).ok);
  }
  std::size_t artifacts = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".art") ++artifacts;
  }
  EXPECT_EQ(artifacts, 2u);  // retain=2, live+backup are among the newest
  EXPECT_EQ(store.newest_generation(), 5u);
}

TEST(ArtifactStore, StaleAndGarbageManifestsFallBackToScan) {
  const std::string dir = scratch_dir("store_manifest");
  const Graph g = test_graph(16, 150);
  const RouteServiceOptions opt = base_options(SchemeKind::kTZDirect);
  const SchemePackagePtr pkg = build(g, opt);
  persist::ArtifactStore store({dir, 2});
  ASSERT_TRUE(store.publish_generation(*pkg).ok);

  {  // stale: names an artifact that no longer exists
    std::ofstream m(dir + "/MANIFEST", std::ios::trunc);
    m << "croute-manifest v1\nlive scheme-99999999.art\nbackup -\n";
  }
  persist::RecoverResult rec = store.recover_newest(opt, g.num_vertices());
  ASSERT_NE(rec.package, nullptr) << rec.note;
  EXPECT_FALSE(rec.rejected.empty());

  {  // garbage bytes
    std::ofstream m(dir + "/MANIFEST", std::ios::trunc);
    m << "\x00\xff not a manifest";
  }
  rec = store.recover_newest(opt, g.num_vertices());
  ASSERT_NE(rec.package, nullptr) << rec.note;
}

TEST(ArtifactStore, CorruptLiveFallsBackOneGeneration) {
  const std::string dir = scratch_dir("store_fallback");
  const Graph g = test_graph(17, 150);
  const RouteServiceOptions opt = base_options(SchemeKind::kTZDirect);
  const SchemePackagePtr pkg = build(g, opt);
  persist::ArtifactStore store({dir, 3});
  ASSERT_TRUE(store.publish_generation(*pkg).ok);
  ASSERT_TRUE(store.publish_generation(*pkg).ok);
  {  // rot the live (newest) artifact mid-file
    std::fstream f(dir + "/scheme-00000002.art",
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(40000);
    f.put('\x7e');
  }
  const persist::RecoverResult rec =
      store.recover_newest(opt, g.num_vertices());
  ASSERT_NE(rec.package, nullptr) << rec.note;
  EXPECT_EQ(rec.meta.generation, 1u);
  EXPECT_EQ(rec.rejected.size(), 1u);
}

TEST(ArtifactStore, VertexCountMismatchIsRejectedWithReason) {
  const std::string dir = scratch_dir("store_nmismatch");
  const Graph g = test_graph(18, 150);
  const RouteServiceOptions opt = base_options(SchemeKind::kTZDirect);
  persist::ArtifactStore store({dir, 2});
  ASSERT_TRUE(store.publish_generation(*build(g, opt)).ok);
  const persist::RecoverResult rec =
      store.recover_newest(opt, g.num_vertices() + 1);
  EXPECT_EQ(rec.package, nullptr);
  ASSERT_EQ(rec.rejected.size(), 1u);
  EXPECT_NE(rec.rejected[0].find("built for n="), std::string::npos)
      << rec.rejected[0];
}

TEST(ArtifactStore, OlderFormatArtifactsAreRejectedAsVersionSkew) {
  // Format 1 also stored the flat TZ pools; formats 1 and 2 carried the
  // serving-path and lookup-layout bytes of the deleted legacy path and
  // FKS layout; formats 1–3 carried the warm-start byte of the deleted
  // scheme-file start; formats 1–4 could hold the Cowen and full-table
  // serving pools. A store holding any of them must reject it at the
  // header with the reason recorded, and the service must fall back to a
  // fresh build that says why.
  const Graph g = test_graph(26, 150);
  RouteServiceOptions opt = base_options(SchemeKind::kTZDirect);
  for (const char version : {'\x01', '\x02', '\x03', '\x04'}) {
    const std::string dir = scratch_dir("store_old_format");
    persist::ArtifactStore store({dir, 2});
    const persist::PublishResult pub =
        store.publish_generation(*build(g, opt));
    ASSERT_TRUE(pub.ok) << pub.error;
    {  // the format version follows the 8-byte magic
      std::fstream f(pub.path,
                     std::ios::in | std::ios::out | std::ios::binary);
      f.seekp(8);
      f.put(version);
    }
    const std::string reason =
        "format version " + std::to_string(static_cast<int>(version));
    const persist::RecoverResult rec =
        store.recover_newest(opt, g.num_vertices());
    EXPECT_EQ(rec.package, nullptr);
    ASSERT_EQ(rec.rejected.size(), 1u);
    EXPECT_NE(rec.rejected[0].find(reason), std::string::npos)
        << rec.rejected[0];

    opt.persist.dir = dir;
    RouteService svc(g, opt);
    opt.persist.dir.clear();
    EXPECT_FALSE(svc.recovered_from_artifact());
    EXPECT_NE(svc.recovery_note().find(reason), std::string::npos)
        << svc.recovery_note();
    RouteService fresh(g, opt);
    const std::vector<RouteQuery> queries = probe_queries(g, 400);
    expect_same_answers(svc.route_collect(queries),
                        fresh.route_collect(queries), "fallback vs fresh");
  }
}

TEST(ArtifactStore, MalformedFaultEnvThrowsAtConstruction) {
  // A typo in CROUTE_PERSIST_FAULT must never make a fault run pass
  // vacuously: the store refuses to construct.
  ::setenv("CROUTE_PERSIST_FAULT", "bogus-value", 1);
  const std::string dir = scratch_dir("store_badenv");
  EXPECT_THROW(persist::ArtifactStore({dir, 2}), std::invalid_argument);
  ::unsetenv("CROUTE_PERSIST_FAULT");
  EXPECT_NO_THROW(persist::ArtifactStore({dir, 2}));
}

// --- service lifecycle ----------------------------------------------------

class PersistLifecycle : public ::testing::TestWithParam<SchemeKind> {};

TEST_P(PersistLifecycle, RecoveredServiceAnswersIdentically) {
  const std::string dir =
      scratch_dir((std::string("svc_") + scheme_name(GetParam())).c_str());
  const Graph g = test_graph(19);
  RouteServiceOptions opt = base_options(GetParam());
  opt.persist.dir = dir;

  RouteService first(g, opt);  // fresh build; persists generation 1
  EXPECT_FALSE(first.recovered_from_artifact());
  EXPECT_EQ(first.snapshot().artifacts_persisted, 1u);

  RouteService second(g, opt);  // must recover, not rebuild
  EXPECT_TRUE(second.recovered_from_artifact()) << second.recovery_note();
  EXPECT_EQ(second.recovered_generation(), 1u);

  RouteServiceOptions plain = opt;
  plain.persist.dir.clear();
  RouteService fresh(g, plain);

  const std::vector<RouteQuery> queries = probe_queries(g, 1500);
  expect_same_answers(second.route_collect(queries), fresh.route_collect(queries),
                      "recovered vs fresh");
  expect_same_answers(first.route_collect(queries), fresh.route_collect(queries),
                      "persisting vs fresh");
}

INSTANTIATE_TEST_SUITE_P(AllKinds, PersistLifecycle,
                         ::testing::Values(SchemeKind::kTZDirect,
                                           SchemeKind::kTZHandshake));

TEST(PersistLifecycle, CorruptStoreDegradesToFreshBuildWithReason) {
  const std::string dir = scratch_dir("svc_degrade");
  const Graph g = test_graph(20, 200);
  RouteServiceOptions opt = base_options(SchemeKind::kTZDirect);
  opt.persist.dir = dir;
  { RouteService seed_store(g, opt); }  // persists generation 1
  // Rot every artifact: recovery must fall back to preprocessing and say
  // why, and the service must still serve correctly. The byte is
  // inverted, not overwritten, so the rot lands whatever the layout puts
  // at that offset.
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".art") continue;
    std::fstream f(entry.path(), std::ios::in | std::ios::out |
                                     std::ios::binary);
    f.seekg(100);
    const char byte = static_cast<char>(f.get());
    f.seekp(100);
    f.put(static_cast<char>(~byte));
  }
  RouteService svc(g, opt);
  EXPECT_FALSE(svc.recovered_from_artifact());
  EXPECT_FALSE(svc.recovery_note().empty());
  RouteServiceOptions plain = opt;
  plain.persist.dir.clear();
  RouteService fresh(g, plain);
  const std::vector<RouteQuery> queries = probe_queries(g, 800);
  expect_same_answers(svc.route_collect(queries), fresh.route_collect(queries),
                      "degraded vs fresh");
}

TEST(PersistLifecycle, RebuildPersistsNextGenerationInBackground) {
  const std::string dir = scratch_dir("svc_rebuild");
  const Graph g = test_graph(21, 200);
  RouteServiceOptions opt = base_options(SchemeKind::kTZDirect);
  opt.persist.dir = dir;
  RouteService svc(g, opt);
  SchemeManager manager(svc);
  Rng rng(5);
  manager.rebuild_async(perturb_graph(g, rng));
  manager.wait();
  EXPECT_EQ(svc.snapshot().artifacts_persisted, 2u);
  // The new generation is on disk and recovers for the NEW topology.
  persist::ArtifactStore store({dir, 2});
  EXPECT_EQ(store.newest_generation(), 2u);
}

TEST(PersistLifecycle, RebuildRetriesWithBackoffThenSurfaces) {
  const Graph g = test_graph(22, 150);
  RouteServiceOptions opt = base_options(SchemeKind::kTZDirect);
  opt.persist.rebuild_retries = 2;
  RouteService svc(g, opt);
  SchemeManager manager(svc);
  // A disconnected graph fails preprocessing deterministically: every
  // retry fails too, the budget drains, and wait() surfaces the error.
  GraphBuilder b(6);
  b.add_edge(0, 1).add_edge(1, 2);
  b.add_edge(3, 4).add_edge(4, 5);
  manager.rebuild_async(b.build());
  EXPECT_THROW(manager.wait(), std::invalid_argument);
  EXPECT_EQ(svc.snapshot().rebuild_retries, 2u);
  // The service still serves the original generation.
  const std::vector<RouteQuery> queries = probe_queries(g, 200);
  EXPECT_EQ(svc.route_collect(queries).size(), queries.size());
}

TEST(PersistLifecycle, PersistFailureIsCountedNotFatal) {
  const std::string dir = scratch_dir("svc_persist_fail");
  const Graph g = test_graph(24, 150);
  RouteServiceOptions opt = base_options(SchemeKind::kTZDirect);
  opt.persist.dir = dir;
  RouteService svc(g, opt);
  ASSERT_NE(svc.artifact_store(), nullptr);
  svc.artifact_store()->fault_injector().arm(
      {persist::FaultAction::kEnospc, persist::FaultOp::kWrite, 1});
  EXPECT_FALSE(svc.persist_current());
  const ServiceTelemetry tel = svc.snapshot();
  EXPECT_EQ(tel.artifacts_persisted, 1u);  // the construction-time persist
  EXPECT_EQ(tel.persist_failures, 1u);
  // Serving is untouched.
  const std::vector<RouteQuery> queries = probe_queries(g, 200);
  EXPECT_EQ(svc.route_collect(queries).size(), queries.size());
}

}  // namespace
}  // namespace croute
