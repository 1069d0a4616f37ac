/// Wire-protocol tests: frame codec edges (varint/size boundaries,
/// truncated and non-canonical headers, the 256-entry type table),
/// frame-mutation fuzz in the test_fuzz.cpp style, hostile wire-label
/// inputs against decode_wire_label, and end-to-end socket serving —
/// every scheme kind must answer byte-identically over TCP and
/// in-process, label-addressed queries included.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/flat_scheme.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "service/route_service.hpp"
#include "service/scheme_package.hpp"
#include "sim/experiment.hpp"
#include "util/bit_io.hpp"
#include "util/random.hpp"

namespace croute {
namespace {

using net::DecodeError;
using net::Frame;
using net::FrameDecoder;
using net::FrameType;
using net::WireAnswer;
using net::WireQuery;

std::vector<std::uint8_t> make_frame(std::uint8_t type,
                                     std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> out;
  net::encode_header(type, payload.size(), out);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

// ---------------------------------------------------------------------
// Frame header codec
// ---------------------------------------------------------------------

TEST(FrameHeader, SizeBoundariesRoundTrip) {
  // The four boundary sizes of the two-form header: 0 and 127 take the
  // 2-byte form, 128 and 65535 the 4-byte extended form.
  for (const std::size_t size : {std::size_t{0}, std::size_t{127},
                                 std::size_t{128}, std::size_t{65535}}) {
    const std::vector<std::uint8_t> payload(size, 0xAB);
    std::vector<std::uint8_t> bytes;
    const std::size_t header = net::encode_header(
        static_cast<std::uint8_t>(FrameType::kPing), size, bytes);
    EXPECT_EQ(header, size < 128 ? 2u : 4u) << size;
    bytes.insert(bytes.end(), payload.begin(), payload.end());

    FrameDecoder dec;
    dec.feed(bytes);
    Frame f;
    ASSERT_TRUE(dec.next(f)) << size;
    EXPECT_EQ(f.type, static_cast<std::uint8_t>(FrameType::kPing));
    ASSERT_EQ(f.payload.size(), size);
    EXPECT_EQ(dec.error(), DecodeError::kNone);
    EXPECT_FALSE(dec.next(f));  // exactly one frame
  }
}

TEST(FrameHeader, OversizedPayloadThrows) {
  std::vector<std::uint8_t> out;
  EXPECT_THROW(net::encode_header(0x09, net::kMaxPayload + 1, out),
               std::invalid_argument);
}

TEST(FrameHeader, TruncatedHeadersWaitWithoutError) {
  // 1 byte: not even a short header; 3 bytes of an extended header:
  // size still unknown. Both must WAIT (partial frame), not error.
  FrameDecoder dec;
  const std::uint8_t one[] = {0x09};
  dec.feed(one);
  Frame f;
  EXPECT_FALSE(dec.next(f));
  EXPECT_EQ(dec.error(), DecodeError::kNone);

  FrameDecoder dec2;
  const std::uint8_t three[] = {0x09, 0x80, 0x00};  // extended, size cut
  dec2.feed(three);
  EXPECT_FALSE(dec2.next(f));
  EXPECT_EQ(dec2.error(), DecodeError::kNone);

  // Completing the stream yields the frame.
  const std::uint8_t rest1[] = {0x01, 0x00};  // size = 256
  dec2.feed(rest1);
  EXPECT_FALSE(dec2.next(f));  // payload not arrived yet
  const std::vector<std::uint8_t> payload(256, 0x55);
  dec2.feed(payload);
  ASSERT_TRUE(dec2.next(f));
  EXPECT_EQ(f.payload.size(), 256u);
}

TEST(FrameHeader, TypeTableCoversAll256) {
  using net::FrameClass;
  EXPECT_EQ(net::classify_type(0x00), FrameClass::kInvalid);
  EXPECT_EQ(net::classify_type(0xFF), FrameClass::kInvalid);
  for (int b = 0x01; b <= 0x0A; ++b) {
    EXPECT_EQ(net::classify_type(static_cast<std::uint8_t>(b)),
              FrameClass::kActive)
        << b;
  }
  for (int b = 0x0B; b <= 0xAF; ++b) {
    EXPECT_EQ(net::classify_type(static_cast<std::uint8_t>(b)),
              FrameClass::kUnknown)
        << b;
  }
  for (int b = 0xB0; b <= 0xFE; ++b) {
    EXPECT_EQ(net::classify_type(static_cast<std::uint8_t>(b)),
              FrameClass::kReserved)
        << b;
  }
}

TEST(FrameHeader, UnknownAndReservedAndInvalidTypesPoison) {
  const struct {
    std::uint8_t type;
    DecodeError want;
  } cases[] = {
      {0x00, DecodeError::kInvalidType},
      {0xFF, DecodeError::kInvalidType},
      {0x0B, DecodeError::kUnknownType},
      {0x7F, DecodeError::kUnknownType},
      {0xB0, DecodeError::kReservedType},
      {0xFE, DecodeError::kReservedType},
  };
  for (const auto& c : cases) {
    FrameDecoder dec;
    const std::uint8_t bytes[] = {c.type, 0x00};
    dec.feed(bytes);
    Frame f;
    EXPECT_FALSE(dec.next(f));
    EXPECT_EQ(dec.error(), c.want) << int(c.type);
    // Poisoned: even a valid follow-up frame stays unread.
    const std::uint8_t valid[] = {0x09, 0x00};
    dec.feed(valid);
    EXPECT_FALSE(dec.next(f));
  }
}

TEST(FrameHeader, NonCanonicalExtendedSizeRejected) {
  {
    // E=1 with a size that fits the short form.
    FrameDecoder dec;
    const std::uint8_t bytes[] = {0x09, 0x80, 0x05, 0x00};
    dec.feed(bytes);
    Frame f;
    EXPECT_FALSE(dec.next(f));
    EXPECT_EQ(dec.error(), DecodeError::kNonCanonicalSize);
  }
  {
    // E=1 with nonzero low 7 bits in byte 1.
    FrameDecoder dec;
    const std::uint8_t bytes[] = {0x09, 0x81, 0x00, 0x01};
    dec.feed(bytes);
    Frame f;
    EXPECT_FALSE(dec.next(f));
    EXPECT_EQ(dec.error(), DecodeError::kNonCanonicalSize);
  }
}

TEST(FrameHeader, ByteAtATimeDelivery) {
  // A frame drip-fed one byte per feed() must assemble identically.
  const std::uint8_t payload[] = {1, 2, 3, 4, 5};
  const std::vector<std::uint8_t> bytes =
      make_frame(static_cast<std::uint8_t>(FrameType::kPing), payload);
  FrameDecoder dec;
  Frame f;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    dec.feed(std::span<const std::uint8_t>(&bytes[i], 1));
    EXPECT_FALSE(dec.next(f));
  }
  dec.feed(std::span<const std::uint8_t>(&bytes.back(), 1));
  ASSERT_TRUE(dec.next(f));
  ASSERT_EQ(f.payload.size(), sizeof payload);
  EXPECT_EQ(0, std::memcmp(f.payload.data(), payload, sizeof payload));
}

// ---------------------------------------------------------------------
// Varints and payload codecs
// ---------------------------------------------------------------------

TEST(WireVarint, BoundaryValuesRoundTrip) {
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{127}, std::uint64_t{128},
        std::uint64_t{65535}, std::uint64_t{1} << 32,
        ~std::uint64_t{0}}) {
    std::vector<std::uint8_t> bytes;
    net::put_varint(bytes, v);
    net::PayloadReader r(bytes);
    std::uint64_t got = 0;
    ASSERT_TRUE(r.read_varint(got)) << v;
    EXPECT_EQ(got, v);
    EXPECT_TRUE(r.done());
  }
}

TEST(WireVarint, TruncatedAndOverlongRejected) {
  {
    net::PayloadReader r(std::span<const std::uint8_t>{});
    std::uint64_t v = 0;
    EXPECT_FALSE(r.read_varint(v));
  }
  {
    const std::uint8_t bytes[] = {0x80};  // continuation, then nothing
    net::PayloadReader r(bytes);
    std::uint64_t v = 0;
    EXPECT_FALSE(r.read_varint(v));
  }
  {
    // 10th byte carrying more than the final bit (overflow of 64 bits).
    const std::uint8_t bytes[] = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                                  0xFF, 0xFF, 0xFF, 0xFF, 0x02};
    net::PayloadReader r(bytes);
    std::uint64_t v = 0;
    EXPECT_FALSE(r.read_varint(v));
  }
}

TEST(WirePayload, QueryRoundTripBothForms) {
  const std::uint8_t label_bytes[] = {0xDE, 0xAD, 0xBE};
  std::vector<WireQuery> queries(3);
  queries[0] = {5, 9, {}, 0};
  queries[1] = {0, 0, {}, 0};
  queries[2] = {7, kNoVertex, label_bytes, 20};

  // Vertex form.
  std::vector<std::uint8_t> payload;
  net::encode_query(payload, 42, std::span(queries.data(), 2), false);
  std::uint64_t req_id = 0;
  std::vector<WireQuery> got;
  ASSERT_TRUE(net::decode_query(payload, false, req_id, got));
  EXPECT_EQ(req_id, 42u);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].s, 5u);
  EXPECT_EQ(got[0].t, 9u);

  // Label form.
  payload.clear();
  got.clear();
  net::encode_query(payload, 43, std::span(queries.data() + 2, 1), true);
  ASSERT_TRUE(net::decode_query(payload, true, req_id, got));
  EXPECT_EQ(req_id, 43u);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].s, 7u);
  EXPECT_EQ(got[0].label_bits, 20u);
  ASSERT_EQ(got[0].label.size(), 3u);
  EXPECT_EQ(0, std::memcmp(got[0].label.data(), label_bytes, 3));

  // Trailing garbage fails decode.
  payload.push_back(0x00);
  got.clear();
  EXPECT_FALSE(net::decode_query(payload, true, req_id, got));
}

TEST(WirePayload, HostileCountRejectedWithoutAllocation) {
  // count = 2^60 with a 4-byte payload must fail fast (the decoder may
  // not pre-size from the claimed count).
  std::vector<std::uint8_t> payload;
  net::put_varint(payload, 1);                       // req_id
  net::put_varint(payload, std::uint64_t{1} << 60);  // count
  std::uint64_t req_id = 0;
  std::vector<WireQuery> got;
  EXPECT_FALSE(net::decode_query(payload, false, req_id, got));
  EXPECT_TRUE(got.empty());
}

TEST(WirePayload, AnswerVersionsDiffer) {
  std::vector<WireAnswer> answers(1);
  answers[0] = {0, 4, 77, 1500, 300};
  std::vector<std::uint8_t> v2, v1;
  net::encode_answer(v2, 9, 2, answers);
  net::encode_answer(v1, 9, 1, answers);
  EXPECT_GT(v2.size(), v1.size());  // v1 omits the timing pair

  std::uint64_t req_id = 0;
  std::vector<WireAnswer> got;
  ASSERT_TRUE(net::decode_answer(v1, 1, req_id, got));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].hops, 4u);
  EXPECT_EQ(got[0].header_bits, 77u);
  EXPECT_EQ(got[0].latency_ns, 0u);  // not on the v1 wire

  got.clear();
  ASSERT_TRUE(net::decode_answer(v2, 2, req_id, got));
  EXPECT_EQ(got[0].latency_ns, 1500u);
  EXPECT_EQ(got[0].queue_wait_ns, 300u);

  // Version mismatch when parsing = trailing/missing bytes = rejection.
  got.clear();
  EXPECT_FALSE(net::decode_answer(v2, 1, req_id, got));
  got.clear();
  EXPECT_FALSE(net::decode_answer(v1, 2, req_id, got));
}

// ---------------------------------------------------------------------
// bit_io byte bridge (this PR's to_bytes/from_bytes)
// ---------------------------------------------------------------------

TEST(WireBits, ToBytesFromBytesRoundTrip) {
  Rng rng(7);
  for (int iter = 0; iter < 50; ++iter) {
    BitWriter w;
    const int fields = 1 + static_cast<int>(rng.next_below(20));
    std::vector<std::pair<std::uint64_t, std::uint32_t>> expect;
    for (int i = 0; i < fields; ++i) {
      const std::uint32_t bits = 1 + static_cast<std::uint32_t>(
                                         rng.next_below(64));
      const std::uint64_t value =
          bits == 64 ? rng() : rng() & ((1ULL << bits) - 1);
      w.write_bits(value, bits);
      expect.emplace_back(value, bits);
    }
    const std::vector<std::uint8_t> bytes = to_bytes(w);
    EXPECT_EQ(bytes.size(), (w.bit_size() + 7) / 8);
    const BitWriter back = from_bytes(bytes, w.bit_size());
    BitReader r(back);
    for (const auto& [value, bits] : expect) {
      EXPECT_EQ(r.read_bits(bits), value);
    }
    EXPECT_EQ(r.position(), w.bit_size());
  }
}

// ---------------------------------------------------------------------
// Shared serving fixture (one graph + per-scheme services)
// ---------------------------------------------------------------------

struct NetFixture {
  Graph g;
  explicit NetFixture(VertexId n = 180) {
    Rng rng(11);
    g = make_workload(GraphFamily::kErdosRenyi, n, rng);
  }

  RouteServiceOptions options(SchemeKind scheme) const {
    RouteServiceOptions opt;
    opt.scheme = scheme;
    opt.threads = 2;
    opt.seed = 5;
    return opt;
  }
};

/// Runs \p body with a served NetServer (own thread) and a connected
/// client.
template <typename Body>
void with_server(RouteService& service, net::NetServerOptions nopt,
                 Body&& body) {
  net::NetServer server(service, nopt);
  std::thread loop([&server] { server.run(); });
  try {
    net::NetClient client;
    client.connect("127.0.0.1", server.port());
    body(client, server);
  } catch (...) {
    server.stop();
    loop.join();
    throw;
  }
  server.stop();
  loop.join();
}

/// A raw loopback TCP socket to \p port (no handshake), for tests that
/// must control exactly which bytes go out in one write. Reads time out
/// after 10 s so a missing reply fails the test instead of hanging it.
int connect_raw(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return fd;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  timeval timeout{};
  timeout.tv_sec = 10;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// ---------------------------------------------------------------------
// decode_wire_label hostile inputs
// ---------------------------------------------------------------------

/// Every vertex's wire label decodes to exactly its pooled label: the
/// decoder consumes the whole encoding — the level fields and, when the
/// codec carries them, the 64-bit distances it reads and drops included
/// — and yields the same pivots, dfs indices and light ports.
void expect_wire_labels_match_pool(const TZScheme& scheme,
                                   const FlatScheme& flat) {
  const LabelCodec& codec = scheme.label_codec();
  const VertexId n = scheme.graph().num_vertices();
  for (VertexId t = 0; t < n; ++t) {
    BitWriter w;
    codec.encode(scheme.label(t), w);
    BitReader r(w);
    std::vector<FlatScheme::LabelEntryView> entries;
    std::vector<Port> ports;
    ASSERT_EQ(decode_wire_label(codec, n, r, entries, ports), t);
    ASSERT_EQ(r.position(), w.bit_size()) << "t=" << t;
    const std::span<const FlatScheme::LabelEntryView> pooled = flat.label(t);
    ASSERT_EQ(entries.size(), pooled.size()) << "t=" << t;
    for (std::size_t j = 0; j < entries.size(); ++j) {
      EXPECT_EQ(entries[j].w, pooled[j].w) << "t=" << t << " entry " << j;
      EXPECT_EQ(entries[j].dfs_in, pooled[j].dfs_in)
          << "t=" << t << " entry " << j;
      const std::span<const Port> want = flat.label_light_ports(pooled[j]);
      const std::span<const Port> got{ports.data() + entries[j].light_off,
                                      entries[j].light_len};
      EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(),
                             want.end()))
          << "t=" << t << " entry " << j;
    }
  }
}

TEST(WireLabelDecode, HostileInputsThrowCleanly) {
  NetFixture fx;
  RouteService service(fx.g, fx.options(SchemeKind::kTZDirect));
  const SchemePackagePtr pkg = service.package();
  const LabelCodec& codec = pkg->tz->label_codec();
  const VertexId n = fx.g.num_vertices();

  // Every valid wire label round-trips, with and without carried
  // distances (the service's labels carry none).
  ASSERT_FALSE(codec.carries_distances());
  expect_wire_labels_match_pool(*pkg->tz, *pkg->flat);
  {
    TZSchemeOptions sopt;
    sopt.pre.k = 3;
    sopt.labels_carry_distances = true;
    Rng rng(12);
    const TZScheme carrying(fx.g, sopt, rng);
    ASSERT_TRUE(carrying.label_codec().carries_distances());
    expect_wire_labels_match_pool(carrying, FlatScheme(carrying));
  }

  BitWriter w;
  codec.encode(pkg->tz->label(3), w);
  // Truncated: cut the stream short and decode must throw, not read
  // out of bounds.
  {
    const std::vector<std::uint8_t> bytes = to_bytes(w);
    const std::uint64_t cut = w.bit_size() / 2;
    const BitWriter half = from_bytes(bytes, cut);
    BitReader r(half);
    std::vector<FlatScheme::LabelEntryView> entries;
    std::vector<Port> ports;
    EXPECT_THROW(decode_wire_label(codec, n, r, entries, ports),
                 std::invalid_argument);
  }
  // Out-of-range target id: decode the (valid) label for vertex 3
  // against a shrunken universe, so the leading id fails `t < n`.
  {
    BitReader r(w);
    std::vector<FlatScheme::LabelEntryView> entries;
    std::vector<Port> ports;
    EXPECT_THROW(decode_wire_label(codec, 3, r, entries, ports),
                 std::invalid_argument);
  }
}

// ---------------------------------------------------------------------
// Frame-mutation fuzz (test_fuzz.cpp style: seeded, never crashes)
// ---------------------------------------------------------------------

TEST(FrameFuzz, MutatedFramesNeverCrashAndMostlyReject) {
  // Build one valid QUERY_V frame, then 400 seeded mutations across 5
  // kinds. Every outcome is acceptable EXCEPT a crash or an accepted
  // frame whose payload then decodes to out-of-thin-air queries beyond
  // the mutated buffer. The large majority must be rejected outright.
  std::vector<WireQuery> queries(4);
  for (std::uint32_t i = 0; i < queries.size(); ++i) {
    queries[i] = {i, i + 1, {}, 0};
  }
  std::vector<std::uint8_t> payload;
  net::encode_query(payload, 7, queries, false);
  const std::vector<std::uint8_t> frame =
      make_frame(static_cast<std::uint8_t>(FrameType::kQueryV), payload);

  Rng rng(1234);
  int rejected = 0;
  for (int iter = 0; iter < 400; ++iter) {
    std::vector<std::uint8_t> mutated = frame;
    const std::uint64_t kind = rng.next_below(5);
    switch (kind) {
      case 0:  // flip one bit
        mutated[rng.next_below(mutated.size())] ^=
            static_cast<std::uint8_t>(1u << rng.next_below(8));
        break;
      case 1:  // truncate
        mutated.resize(rng.next_below(mutated.size()));
        break;
      case 2:  // corrupt the type byte
        mutated[0] = static_cast<std::uint8_t>(rng());
        break;
      case 3:  // corrupt the size byte(s)
        mutated[1] = static_cast<std::uint8_t>(rng());
        break;
      default:  // append garbage
        for (int i = 0; i < 8; ++i) {
          mutated.push_back(static_cast<std::uint8_t>(rng()));
        }
        break;
    }
    FrameDecoder dec;
    dec.feed(mutated);
    Frame f;
    bool accepted_a_query = false;
    while (dec.next(f)) {
      if (f.type == static_cast<std::uint8_t>(FrameType::kQueryV)) {
        std::uint64_t req_id = 0;
        std::vector<WireQuery> got;
        if (net::decode_query(f.payload, false, req_id, got)) {
          accepted_a_query = true;
          EXPECT_LE(got.size(), 64u);  // sane bound, no resize bombs
        }
      }
    }
    if (!accepted_a_query) ++rejected;
  }
  // Structural mutations (truncation, type/size corruption) must reject;
  // value-preserving ones legitimately survive — a bit flip inside a
  // vertex-id varint is still a well-formed query, and appended garbage
  // leaves the valid prefix frame intact. Seed 1234 rejects 256/400;
  // assert the structural majority with headroom rather than the exact
  // count.
  EXPECT_GT(rejected, 150);
}

// ---------------------------------------------------------------------
// End-to-end: socket answers == in-process answers, every scheme kind
// ---------------------------------------------------------------------

TEST(NetServe, SocketAnswersByteIdenticalEverySchemeKind) {
  NetFixture fx;
  const VertexId n = fx.g.num_vertices();
  for (const SchemeKind scheme :
       {SchemeKind::kTZDirect, SchemeKind::kTZHandshake}) {
    RouteService service(fx.g, fx.options(scheme));

    // In-process reference answers.
    Rng rng(99);
    std::vector<RouteQuery> ref_queries(64);
    std::vector<WireQuery> wire(64);
    for (std::size_t i = 0; i < ref_queries.size(); ++i) {
      const auto s = static_cast<VertexId>(rng.next_below(n));
      const auto t = static_cast<VertexId>(rng.next_below(n));
      ref_queries[i] = {s, t, kUnknownDistance};
      wire[i] = {s, t, {}, 0};
    }
    const std::vector<RouteAnswer> expect =
        service.route_collect(std::span<const RouteQuery>{ref_queries});

    with_server(service, {}, [&](net::NetClient& client, net::NetServer&) {
      EXPECT_EQ(client.welcome().n, n);
      EXPECT_EQ(client.welcome().scheme, static_cast<std::uint8_t>(scheme));
      EXPECT_TRUE(client.ping());
      const std::vector<WireAnswer> got = client.query(wire, false);
      ASSERT_EQ(got.size(), expect.size()) << scheme_name(scheme);
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].status,
                  static_cast<std::uint8_t>(expect[i].status));
        EXPECT_EQ(got[i].hops, expect[i].hops);
        EXPECT_EQ(got[i].header_bits, expect[i].header_bits);
      }
    });
  }
}

TEST(NetServe, LabelAddressedQueriesMatchVertexAddressed) {
  NetFixture fx;
  const VertexId n = fx.g.num_vertices();
  RouteService service(fx.g, fx.options(SchemeKind::kTZDirect));

  with_server(service, {}, [&](net::NetClient& client, net::NetServer&) {
    ASSERT_GT(client.welcome().id_bits, 0u);
    Rng rng(17);
    std::vector<VertexId> targets(32);
    for (auto& t : targets) t = static_cast<VertexId>(rng.next_below(n));
    const std::vector<net::OwnedLabel> labels = client.fetch_labels(targets);
    ASSERT_EQ(labels.size(), targets.size());

    std::vector<WireQuery> by_vertex(targets.size());
    std::vector<WireQuery> by_label(targets.size());
    for (std::size_t i = 0; i < targets.size(); ++i) {
      const auto s = static_cast<VertexId>(rng.next_below(n));
      by_vertex[i] = {s, targets[i], {}, 0};
      by_label[i] = {s, kNoVertex, labels[i].bytes, labels[i].bits};
    }
    const std::vector<WireAnswer> v = client.query(by_vertex, false);
    const std::vector<WireAnswer> l = client.query(by_label, true);
    ASSERT_EQ(v.size(), l.size());
    for (std::size_t i = 0; i < v.size(); ++i) {
      EXPECT_EQ(v[i].status, l[i].status) << i;
      EXPECT_EQ(v[i].hops, l[i].hops) << i;
      EXPECT_EQ(v[i].header_bits, l[i].header_bits) << i;
    }
  });
}

TEST(NetServe, BadFramesGetErrorsAndGoodQueriesStillServe) {
  NetFixture fx;
  const VertexId n = fx.g.num_vertices();
  RouteService service(fx.g, fx.options(SchemeKind::kTZDirect));

  with_server(service, {}, [&](net::NetClient& client, net::NetServer&) {
    // Hostile label bytes: the frame is rejected alone (kErrMalformed)
    // and the connection survives to serve a good query after it.
    const std::uint8_t junk[] = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF};
    std::vector<WireQuery> bad(1);
    bad[0] = {0, kNoVertex, junk, 48};
    EXPECT_THROW(client.query(bad, true), std::runtime_error);

    std::vector<WireQuery> good(1);
    good[0] = {0, static_cast<VertexId>(n - 1), {}, 0};
    const std::vector<WireAnswer> got = client.query(good, false);
    ASSERT_EQ(got.size(), 1u);

    // Out-of-range vertex id: same per-frame rejection.
    std::vector<WireQuery> oob(1);
    oob[0] = {0, n, {}, 0};
    EXPECT_THROW(client.query(oob, false), std::runtime_error);
    EXPECT_EQ(client.query(good, false).size(), 1u);
  });
}

TEST(NetServe, OversizedLabelRequestGetsErrorAndConnectionSurvives) {
  // 20 000 labels cannot fit one LABEL_RESP. The server must refuse that
  // request alone — an ERROR frame naming the limit — and keep serving
  // the connection, instead of throwing out of its event loop.
  NetFixture fx;
  const VertexId n = fx.g.num_vertices();
  RouteService service(fx.g, fx.options(SchemeKind::kTZDirect));
  std::vector<VertexId> many(20000);
  for (std::size_t i = 0; i < many.size(); ++i) {
    many[i] = static_cast<VertexId>(i % n);
  }
  with_server(service, {}, [&](net::NetClient& client, net::NetServer&) {
    client.send_label_req(many);
    net::Reply reply;
    ASSERT_TRUE(client.read_reply(reply));
    ASSERT_EQ(reply.type, static_cast<std::uint8_t>(FrameType::kError));
    EXPECT_EQ(reply.error_code, net::kErrMalformed);
    EXPECT_NE(reply.error_message.find("65535"), std::string::npos)
        << reply.error_message;

    std::vector<WireQuery> good(1);
    good[0] = {0, static_cast<VertexId>(n - 1), {}, 0};
    EXPECT_EQ(client.query(good, false).size(), 1u);

    // fetch_labels splits the same request and returns, in order, the
    // labels small fetches return.
    const std::vector<net::OwnedLabel> big = client.fetch_labels(many);
    ASSERT_EQ(big.size(), many.size());
    std::vector<VertexId> all(n);
    for (VertexId v = 0; v < n; ++v) all[v] = v;
    std::vector<net::OwnedLabel> small;
    for (VertexId v = 0; v < n; v += 20) {
      const std::span<const VertexId> part(all.data() + v,
                                           std::min<VertexId>(20, n - v));
      for (net::OwnedLabel& l : client.fetch_labels(part)) {
        small.push_back(std::move(l));
      }
    }
    ASSERT_EQ(small.size(), n);
    for (std::size_t i = 0; i < many.size(); ++i) {
      ASSERT_EQ(big[i].bits, small[many[i]].bits) << i;
      ASSERT_EQ(big[i].bytes, small[many[i]].bytes) << i;
    }
  });
}

TEST(NetServe, LegacyVersionHandshakeAndAnswers) {
  NetFixture fx;
  RouteService service(fx.g, fx.options(SchemeKind::kTZDirect));
  with_server(service, {}, [&](net::NetClient&, net::NetServer& server) {
    net::NetClient old;
    old.connect("127.0.0.1", server.port(), net::kLegacyVersion);
    EXPECT_EQ(old.version(), net::kLegacyVersion);
    std::vector<WireQuery> q(1);
    q[0] = {1, 2, {}, 0};
    const std::vector<WireAnswer> got = old.query(q, false);
    ASSERT_EQ(got.size(), 1u);
    // v1 answers carry no timing pair — decoded as zero.
    EXPECT_EQ(got[0].latency_ns, 0u);
    EXPECT_EQ(got[0].queue_wait_ns, 0u);
  });
}

TEST(NetServe, AdmissionControlRejectsOverload) {
  NetFixture fx;
  RouteService service(fx.g, fx.options(SchemeKind::kTZDirect));
  net::NetServerOptions nopt;
  nopt.coalesce = 4;    // tiny queue: the 5th pending query overflows
  nopt.max_pending = 4;
  with_server(service, nopt, [&](net::NetClient& client, net::NetServer&) {
    // One frame bigger than max_pending trips admission control.
    std::vector<WireQuery> burst(5);
    for (std::uint32_t i = 0; i < burst.size(); ++i) {
      burst[i] = {i, i, {}, 0};
    }
    try {
      client.query(burst, false);
      FAIL() << "expected kErrOverloaded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("server error 1"),
                std::string::npos)
          << e.what();
    }
    // Smaller batches still serve.
    std::vector<WireQuery> ok(burst.begin(), burst.begin() + 3);
    EXPECT_EQ(client.query(ok, false).size(), 3u);
  });
}

TEST(NetServe, FramingErrorDropsConnectionLoudly) {
  // A reserved type byte on the raw socket must draw ERROR kErrMalformed
  // ("framing error: ...") followed by connection close — framing errors
  // are unrecoverable on a byte stream, so the server says why and drops.
  NetFixture fx;
  RouteService service(fx.g, fx.options(SchemeKind::kTZDirect));
  with_server(service, {}, [&](net::NetClient&, net::NetServer& server) {
    const int fd = connect_raw(server.port());
    ASSERT_GE(fd, 0);
    const std::uint8_t poison[] = {0xB0, 0x00};  // reserved type
    ASSERT_EQ(::send(fd, poison, sizeof poison, 0),
              static_cast<ssize_t>(sizeof poison));

    FrameDecoder dec;
    bool got_error = false;
    bool got_eof = false;
    for (;;) {
      std::uint8_t buf[4096];
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n <= 0) {
        got_eof = n == 0;
        break;
      }
      dec.feed(std::span<const std::uint8_t>(
          buf, static_cast<std::size_t>(n)));
      Frame f;
      while (dec.next(f)) {
        if (f.type == static_cast<std::uint8_t>(FrameType::kError)) {
          std::uint32_t code = 0;
          std::uint64_t req_id = 0;
          std::string message;
          ASSERT_TRUE(net::decode_error(f.payload, code, req_id, message));
          EXPECT_EQ(code, net::kErrMalformed);
          EXPECT_NE(message.find("framing error"), std::string::npos)
              << message;
          got_error = true;
        }
      }
    }
    ::close(fd);
    EXPECT_TRUE(got_error);
    EXPECT_TRUE(got_eof);
  });
}

TEST(NetServe, OversizedAnswerFailsOnlyItsOwnFrame) {
  // A QUERY frame that fits kMaxPayload can still answer past it: ids
  // below 128 cost 2 payload bytes per query, a v2 answer at least 5.
  // Sent in one write behind a small frame, both coalesce into one
  // batch. The oversized ANSWER must cost only its own frame — one ERROR
  // naming the limit — while the small frame gets exactly one ANSWER and
  // no ERROR, and the connection keeps serving.
  NetFixture fx;
  RouteService service(fx.g, fx.options(SchemeKind::kTZDirect));
  net::NetServerOptions nopt;
  nopt.max_pending = 32768;
  with_server(service, nopt, [&](net::NetClient&, net::NetServer& server) {
    const auto queries = [](std::uint32_t count) {
      std::vector<WireQuery> q(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        q[i] = {i % 100, (7 * i + 1) % 100, {}, 0};
      }
      return q;
    };
    std::vector<std::uint8_t> wire, payload;
    const auto append = [&](FrameType type) {
      net::encode_header(static_cast<std::uint8_t>(type), payload.size(),
                         wire);
      wire.insert(wire.end(), payload.begin(), payload.end());
      payload.clear();
    };
    net::encode_hello(payload, net::kProtocolVersion);
    append(FrameType::kHello);
    net::encode_query(payload, 1, queries(4), false);
    append(FrameType::kQueryV);
    net::encode_query(payload, 2, queries(20000), false);
    ASSERT_LE(payload.size(), net::kMaxPayload);
    append(FrameType::kQueryV);
    net::encode_query(payload, 3, queries(4), false);  // served afterwards
    append(FrameType::kQueryV);

    const int fd = connect_raw(server.port());
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(wire.size()));

    std::map<std::uint64_t, int> answers, errors;
    std::string big_error;
    FrameDecoder dec;
    while (answers[3] == 0) {
      std::uint8_t buf[4096];
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      ASSERT_GT(n, 0) << "connection closed or timed out";
      dec.feed(std::span<const std::uint8_t>(buf,
                                             static_cast<std::size_t>(n)));
      Frame f;
      while (dec.next(f)) {
        std::uint64_t req_id = 0;
        if (f.type == static_cast<std::uint8_t>(FrameType::kAnswer)) {
          std::vector<WireAnswer> got;
          ASSERT_TRUE(net::decode_answer(f.payload, net::kProtocolVersion,
                                         req_id, got));
          EXPECT_EQ(got.size(), 4u) << "req " << req_id;
          ++answers[req_id];
        } else if (f.type == static_cast<std::uint8_t>(FrameType::kError)) {
          std::uint32_t code = 0;
          std::string message;
          ASSERT_TRUE(net::decode_error(f.payload, code, req_id, message));
          EXPECT_EQ(code, net::kErrMalformed);
          ++errors[req_id];
          if (req_id == 2) big_error = message;
        }
      }
    }
    ::close(fd);
    EXPECT_EQ(answers[1], 1);
    EXPECT_EQ(errors[1], 0);
    EXPECT_EQ(answers[2], 0);
    EXPECT_EQ(errors[2], 1);
    EXPECT_NE(big_error.find("65535"), std::string::npos) << big_error;
    EXPECT_EQ(errors[3], 0);
  });
}

TEST(NetServe, BadWireLabelsFailOnlyTheirOwnQueries) {
  // One QUERY_L frame mixes labels fetched before a publish() of a
  // rebuilt generation, fresh labels, and labels crafted to reach each
  // label-dependent dead end of the batch engine; a QUERY_V frame sent in
  // the same write coalesces with it into one batch. A bad label must
  // cost only its own query (kBadPort: no valid port exists), never the
  // batch: no ERROR frame, fresh and vertex-addressed answers equal
  // route_collect's, stale labels route to whatever their old trees say.
  NetFixture fx;
  const VertexId n = fx.g.num_vertices();
  const RouteServiceOptions opt = fx.options(SchemeKind::kTZDirect);
  RouteService service(fx.g, opt);
  // A batch resolves each destination's label once, from the first
  // request naming it, so every kind of query gets its own destinations.
  Rng rng(23);
  std::vector<VertexId> order(n);
  for (VertexId v = 0; v < n; ++v) order[v] = v;
  for (VertexId i = n - 1; i > 0; --i) {
    std::swap(order[i], order[rng.next_below(std::uint64_t{i} + 1)]);
  }
  std::vector<bool> used(n, false);
  std::size_t next = 0;
  const auto take = [&](std::size_t count) {
    std::vector<VertexId> out;
    for (; out.size() < count; ++next) {
      out.push_back(order[next]);
      used[order[next]] = true;
    }
    return out;
  };
  const std::vector<VertexId> vertex_targets = take(24);
  const std::vector<VertexId> stale_targets = take(16);
  const std::vector<VertexId> fresh_targets = take(16);
  const auto source = [&] { return static_cast<VertexId>(rng.next_below(n)); };

  with_server(service, {}, [&](net::NetClient& client,
                               net::NetServer& server) {
    const std::vector<net::OwnedLabel> stale =
        client.fetch_labels(stale_targets);
    RouteServiceOptions rebuilt = opt;
    rebuilt.seed = opt.seed + 1;
    service.publish(build_scheme_package(
        std::make_shared<const Graph>(fx.g), rebuilt));
    const std::vector<net::OwnedLabel> fresh =
        client.fetch_labels(fresh_targets);

    // Crafted labels, against the generation now serving.
    const SchemePackagePtr pkg = service.package();
    const TZScheme& tz = *pkg->tz;
    const FlatScheme& flat = *pkg->flat;
    const TZPreprocessing& pre = tz.preprocessing();
    const std::uint32_t k = tz.k();
    ASSERT_GE(k, 2u);
    const VertexId landmark = pre.hierarchy().levels[k - 1].front();
    used[landmark] = true;  // a crafted source; s == t would self-deliver
    const auto unused = [&](auto&& ok) {
      for (VertexId v = 0; v < n; ++v) {
        if (!used[v] && ok(v)) {
          used[v] = true;
          return v;
        }
      }
      return kNoVertex;
    };
    const auto entry = [](std::uint32_t level, VertexId w,
                          std::uint32_t dfs, std::vector<Port> ports) {
      LabelEntry e;
      e.level = level;
      e.w = w;
      e.tree = TreeLabel{dfs, std::move(ports)};
      return e;
    };
    struct Crafted {
      VertexId s;
      RoutingLabel label;
    };
    std::vector<Crafted> crafted;
    // (1) A valid label re-encoded without its last light port, sent
    // from the root of its top-level tree (a landmark source's bunch is
    // A_{k-1}, so the scan picks that entry): the walk descends to the
    // branch point that needs the missing port.
    {
      const VertexId t = unused([&](VertexId v) {
        return pre.center_level(v) + 1 < k &&
               !tz.label(v).entries.back().tree.light_ports.empty();
      });
      ASSERT_NE(t, kNoVertex);
      RoutingLabel l = tz.label(t);
      l.entries.back().tree.light_ports.pop_back();
      crafted.push_back({l.entries.back().w, l});
    }
    // (2) A dfs index past the top-level tree: the walk reaches the root
    // with its destination outside the tree.
    {
      const std::uint32_t dfs = (1u << tz.tree_codec().dfs_bits) - 1;
      ASSERT_GE(dfs, n);  // a top-level tree has n nodes
      const VertexId t = unused([](VertexId) { return true; });
      crafted.push_back(
          {landmark, RoutingLabel{t, {entry(k - 1, landmark, dfs, {})}}});
    }
    // (3) A single entry naming a level-0 vertex outside B(s): the label
    // scan runs past the label.
    {
      const VertexId w = unused([&](VertexId v) {
        return pre.center_level(v) == 0 &&
               flat.find(landmark, v) == FlatScheme::kNotFound;
      });
      const VertexId t = unused([](VertexId) { return true; });
      ASSERT_NE(w, kNoVertex);
      crafted.push_back(
          {landmark, RoutingLabel{t, {entry(0, w, 0, {})}}});
    }
    // (4) A light port that leaves a lower-level cluster: from the root
    // w of C(w), a dfs past the heavy subtree takes light port 0, which
    // the label points at a neighbour outside C(w).
    {
      bool found = false;
      for (VertexId w = 0; w < n && !found; ++w) {
        if (pre.center_level(w) != 0) continue;
        const FlatNodeRecord& root = flat.record(flat.find(w, w));
        if (root.heavy_port == kNoPort || root.heavy_out >= root.dfs_out) {
          continue;  // no light child at the root
        }
        for (Port p = 0; p < fx.g.degree(w) && !found; ++p) {
          if (flat.find(fx.g.arc(w, p).head, w) != FlatScheme::kNotFound) {
            continue;
          }
          const VertexId t = unused([&](VertexId v) {
            return flat.dir_find(w, v) == FlatScheme::kNotFound;
          });
          ASSERT_NE(t, kNoVertex);
          crafted.push_back(
              {w, RoutingLabel{t, {entry(0, w, root.heavy_out, {p})}}});
          found = true;
        }
      }
      ASSERT_TRUE(found) << "no level-0 cluster with a light child at its "
                            "root and a neighbour outside";
    }

    // Frame 1 (vertex-addressed) and frame 2 (stale, fresh, crafted).
    std::vector<WireQuery> by_vertex;
    std::vector<RouteQuery> vertex_ref;
    for (const VertexId t : vertex_targets) {
      const VertexId s = source();
      by_vertex.push_back({s, t, {}, 0});
      vertex_ref.push_back({s, t, kUnknownDistance});
    }
    std::vector<net::OwnedLabel> crafted_wire;
    for (const Crafted& c : crafted) {
      BitWriter w;
      tz.label_codec().encode(c.label, w);
      crafted_wire.push_back(
          {static_cast<std::uint32_t>(w.bit_size()), to_bytes(w)});
    }
    enum class Kind { kStale, kFresh, kCrafted };
    std::vector<WireQuery> by_label;
    std::vector<Kind> kinds;
    std::vector<RouteQuery> label_ref;
    for (std::size_t i = 0; i < stale.size(); ++i) {
      const VertexId s = source();
      by_label.push_back({s, kNoVertex, stale[i].bytes, stale[i].bits});
      kinds.push_back(Kind::kStale);
      label_ref.push_back({s, stale_targets[i], kUnknownDistance});
    }
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      const VertexId s = source();
      by_label.push_back({s, kNoVertex, fresh[i].bytes, fresh[i].bits});
      kinds.push_back(Kind::kFresh);
      label_ref.push_back({s, fresh_targets[i], kUnknownDistance});
    }
    for (std::size_t i = 0; i < crafted.size(); ++i) {
      by_label.push_back({crafted[i].s, kNoVertex, crafted_wire[i].bytes,
                          crafted_wire[i].bits});
      kinds.push_back(Kind::kCrafted);
      label_ref.push_back({crafted[i].s, crafted[i].label.t,
                           kUnknownDistance});
    }

    std::vector<std::uint8_t> wire, payload;
    const auto append = [&](FrameType type) {
      net::encode_header(static_cast<std::uint8_t>(type), payload.size(),
                         wire);
      wire.insert(wire.end(), payload.begin(), payload.end());
      payload.clear();
    };
    net::encode_hello(payload, net::kProtocolVersion);
    append(FrameType::kHello);
    net::encode_query(payload, 1, by_vertex, false);
    append(FrameType::kQueryV);
    net::encode_query(payload, 2, by_label, true);
    append(FrameType::kQueryL);
    const int fd = connect_raw(server.port());
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(wire.size()));

    std::map<std::uint64_t, std::vector<WireAnswer>> answers;
    std::vector<std::string> errors;
    FrameDecoder dec;
    while (answers.size() + errors.size() < 2) {
      std::uint8_t buf[4096];
      const ssize_t got = ::recv(fd, buf, sizeof buf, 0);
      ASSERT_GT(got, 0) << "connection closed or timed out";
      dec.feed(std::span<const std::uint8_t>(buf,
                                             static_cast<std::size_t>(got)));
      Frame f;
      while (dec.next(f)) {
        std::uint64_t req_id = 0;
        if (f.type == static_cast<std::uint8_t>(FrameType::kAnswer)) {
          std::vector<WireAnswer> a;
          ASSERT_TRUE(net::decode_answer(f.payload, net::kProtocolVersion,
                                         req_id, a));
          answers[req_id] = std::move(a);
        } else if (f.type == static_cast<std::uint8_t>(FrameType::kError)) {
          std::uint32_t code = 0;
          std::string message;
          ASSERT_TRUE(net::decode_error(f.payload, code, req_id, message));
          errors.push_back(message);
        }
      }
    }
    ::close(fd);
    ASSERT_TRUE(errors.empty()) << errors.front();
    ASSERT_EQ(answers[1].size(), by_vertex.size());
    ASSERT_EQ(answers[2].size(), by_label.size());

    const std::vector<RouteAnswer> vref = service.route_collect(vertex_ref);
    for (std::size_t i = 0; i < vref.size(); ++i) {
      EXPECT_EQ(answers[1][i].status,
                static_cast<std::uint8_t>(vref[i].status)) << i;
      EXPECT_EQ(answers[1][i].hops, vref[i].hops) << i;
      EXPECT_EQ(answers[1][i].header_bits, vref[i].header_bits) << i;
    }
    const std::vector<RouteAnswer> lref = service.route_collect(label_ref);
    std::size_t crafted_seen = 0;
    for (std::size_t i = 0; i < kinds.size(); ++i) {
      const WireAnswer& a = answers[2][i];
      if (kinds[i] == Kind::kFresh) {
        EXPECT_EQ(a.status, static_cast<std::uint8_t>(lref[i].status)) << i;
        EXPECT_EQ(a.hops, lref[i].hops) << i;
        EXPECT_EQ(a.header_bits, lref[i].header_bits) << i;
      } else if (kinds[i] == Kind::kCrafted) {
        EXPECT_EQ(a.status, static_cast<std::uint8_t>(RouteStatus::kBadPort))
            << "crafted label " << crafted_seen;
        ++crafted_seen;
      }
    }
    EXPECT_EQ(crafted_seen, 4u);
  });
}

// ---------------------------------------------------------------------
// Stamped path views
// ---------------------------------------------------------------------

TEST(RouteApi, StalePathViewFailsLoudly) {
  NetFixture fx;
  const VertexId n = fx.g.num_vertices();
  RouteServiceOptions opt = fx.options(SchemeKind::kTZDirect);
  opt.record_paths = true;
  RouteService service(fx.g, opt);

  std::vector<RouteQuery> queries(1);
  queries[0] = {0, static_cast<VertexId>(n - 1), kUnknownDistance};
  std::vector<RouteAnswer> first =
      service.route_collect(std::span<const RouteQuery>{queries});
  ASSERT_EQ(first.size(), 1u);
  EXPECT_GT(first[0].path.size(), 0u);  // fresh view reads fine

  // A later batch reuses the arena; the old view must throw on every
  // accessor (always-on check — CI builds are NDEBUG).
  (void)service.route_collect(std::span<const RouteQuery>{queries});
  EXPECT_THROW((void)first[0].path.size(), std::logic_error);
  EXPECT_THROW((void)first[0].path.data(), std::logic_error);
  EXPECT_THROW((void)first[0].path[0], std::logic_error);
  EXPECT_THROW(
      (void)static_cast<std::span<const VertexId>>(first[0].path),
      std::logic_error);

  // route_one's dedicated arena invalidates only route_one views.
  const RouteAnswer a = service.route_one(queries[0]);
  EXPECT_GT(a.path.size(), 0u);
  const RouteAnswer b = service.route_one(queries[0]);
  EXPECT_THROW((void)a.path.size(), std::logic_error);
  EXPECT_GT(b.path.size(), 0u);
}

}  // namespace
}  // namespace croute
