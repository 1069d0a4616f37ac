#include "net/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "core/flat_scheme.hpp"
#include "net/frame.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/bit_io.hpp"

namespace croute::net {

namespace {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::string NetServerOptions::validate() const {
  if (max_connections < 1) return "net: max_connections must be >= 1";
  if (coalesce < 1) return "net: coalesce must be >= 1";
  if (max_pending < coalesce) {
    return "net: max_pending (" + std::to_string(max_pending) +
           ") must be >= coalesce (" + std::to_string(coalesce) +
           ") or the pending queue can never fill a batch";
  }
  if (max_output_buffer < kMaxPayload + kMaxHeader) {
    return "net: max_output_buffer must hold at least one max frame";
  }
  return "";
}

/// One accepted socket. Owned by Impl; never moves (pointers to it live
/// in epoll user data and in pending-frame bookkeeping).
struct NetServer::Conn {
  int fd = -1;
  FrameDecoder dec;
  std::vector<std::uint8_t> out;  ///< unsent bytes
  std::size_t out_off = 0;
  std::uint32_t version = kProtocolVersion;  ///< until HELLO negotiates
  bool want_write = false;  ///< EPOLLOUT currently armed
  bool dead = false;        ///< close deferred to end of pass
};

struct NetServer::Impl {
  int listen_fd = -1;
  int epoll_fd = -1;
  int wake_fd = -1;
  std::atomic<bool> stop{false};
  std::unordered_map<int, std::unique_ptr<Conn>> conns;

  // Pending coalesced batch. Labels inside `requests` alias connection
  // decoder buffers; those stay untouched until the next epoll pass, and
  // the batch is always served before that.
  std::vector<RouteRequest> requests;
  struct PendingFrame {
    Conn* conn;
    std::uint64_t req_id;
    std::uint32_t first;
    std::uint32_t count;
    std::uint64_t enq_ns;
  };
  std::vector<PendingFrame> frames;
  std::vector<Conn*> doomed;  ///< dead conns to reap after the batch

  // QUERY decode scratch, cleared per frame. Request labels alias the
  // frame's payload (the decoder's buffer), never this vector, so it can
  // be reused while the batch is pending.
  std::vector<WireQuery> queries;

  // Label pre-validation scratch (reused per frame).
  std::vector<FlatScheme::LabelEntryView> scratch_entries;
  std::vector<Port> scratch_ports;

  // Encode scratch.
  std::vector<std::uint8_t> payload;
  std::vector<WireAnswer> wire_answers;

  // --- observability (all optional; null when service metrics are off) ---
  obs::Counter* ctr_accepted = nullptr;
  obs::Counter* ctr_frames = nullptr;
  obs::Counter* ctr_queries = nullptr;
  obs::Counter* ctr_rejected = nullptr;   ///< malformed/unsupported frames
  obs::Counter* ctr_overloaded = nullptr; ///< admission-control rejections
  obs::Counter* ctr_rx_bytes = nullptr;
  obs::Counter* ctr_tx_bytes = nullptr;
  obs::Gauge* gauge_open = nullptr;
  obs::LogHistogram* hist_queue_wait = nullptr;  ///< the service's own
  unsigned wait_shard = 0;  ///< driver shard of croute_queue_wait_us
  obs::TraceRecorder* trace = nullptr;
};

NetServer::NetServer(RouteService& service, NetServerOptions options)
    : impl_(new Impl), service_(service), options_(std::move(options)) {
  const std::string invalid = options_.validate();
  CROUTE_REQUIRE(invalid.empty(), invalid);

  impl_->listen_fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (impl_->listen_fd < 0) {
    delete impl_;
    throw std::runtime_error("net: socket() failed");
  }
  const int one = 1;
  ::setsockopt(impl_->listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(impl_->listen_fd);
    delete impl_;
    throw std::invalid_argument("net: bad listen host: " + options_.host);
  }
  if (::bind(impl_->listen_fd, reinterpret_cast<sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(impl_->listen_fd, 128) != 0) {
    const int err = errno;
    ::close(impl_->listen_fd);
    delete impl_;
    throw std::runtime_error(std::string("net: bind/listen failed: ") +
                             std::strerror(err));
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof bound;
  ::getsockname(impl_->listen_fd, reinterpret_cast<sockaddr*>(&bound), &blen);
  port_ = ntohs(bound.sin_port);

  impl_->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  impl_->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (impl_->epoll_fd < 0 || impl_->wake_fd < 0) {
    if (impl_->epoll_fd >= 0) ::close(impl_->epoll_fd);
    if (impl_->wake_fd >= 0) ::close(impl_->wake_fd);
    ::close(impl_->listen_fd);
    delete impl_;
    throw std::runtime_error("net: epoll/eventfd setup failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = 0;  // 0 = listener, 1 = wake, else Conn*
  ::epoll_ctl(impl_->epoll_fd, EPOLL_CTL_ADD, impl_->listen_fd, &ev);
  ev.data.u64 = 1;
  ::epoll_ctl(impl_->epoll_fd, EPOLL_CTL_ADD, impl_->wake_fd, &ev);

  if (obs::MetricRegistry* reg = service_.mutable_metrics_registry()) {
    impl_->ctr_accepted = &reg->counter("croute_net_connections_total",
                                        "Sockets accepted by the front-end");
    impl_->ctr_frames =
        &reg->counter("croute_net_frames_total", "Frames decoded");
    impl_->ctr_queries = &reg->counter("croute_net_queries_total",
                                       "Queries received over the wire");
    impl_->ctr_rejected = &reg->counter(
        "croute_net_rejected_frames_total",
        "Frames answered with ERROR (malformed or unsupported)");
    impl_->ctr_overloaded = &reg->counter(
        "croute_net_overload_rejections_total",
        "QUERY frames rejected by admission control (queue full)");
    impl_->ctr_rx_bytes =
        &reg->counter("croute_net_bytes_rx_total", "Bytes read from sockets");
    impl_->ctr_tx_bytes =
        &reg->counter("croute_net_bytes_tx_total", "Bytes written to sockets");
    impl_->gauge_open =
        &reg->gauge("croute_net_open_connections", "Currently open sockets");
    impl_->hist_queue_wait = reg->find_histogram("croute_queue_wait_us");
    impl_->wait_shard = service_.threads();  // the driver shard
  }
  impl_->trace = service_.trace_recorder();
}

NetServer::~NetServer() {
  for (auto& [fd, conn] : impl_->conns) ::close(fd);
  ::close(impl_->listen_fd);
  ::close(impl_->epoll_fd);
  ::close(impl_->wake_fd);
  delete impl_;
}

void NetServer::stop() noexcept {
  impl_->stop.store(true, std::memory_order_release);
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n =
      ::write(impl_->wake_fd, &one, sizeof one);
}

namespace {

/// Frame-encodes (type, payload) onto a connection's output buffer.
void push_frame(NetServer::Conn& c, std::uint8_t type,
                std::span<const std::uint8_t> payload);

}  // namespace

// The loop body lives in free functions taking (server internals) by
// reference instead of private methods: everything socket-shaped stays
// in this TU and the header keeps zero system includes.
namespace {

struct LoopCtx {
  NetServer::Impl& im;
  RouteService& service;
  const NetServerOptions& opt;
  std::uint64_t* accepted;
  std::uint64_t* frames_served;
  std::uint64_t* queries_served;
};

void push_frame(NetServer::Conn& c, std::uint8_t type,
                std::span<const std::uint8_t> payload) {
  encode_header(type, payload.size(), c.out);
  c.out.insert(c.out.end(), payload.begin(), payload.end());
}

void push_error(LoopCtx& ctx, NetServer::Conn& c, std::uint32_t code,
                std::uint64_t req_id, std::string_view message) {
  ctx.im.payload.clear();
  encode_error(ctx.im.payload, code, req_id, message);
  push_frame(c, static_cast<std::uint8_t>(FrameType::kError),
             ctx.im.payload);
}

void mark_dead(LoopCtx& ctx, NetServer::Conn& c) {
  if (c.dead) return;
  c.dead = true;
  ctx.im.doomed.push_back(&c);
}

/// write() as much of c.out as the socket takes; (dis)arms EPOLLOUT.
void flush_writes(LoopCtx& ctx, NetServer::Conn& c) {
  if (c.dead) return;
  while (c.out_off < c.out.size()) {
    const ssize_t n =
        ::send(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off,
               MSG_NOSIGNAL);
    if (n > 0) {
      c.out_off += static_cast<std::size_t>(n);
      if (ctx.im.ctr_tx_bytes != nullptr) {
        ctx.im.ctr_tx_bytes->inc(static_cast<std::uint64_t>(n));
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    mark_dead(ctx, c);  // peer went away mid-write
    return;
  }
  if (c.out_off == c.out.size()) {
    c.out.clear();
    c.out_off = 0;
  } else if (c.out.size() - c.out_off > ctx.opt.max_output_buffer) {
    mark_dead(ctx, c);  // slow reader: bounded memory beats fairness
    return;
  }
  const bool want = c.out_off < c.out.size();
  if (want != c.want_write) {
    c.want_write = want;
    epoll_event ev{};
    ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
    ev.data.u64 = reinterpret_cast<std::uint64_t>(&c);
    ::epoll_ctl(ctx.im.epoll_fd, EPOLL_CTL_MOD, c.fd, &ev);
  }
}

/// True when this service's scheme can serve label-addressed queries.
bool labels_supported(const RouteService& service) {
  return service.options().scheme == SchemeKind::kTZDirect;
}

/// Validates one wire label against the serving codec without touching
/// the batch: structurally bad bytes are the CLIENT's fault and must
/// cost only their own frame, never the coalesced batch (route() throws
/// batch-wide). Returns false on any structural problem.
bool prevalidate_label(LoopCtx& ctx, const SchemePackage& pkg,
                       const WireQuery& q) {
  ctx.im.scratch_entries.clear();
  ctx.im.scratch_ports.clear();
  try {
    const BitWriter bw = from_bytes(q.label, q.label_bits);
    BitReader r(bw);
    const VertexId t = decode_wire_label(
        pkg.tz->label_codec(), pkg.graph->num_vertices(), r,
        ctx.im.scratch_entries, ctx.im.scratch_ports);
    return t < pkg.graph->num_vertices() && r.position() == q.label_bits;
  } catch (const std::invalid_argument&) {
    return false;
  }
}

/// Serves the coalesced batch and writes ANSWER frames back.
void serve_pending(LoopCtx& ctx) {
  if (ctx.im.requests.empty()) return;
  obs::TraceRecorder::Span span(ctx.im.trace, "serve_batch", "net");
  const std::uint64_t dispatch_ns = now_ns();

  struct NetSink final : RouteSink {
    LoopCtx& ctx;
    std::uint64_t dispatch_ns;
    /// Frames already answered (ANSWER or ERROR) — the catch below bills
    /// only the rest, so no req_id ever gets both.
    std::size_t done = 0;
    explicit NetSink(LoopCtx& c, std::uint64_t d) : ctx(c), dispatch_ns(d) {}
    void on_answers(std::uint32_t first,
                    std::span<const RouteAnswer> answers) override {
      CROUTE_ASSERT(first == 0, "chunked delivery is not wired up");
      for (; done < ctx.im.frames.size(); ++done) {
        const auto& pf = ctx.im.frames[done];
        const std::uint64_t socket_wait_ns = dispatch_ns - pf.enq_ns;
        if (ctx.im.hist_queue_wait != nullptr) {
          ctx.im.hist_queue_wait->record_n(
              ctx.im.wait_shard,
              static_cast<double>(socket_wait_ns) / 1000.0, pf.count);
        }
        if (pf.conn->dead) continue;
        ctx.im.wire_answers.clear();
        for (std::uint32_t i = 0; i < pf.count; ++i) {
          const RouteAnswer& a = answers[pf.first + i];
          WireAnswer w;
          w.status = static_cast<std::uint8_t>(a.status);
          w.hops = a.hops;
          w.header_bits = a.header_bits;
          w.latency_ns = static_cast<std::uint64_t>(a.latency_us * 1000.0);
          // The wire reports the full server-side queueing a client
          // cannot see: socket coalescing wait plus pool queue wait.
          w.queue_wait_ns =
              static_cast<std::uint64_t>(a.queue_wait_us * 1000.0) +
              socket_wait_ns;
          ctx.im.wire_answers.push_back(w);
        }
        ctx.im.payload.clear();
        encode_answer(ctx.im.payload, pf.req_id, pf.conn->version,
                      ctx.im.wire_answers);
        if (ctx.im.payload.size() > kMaxPayload) {
          // A request that fitted one frame can still answer past it
          // (answers carry more varint bytes than queries). Refuse this
          // frame alone; the rest of the batch is answered as usual.
          if (ctx.im.ctr_rejected != nullptr) ctx.im.ctr_rejected->inc();
          push_error(ctx, *pf.conn, kErrMalformed, pf.req_id,
                     "ANSWER for " + std::to_string(pf.count) +
                         " queries would be " +
                         std::to_string(ctx.im.payload.size()) +
                         " bytes, over the 65535-byte kMaxPayload; send "
                         "fewer queries per frame");
          continue;
        }
        push_frame(*pf.conn, static_cast<std::uint8_t>(FrameType::kAnswer),
                   ctx.im.payload);
        *ctx.frames_served += 1;
        *ctx.queries_served += pf.count;
      }
    }
  } sink(ctx, dispatch_ns);

  try {
    ctx.service.route(ctx.im.requests, sink);
  } catch (const std::exception& e) {
    // Pre-validation should make this unreachable; if a batch still
    // throws, bill every frame the sink has not answered rather than
    // killing the loop.
    for (std::size_t i = sink.done; i < ctx.im.frames.size(); ++i) {
      const auto& pf = ctx.im.frames[i];
      if (!pf.conn->dead) {
        push_error(ctx, *pf.conn, kErrMalformed, pf.req_id, e.what());
      }
    }
  }
  ctx.im.requests.clear();
  ctx.im.frames.clear();
  for (const auto& [fd, conn] : ctx.im.conns) {
    if (!conn->out.empty()) flush_writes(ctx, *conn);
  }
}

void handle_query(LoopCtx& ctx, NetServer::Conn& c, const Frame& f,
                  bool labeled) {
  std::uint64_t req_id = 0;
  std::vector<WireQuery>& queries = ctx.im.queries;
  queries.clear();
  if (!decode_query(f.payload, labeled, req_id, queries)) {
    if (ctx.im.ctr_rejected != nullptr) ctx.im.ctr_rejected->inc();
    push_error(ctx, c, kErrMalformed, req_id, "QUERY payload did not parse");
    return;
  }
  if (ctx.im.ctr_queries != nullptr) {
    ctx.im.ctr_queries->inc(queries.size());
  }
  if (ctx.im.requests.size() + queries.size() > ctx.opt.max_pending) {
    if (ctx.im.ctr_overloaded != nullptr) ctx.im.ctr_overloaded->inc();
    push_error(ctx, c, kErrOverloaded, req_id,
               "pending-query queue full; back off");
    return;
  }
  const SchemePackagePtr pkg = ctx.service.package();
  const VertexId n = pkg->graph->num_vertices();
  if (labeled && !labels_supported(ctx.service)) {
    if (ctx.im.ctr_rejected != nullptr) ctx.im.ctr_rejected->inc();
    push_error(ctx, c, kErrUnsupported, req_id,
               "label-addressed queries need the tz scheme");
    return;
  }
  for (const WireQuery& q : queries) {
    const bool ok =
        q.s < n && (labeled ? prevalidate_label(ctx, *pkg, q) : q.t < n);
    if (!ok) {
      if (ctx.im.ctr_rejected != nullptr) ctx.im.ctr_rejected->inc();
      push_error(ctx, c, kErrMalformed, req_id,
                 labeled ? "query rejected: bad label or source id"
                         : "query rejected: vertex id out of range");
      return;
    }
  }
  const std::uint32_t first =
      static_cast<std::uint32_t>(ctx.im.requests.size());
  for (const WireQuery& q : queries) {
    RouteRequest r;
    r.s = q.s;
    if (labeled) {
      r.label = q.label;
      r.label_bits = q.label_bits;
    } else {
      r.t = q.t;
    }
    ctx.im.requests.push_back(r);
  }
  ctx.im.frames.push_back({&c, req_id, first,
                           static_cast<std::uint32_t>(queries.size()),
                           now_ns()});
  if (ctx.im.requests.size() >= ctx.opt.coalesce) serve_pending(ctx);
}

void handle_label_req(LoopCtx& ctx, NetServer::Conn& c, const Frame& f) {
  std::vector<VertexId> vertices;
  if (!decode_label_req(f.payload, vertices)) {
    if (ctx.im.ctr_rejected != nullptr) ctx.im.ctr_rejected->inc();
    push_error(ctx, c, kErrMalformed, 0, "LABEL_REQ payload did not parse");
    return;
  }
  if (!labels_supported(ctx.service)) {
    if (ctx.im.ctr_rejected != nullptr) ctx.im.ctr_rejected->inc();
    push_error(ctx, c, kErrUnsupported, 0,
               "labels need the tz scheme");
    return;
  }
  const SchemePackagePtr pkg = ctx.service.package();
  const VertexId n = pkg->graph->num_vertices();
  for (const VertexId v : vertices) {
    if (v >= n) {
      if (ctx.im.ctr_rejected != nullptr) ctx.im.ctr_rejected->inc();
      push_error(ctx, c, kErrMalformed, 0, "LABEL_REQ vertex out of range");
      return;
    }
  }
  // Encode each label through the codec; storage must outlive the spans.
  const LabelCodec& codec = pkg->tz->label_codec();
  std::vector<std::vector<std::uint8_t>> storage;
  std::vector<WireLabel> labels;
  storage.reserve(vertices.size());
  labels.reserve(vertices.size());
  for (const VertexId v : vertices) {
    BitWriter w;
    codec.encode(pkg->tz->label(v), w);
    storage.push_back(to_bytes(w));
    WireLabel l;
    l.label_bits = static_cast<std::uint32_t>(w.bit_size());
    l.bytes = storage.back();
    labels.push_back(l);
  }
  ctx.im.payload.clear();
  encode_label_resp(ctx.im.payload, labels);
  if (ctx.im.payload.size() > kMaxPayload) {
    // One frame cannot carry the answer. Refuse this request alone; the
    // client splits it (NetClient::fetch_labels does) and the connection
    // keeps serving.
    if (ctx.im.ctr_rejected != nullptr) ctx.im.ctr_rejected->inc();
    push_error(ctx, c, kErrMalformed, 0,
               "LABEL_RESP for " + std::to_string(vertices.size()) +
                   " vertices would be " +
                   std::to_string(ctx.im.payload.size()) +
                   " bytes, over the 65535-byte kMaxPayload; request fewer "
                   "vertices");
    return;
  }
  push_frame(c, static_cast<std::uint8_t>(FrameType::kLabelResp),
             ctx.im.payload);
}

void handle_frame(LoopCtx& ctx, NetServer::Conn& c, const Frame& f) {
  if (ctx.im.ctr_frames != nullptr) ctx.im.ctr_frames->inc();
  switch (static_cast<FrameType>(f.type)) {
    case FrameType::kHello: {
      std::uint32_t theirs = 0;
      if (!decode_hello(f.payload, theirs) || theirs < kLegacyVersion) {
        push_error(ctx, c, kErrUnsupported, 0, "bad HELLO");
        flush_writes(ctx, c);  // best-effort: say why before dropping
        mark_dead(ctx, c);
        return;
      }
      c.version = std::min(theirs, kProtocolVersion);
      Welcome w;
      w.version = c.version;
      w.n = ctx.service.graph().num_vertices();
      w.scheme = static_cast<std::uint8_t>(ctx.service.options().scheme);
      w.id_bits = labels_supported(ctx.service)
                      ? ctx.service.package()->tz->label_codec().id_bits()
                      : 0;
      ctx.im.payload.clear();
      encode_welcome(ctx.im.payload, w);
      push_frame(c, static_cast<std::uint8_t>(FrameType::kWelcome),
                 ctx.im.payload);
      return;
    }
    case FrameType::kQueryV: handle_query(ctx, c, f, false); return;
    case FrameType::kQueryL: handle_query(ctx, c, f, true); return;
    case FrameType::kLabelReq: handle_label_req(ctx, c, f); return;
    case FrameType::kPing:
      push_frame(c, static_cast<std::uint8_t>(FrameType::kPong), f.payload);
      return;
    default:
      // Server-to-client types arriving at the server are a protocol
      // violation, but a survivable one.
      if (ctx.im.ctr_rejected != nullptr) ctx.im.ctr_rejected->inc();
      push_error(ctx, c, kErrUnsupported, 0,
                 "frame type is not client-to-server");
      return;
  }
}

void handle_readable(LoopCtx& ctx, NetServer::Conn& c) {
  obs::TraceRecorder::Span span(ctx.im.trace, "decode", "net");
  std::uint8_t buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
    if (n > 0) {
      if (ctx.im.ctr_rx_bytes != nullptr) {
        ctx.im.ctr_rx_bytes->inc(static_cast<std::uint64_t>(n));
      }
      c.dec.feed(std::span<const std::uint8_t>(buf,
                                               static_cast<std::size_t>(n)));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    mark_dead(ctx, c);  // orderly EOF or hard error
    break;
  }
  Frame f;
  while (!c.dead && c.dec.next(f)) handle_frame(ctx, c, f);
  if (c.dec.error() != DecodeError::kNone && !c.dead) {
    // Framing errors are unrecoverable on a byte stream: say why, drop.
    // The flush must happen BEFORE mark_dead (flush_writes skips dead
    // connections) or the peer sees a silent close instead of the why.
    if (ctx.im.ctr_rejected != nullptr) ctx.im.ctr_rejected->inc();
    push_error(ctx, c, kErrMalformed, 0,
               std::string("framing error: ") +
                   decode_error_name(c.dec.error()));
    flush_writes(ctx, c);
    mark_dead(ctx, c);
  }
  if (!c.out.empty()) flush_writes(ctx, c);
}

void handle_accept(LoopCtx& ctx) {
  obs::TraceRecorder::Span span(ctx.im.trace, "accept", "net");
  for (;;) {
    const int fd = ::accept4(ctx.im.listen_fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) break;
    if (ctx.im.conns.size() >= ctx.opt.max_connections) {
      ::close(fd);  // admission control tier 1: connection cap
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    auto conn = std::make_unique<NetServer::Conn>();
    conn->fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = reinterpret_cast<std::uint64_t>(conn.get());
    ::epoll_ctl(ctx.im.epoll_fd, EPOLL_CTL_ADD, fd, &ev);
    ctx.im.conns.emplace(fd, std::move(conn));
    *ctx.accepted += 1;
    if (ctx.im.ctr_accepted != nullptr) ctx.im.ctr_accepted->inc();
    if (ctx.im.gauge_open != nullptr) {
      ctx.im.gauge_open->set(static_cast<double>(ctx.im.conns.size()));
    }
  }
}

/// Deferred close: batch bookkeeping holds Conn*, so sockets die only
/// after the pass's batch has been served.
void reap_doomed(LoopCtx& ctx) {
  for (NetServer::Conn* c : ctx.im.doomed) {
    ::epoll_ctl(ctx.im.epoll_fd, EPOLL_CTL_DEL, c->fd, nullptr);
    ::close(c->fd);
    ctx.im.conns.erase(c->fd);
  }
  if (!ctx.im.doomed.empty() && ctx.im.gauge_open != nullptr) {
    ctx.im.gauge_open->set(static_cast<double>(ctx.im.conns.size()));
  }
  ctx.im.doomed.clear();
}

}  // namespace

void NetServer::run() {
  LoopCtx ctx{*impl_, service_, options_, &accepted_, &frames_served_,
              &queries_served_};
  epoll_event events[64];
  while (!impl_->stop.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(impl_->epoll_fd, events, 64, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      if (tag == 0) {
        handle_accept(ctx);
        continue;
      }
      if (tag == 1) {
        std::uint64_t drain = 0;
        [[maybe_unused]] const ssize_t r =
            ::read(impl_->wake_fd, &drain, sizeof drain);
        continue;
      }
      auto* c = reinterpret_cast<Conn*>(tag);
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        mark_dead(ctx, *c);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) flush_writes(ctx, *c);
      if ((events[i].events & EPOLLIN) != 0) handle_readable(ctx, *c);
    }
    // End-of-pass barrier: whatever the readable sockets contributed is
    // one batch — the open-loop latency win lives exactly here.
    serve_pending(ctx);
    reap_doomed(ctx);
  }
  serve_pending(ctx);
  reap_doomed(ctx);
}

}  // namespace croute::net
