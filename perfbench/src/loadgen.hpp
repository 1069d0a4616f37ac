/// \file loadgen.hpp
/// \brief Open-loop wire load generator: one connection, one thread.
///
/// Frame i of a point is due at start + i * interval. The generator waits
/// for that deadline by sleeping in ppoll() and spinning the last kSpinNs,
/// then writes the frame. While any answer is outstanding it spins with
/// non-blocking reads instead of sleeping, so the time an answer is read
/// does not include the generator's own wake-up. Sojourn is charged from the
/// deadline, never from the actual send, so a late generator or a
/// back-pressured socket shows up as latency; how late each send started
/// is reported separately as slip.
///
/// Every ANSWER is checked against the answers the in-process service
/// gave for the same queries (status, hops, header bits), or, while the
/// scheme generation is changing under churn, only for delivery.
///
/// The generator speaks the wire protocol through the net codecs itself
/// rather than through net::NetClient: it needs nanosecond deadlines and
/// one thread that both sends and reads without blocking, and NetClient
/// keeps its socket to itself and waits in millisecond polls. Everything
/// that is not load (label fetches, probes) goes through NetClient.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/frame.hpp"
#include "net/wire.hpp"

namespace perfbench {

/// What one query's answer must look like.
struct Expected {
  std::uint8_t status = 0;
  std::uint32_t hops = 0;
  std::uint64_t header_bits = 0;
};

/// A workload's query ring: cycled frame by frame across points.
struct WireTraffic {
  bool labeled = false;
  std::uint32_t frame_queries = 64;
  std::vector<croute::net::WireQuery> queries;  ///< label spans alias labels
  std::vector<std::vector<std::uint8_t>> labels;  ///< by destination vertex
  std::vector<Expected> expected;                 ///< per query
  std::uint32_t frames() const {
    return static_cast<std::uint32_t>(queries.size() / frame_queries);
  }
  std::span<const croute::net::WireQuery> frame(std::uint32_t f) const {
    return {queries.data() + std::size_t{f} * frame_queries, frame_queries};
  }
};

/// One measured point (a fixed offered rate for a fixed time).
struct PointResult {
  double offered_qps = 0;
  /// Queries answered by the end of the sending window plus the grace
  /// run_point was given, per second of the window: a backlog that keeps
  /// growing leaves answers past that cut-off; a stall the server
  /// recovers from within the grace does not.
  double achieved_qps = 0;
  double seconds = 0;  ///< the sending window
  std::uint64_t sent_queries = 0;
  std::uint64_t ok_queries = 0;
  std::uint64_t wrong_queries = 0;   ///< answered, but not as expected
  std::uint64_t error_queries = 0;   ///< ERROR frames (overload, malformed)
  std::uint64_t lost_queries = 0;    ///< never answered within the drain
  std::uint64_t error_frames = 0;
  std::vector<double> sojourn_us;    ///< per answered frame
  std::vector<double> slip_us;       ///< per sent frame
  std::uint64_t query_bytes = 0;     ///< wire bytes of the QUERY frames
  std::uint64_t answer_bytes = 0;    ///< wire bytes of the ANSWER frames

  std::uint64_t failed_queries() const {
    return wrong_queries + error_queries + lost_queries;
  }
};

/// Spans the generator records for a sample of frames in traced runs.
struct FrameTrace {
  std::uint64_t seq = 0;
  double scheduled_us = 0;  ///< on the recorder's clock
  double sent_us = 0;
  double send_done_us = 0;
  double answered_us = 0;
};

class Generator {
 public:
  static constexpr std::uint64_t kSpinNs = 60'000;

  /// Connects to 127.0.0.1:\p port and completes the HELLO/WELCOME
  /// handshake. Throws std::runtime_error on failure.
  Generator(std::uint16_t port, const WireTraffic& traffic);
  ~Generator();
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Offers \p qps for \p seconds and drains. \p check_exact compares each
  /// answer with WireTraffic::expected; otherwise only delivery counts.
  /// Answers later than \p grace_s after the window count as answered but
  /// not toward achieved_qps. When \p trace_every > 0, every
  /// trace_every-th frame's timestamps are appended to \p traces (clock:
  /// \p epoch_ns, in µs).
  PointResult run_point(double qps, double seconds, bool check_exact,
                        double grace_s, std::uint32_t trace_every = 0,
                        std::vector<FrameTrace>* traces = nullptr,
                        std::uint64_t epoch_ns = 0);

 private:
  struct Slot {
    std::uint64_t due_ns = 0;
    std::uint32_t first_query = 0;  ///< ring offset of the frame's queries
    std::uint32_t trace_idx = ~0u;  ///< into the traces vector, or none
    bool open = false;
  };

  void send_bytes(const std::vector<std::uint8_t>& bytes);
  /// Reads whatever is available without blocking; handles every frame.
  void drain();
  /// Blocks up to \p timeout_ns for readable data, then drains.
  void wait_readable(std::uint64_t timeout_ns);
  void handle(const croute::net::Frame& f, std::uint64_t arrival_ns);

  int fd_ = -1;
  const WireTraffic& traffic_;
  croute::net::Welcome welcome_;
  croute::net::FrameDecoder dec_;
  std::vector<std::uint8_t> rxbuf_;
  std::vector<std::uint8_t> payload_;
  std::vector<std::uint8_t> frame_;
  std::vector<croute::net::WireAnswer> answers_;
  std::uint64_t next_req_id_ = 1;
  std::uint32_t ring_pos_ = 0;

  // Point state (valid during run_point).
  std::uint64_t base_req_id_ = 0;
  std::vector<Slot> slots_;
  std::uint64_t open_frames_ = 0;
  bool check_exact_ = true;
  PointResult* point_ = nullptr;
  std::vector<FrameTrace>* traces_ = nullptr;
  std::uint64_t epoch_ns_ = 0;
  std::uint64_t on_time_ns_ = 0;  ///< answers after this are late
  std::uint64_t on_time_queries_ = 0;
};

std::uint64_t now_ns();

}  // namespace perfbench
