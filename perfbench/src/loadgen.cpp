#include "loadgen.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <ctime>
#include <stdexcept>

#include "net/protocol.hpp"
#include "sim/packet.hpp"

namespace perfbench {

using namespace croute;

std::uint64_t now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

namespace {

constexpr auto kDelivered = static_cast<std::uint8_t>(RouteStatus::kDelivered);

std::size_t frame_bytes(std::size_t payload) {
  return payload + (payload < 128 ? 2 : 4);
}

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("loadgen: " + what + ": " + std::strerror(errno));
}

}  // namespace

Generator::Generator(std::uint16_t port, const WireTraffic& traffic)
    : traffic_(traffic), rxbuf_(256 * 1024) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) fail("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd_);
    fail("connect");
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);

  payload_.clear();
  net::encode_hello(payload_, net::kProtocolVersion);
  frame_.clear();
  net::encode_header(static_cast<std::uint8_t>(net::FrameType::kHello),
                     payload_.size(), frame_);
  frame_.insert(frame_.end(), payload_.begin(), payload_.end());
  send_bytes(frame_);
  const std::uint64_t give_up = now_ns() + 5'000'000'000ull;
  while (welcome_.version == 0) {
    if (now_ns() > give_up) throw std::runtime_error("loadgen: no WELCOME");
    wait_readable(1'000'000);
  }
}

Generator::~Generator() {
  if (fd_ >= 0) ::close(fd_);
}

void Generator::send_bytes(const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Back-pressure: keep reading answers so the server can keep
      // writing, and retry once the socket takes more bytes.
      pollfd p{fd_, POLLIN | POLLOUT, 0};
      ::poll(&p, 1, 10);
      drain();
      continue;
    }
    fail("send");
  }
}

void Generator::wait_readable(std::uint64_t timeout_ns) {
  pollfd p{fd_, POLLIN, 0};
  timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000ull),
              static_cast<long>(timeout_ns % 1'000'000'000ull)};
  if (::ppoll(&p, 1, &ts, nullptr) < 0 && errno != EINTR) fail("ppoll");
  drain();
}

void Generator::drain() {
  for (;;) {
    const ssize_t n = ::recv(fd_, rxbuf_.data(), rxbuf_.size(), MSG_DONTWAIT);
    if (n > 0) {
      const std::uint64_t arrival = now_ns();
      dec_.feed(std::span<const std::uint8_t>(rxbuf_.data(),
                                              static_cast<std::size_t>(n)));
      net::Frame f;
      while (dec_.next(f)) handle(f, arrival);
      if (dec_.error() != net::DecodeError::kNone) {
        throw std::runtime_error(std::string("loadgen: framing error: ") +
                                 net::decode_error_name(dec_.error()));
      }
      continue;
    }
    if (n == 0) throw std::runtime_error("loadgen: server closed the socket");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    fail("recv");
  }
}

void Generator::handle(const net::Frame& f, std::uint64_t arrival_ns) {
  std::uint64_t req_id = 0;
  switch (static_cast<net::FrameType>(f.type)) {
    case net::FrameType::kWelcome:
      if (!net::decode_welcome(f.payload, welcome_)) {
        throw std::runtime_error("loadgen: bad WELCOME");
      }
      return;
    case net::FrameType::kError: {
      std::uint32_t code = 0;
      std::string message;
      if (!net::decode_error(f.payload, code, req_id, message)) {
        throw std::runtime_error("loadgen: bad ERROR frame");
      }
      if (req_id < base_req_id_) return;  // already counted lost
      const std::uint64_t idx = req_id - base_req_id_;
      if (point_ == nullptr || idx >= slots_.size() || !slots_[idx].open) {
        throw std::runtime_error("loadgen: ERROR for unknown frame: " +
                                 message);
      }
      slots_[idx].open = false;
      --open_frames_;
      point_->error_frames += 1;
      point_->error_queries += traffic_.frame_queries;
      return;
    }
    case net::FrameType::kAnswer:
      break;
    default:
      throw std::runtime_error("loadgen: unexpected frame type " +
                               std::to_string(f.type));
  }
  answers_.clear();
  if (!net::decode_answer(f.payload, welcome_.version, req_id, answers_)) {
    throw std::runtime_error("loadgen: bad ANSWER frame");
  }
  if (req_id < base_req_id_) return;  // an earlier point's, counted lost
  const std::uint64_t idx = req_id - base_req_id_;
  if (point_ == nullptr || idx >= slots_.size() || !slots_[idx].open) {
    throw std::runtime_error("loadgen: ANSWER for unknown frame");
  }
  Slot& slot = slots_[idx];
  slot.open = false;
  --open_frames_;
  PointResult& res = *point_;
  res.answer_bytes += frame_bytes(f.payload.size());
  const std::uint32_t q = traffic_.frame_queries;
  if (answers_.size() != q) {
    res.wrong_queries += q;
  } else {
    for (std::uint32_t j = 0; j < q; ++j) {
      const net::WireAnswer& a = answers_[j];
      const Expected& e = traffic_.expected[slot.first_query + j];
      const bool ok = check_exact_ ? a.status == e.status &&
                                         a.hops == e.hops &&
                                         a.header_bits == e.header_bits
                                   : a.status == kDelivered;
      if (ok) {
        ++res.ok_queries;
      } else {
        ++res.wrong_queries;
      }
    }
  }
  res.sojourn_us.push_back(static_cast<double>(arrival_ns - slot.due_ns) /
                           1e3);
  if (arrival_ns <= on_time_ns_) on_time_queries_ += q;
  if (slot.trace_idx != ~0u) {
    (*traces_)[slot.trace_idx].answered_us =
        static_cast<double>(arrival_ns - epoch_ns_) / 1e3;
  }
}

PointResult Generator::run_point(double qps, double seconds, bool check_exact,
                                 double grace_s, std::uint32_t trace_every,
                                 std::vector<FrameTrace>* traces,
                                 std::uint64_t epoch_ns) {
  // Sleep deadlines to the nanosecond: the default 50 µs timer slack
  // would show up as slip.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  const std::uint32_t q = traffic_.frame_queries;
  const auto interval =
      static_cast<std::uint64_t>(std::llround(q * 1e9 / qps));
  const auto n_frames = static_cast<std::uint64_t>(seconds * 1e9 / interval);

  PointResult res;
  res.offered_qps = q * 1e9 / static_cast<double>(interval);
  res.slip_us.reserve(n_frames);
  res.sojourn_us.reserve(n_frames);
  point_ = &res;
  check_exact_ = check_exact;
  traces_ = traces;
  epoch_ns_ = epoch_ns;
  base_req_id_ = next_req_id_;
  slots_.assign(n_frames, Slot{});
  open_frames_ = 0;

  const net::FrameType type =
      traffic_.labeled ? net::FrameType::kQueryL : net::FrameType::kQueryV;
  const auto encode = [&](std::uint64_t i) {
    const std::uint32_t ring = static_cast<std::uint32_t>(
        (ring_pos_ + i) % traffic_.frames());
    payload_.clear();
    net::encode_query(payload_, base_req_id_ + i, traffic_.frame(ring),
                      traffic_.labeled);
    frame_.clear();
    net::encode_header(static_cast<std::uint8_t>(type), payload_.size(),
                       frame_);
    frame_.insert(frame_.end(), payload_.begin(), payload_.end());
    return ring * q;
  };

  std::uint32_t first_query = n_frames > 0 ? encode(0) : 0;
  const std::uint64_t start = now_ns() + 200'000;
  on_time_ns_ = start + n_frames * interval +
                static_cast<std::uint64_t>(grace_s * 1e9);
  on_time_queries_ = 0;
  for (std::uint64_t i = 0; i < n_frames; ++i) {
    const std::uint64_t due = start + i * interval;
    for (;;) {
      drain();
      const std::uint64_t now = now_ns();
      if (now >= due) break;
      // Sleep only while no answer is outstanding: an answer read after a
      // wake-up would carry the generator's own wake-up latency.
      if (open_frames_ == 0 && due - now > kSpinNs) {
        wait_readable(due - now - kSpinNs);
        continue;
      }
      while (now_ns() < due) {
        drain();
        if (open_frames_ == 0 && due - now_ns() > kSpinNs) break;
      }
      if (now_ns() >= due) break;
    }
    Slot& slot = slots_[i];
    slot.due_ns = due;
    slot.first_query = first_query;
    slot.open = true;
    ++open_frames_;
    const std::uint64_t sent = now_ns();
    if (traces != nullptr && trace_every > 0 && i % trace_every == 0) {
      slot.trace_idx = static_cast<std::uint32_t>(traces->size());
      FrameTrace t;
      t.seq = base_req_id_ + i;
      t.scheduled_us = static_cast<double>(due - epoch_ns) / 1e3;
      t.sent_us = static_cast<double>(sent - epoch_ns) / 1e3;
      traces->push_back(t);
    }
    send_bytes(frame_);
    if (slot.trace_idx != ~0u) {
      (*traces)[slot.trace_idx].send_done_us =
          static_cast<double>(now_ns() - epoch_ns) / 1e3;
    }
    res.slip_us.push_back(static_cast<double>(sent - due) / 1e3);
    res.query_bytes += frame_.size();
    res.sent_queries += q;
    if (i + 1 < n_frames) first_query = encode(i + 1);
  }
  const std::uint64_t end = start + n_frames * interval;
  const std::uint64_t drain_until = now_ns() + 2'000'000'000ull;
  while (open_frames_ > 0 && now_ns() < drain_until) {
    wait_readable(1'000'000);
  }
  res.lost_queries = open_frames_ * q;
  ring_pos_ = static_cast<std::uint32_t>((ring_pos_ + n_frames) %
                                         traffic_.frames());
  next_req_id_ = base_req_id_ + n_frames;
  res.seconds = static_cast<double>(end - start) / 1e9;
  res.achieved_qps =
      res.seconds > 0 ? static_cast<double>(on_time_queries_) / res.seconds
                      : 0;
  point_ = nullptr;
  traces_ = nullptr;
  slots_.clear();
  return res;
}

}  // namespace perfbench
