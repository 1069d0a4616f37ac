/// \file perfbench.cpp
/// \brief One benchmark run of the served stack: socket → NetServer →
/// RouteService → FlatBatchEngine, plus rebuilt, persisted and recovered
/// generations. See perfbench/README.md for the workloads and metrics.
///
/// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
///                  [--out-dir DIR]
///
/// Every workload builds the same graph (ER, n = 10 000, k = 3: the
/// committed BENCH config) and runs the same phases with its own traffic
/// (the output contract asks every run for every metric):
///   1. setup (graph, preprocess, compile, initial persist, first answer),
///      once here and twice more at the end;
///   2. scheme checks on a fixed sample (stretch ≤ 4k−5, size bounds);
///   3. wire: open-loop load at fixed rates (.low, .high) over loopback TCP
///      and scans of a fixed capacity ladder (two here, a third after
///      step 4);
///   4. generations: graph deltas fed through SchemeManager (with .low
///      traffic alongside on churn-persist), some followed by a restart
///      that recovers from the artifact store.
/// --trace 1 adds spans around the public calls of each layer (recorded
/// in an obs::TraceRecorder, exported as a Chrome trace), adopts the
/// spans SchemeManager and ArtifactStore record on the same production
/// path into that trace, and replays the workload's frames through each
/// layer alone. The last stdout line is the result object; the exit code
/// is 0 only when every check passed.

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/statfs.h>
#include <sys/sysmacros.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bench_common.hpp"
#include "graph/delta.hpp"
#include "loadgen.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "service/hot_swap.hpp"
#include "service/route_service.hpp"
#include "service/workload.hpp"
#include "sim/experiment.hpp"
#include "util/random.hpp"

namespace {

using namespace croute;
using perfbench::Expected;
using perfbench::FrameTrace;
using perfbench::Generator;
using perfbench::now_ns;
using perfbench::PointResult;
using perfbench::WireTraffic;

// --- the fixed configuration (BENCH_s1.json / BENCH_net.json) -------------
constexpr VertexId kN = 10000;  ///< before taking the largest component
constexpr std::uint32_t kK = 3;
constexpr std::uint64_t kGraphSeed = 7;   ///< make_workload(er, n, Rng(7))
constexpr std::uint64_t kSchemeSeed = 8;  ///< the CLI's preprocessing seed
constexpr std::uint32_t kFrameQueries = 64;
constexpr std::uint32_t kRingQueries = 1u << 16;  ///< cycled query ring
constexpr std::uint32_t kProbeQueries = 256;      ///< byte-identity probes
constexpr std::uint64_t kStretchSeed = 0x57e7c4;  ///< fixed stretch sample
constexpr std::uint32_t kStretchQueries = 20000;
constexpr std::uint32_t kStretchSources = 64;

// --- offered load: absolute rates, never fractions of a measurement -------
constexpr double kLowQps = 150e3;
constexpr double kHighQps = 450e3;
/// Capacity ladder above .high; a rung passes when achieved ≥ 99 % of
/// offered (answers later than kP99LimitUs after the window do not
/// count), p99 sojourn ≤ kP99LimitUs and nothing failed.
constexpr double kLadderQps[] = {
    525e3,  600e3,  675e3,  750e3,  825e3,  900e3,  975e3,
    1050e3, 1125e3, 1200e3, 1275e3, 1350e3, 1425e3, 1500e3,
    1575e3, 1650e3, 1725e3, 1800e3, 1875e3, 1950e3, 2025e3};
constexpr double kP99LimitUs = 20000;
constexpr double kMinAchievedShare = 0.99;
/// Below this share of offered a failed try is a backlog, not a stall,
/// and is not taken again.
constexpr double kBacklogShare = 0.95;
/// Generator self-check: median send slip must stay under this share of
/// the frame interval, or the run measured the generator.
constexpr double kMaxSlipShare = 0.10;
/// Traced churn: build + flip + persist must cover delta_to_durable_s to
/// within this share.
constexpr double kPartsTolerance = 0.02;

/// The bench_s1 churn step: ~8 changed edges per delta on ER n = 10 000.
DeltaOptions churn_delta() {
  DeltaOptions d;
  d.reweight_fraction = 0.00025;
  d.remove_fraction = 0.000125;
  d.add_fraction = 0.000125;
  return d;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench-out";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
      have_seconds = true;
    } else if (key == "--trace") {
      a.trace = val == "1";
      have_trace = val == "0" || val == "1";
    } else if (key == "--out-dir") {
      a.out_dir = val;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (argc % 2 != 1 || a.workload.empty() || !have_seed || !have_seconds ||
      !have_trace || a.seconds <= 0) {
    throw std::invalid_argument(
        "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
        "[--out-dir DIR]");
  }
  return a;
}

/// How one workload spends its run. Every workload runs the same phases;
/// they differ in traffic and in what runs beside the rebuilds.
struct Plan {
  std::string name;
  WorkloadKind traffic = WorkloadKind::kUniform;
  bool labeled = false;
  /// churn-persist: .low traffic runs while each delta rebuilds, and its
  /// sojourn_p50_us.low is measured there. The wire workloads measure .low
  /// and .high on an idle rebuild path.
  bool traffic_during_deltas = false;
};

Plan plan_for(const std::string& name) {
  Plan p;
  p.name = name;
  if (name == "wire-uniform") return p;
  if (name == "wire-label-hotspot") {
    p.traffic = WorkloadKind::kHotspot;
    p.labeled = true;
    return p;
  }
  if (name == "churn-persist") {
    p.traffic_during_deltas = true;
    return p;
  }
  throw std::invalid_argument(
      "unknown workload " + name +
      " (want wire-uniform|wire-label-hotspot|churn-persist)");
}

/// Shape of a run for --seconds S, in blocks: one setup; half of the
/// wire segments (kSegmentPairs .low/.high pairs of S / 40 seconds each),
/// a ladder scan, the other half, a second
/// ladder scan; the generation block of S / 2 deltas, every
/// kRestartEvery-th one and the last followed by a restart from the
/// store; a third ladder scan; then kSetups - 1 more setups. Wire
/// segments run before any rebuild has written an artifact: on this kind
/// of virtual disk the writes keep disturbing latency for seconds after
/// fsync returns. Splitting them around the ladder spreads them over more
/// of the run, so one host disturbance covers fewer. The third scan may
/// meet that disturbance, but a disturbed scan can only read low, and
/// capacity takes the highest rung any scan passed.
constexpr int kSetups = 3;
constexpr int kSegmentPairs = 8;
constexpr int kRestartEvery = 2;
constexpr double kRungSeconds = 0.6;

// --- small statistics helpers ---------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double seconds_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e9;
}

// --- thread placement -----------------------------------------------------

/// Fixed placement, so two processes never differ by how the scheduler
/// happened to stack the threads: main thread and rebuilds on CPU 0, the
/// serving pair — server loop and pool worker — together on CPU 1 (the
/// one-core serving host of the committed BENCH files), the generator
/// alone on CPU 2. Keeping the pair on one CPU means a frame that finds
/// the server idle wakes one idle vCPU, not two: on a virtual machine
/// that wake-up is the most host-dependent part of the path. Threads
/// inherit the creating thread's mask, which is how the library's pool
/// worker is placed.
enum Cpu : int { kMainCpu = 0, kServeCpu = 1, kGenCpu = 2 };

bool pinning_enabled() {
  static const bool on = std::thread::hardware_concurrency() >= 4;
  return on;
}

void pin_to(Cpu cpu) {
  if (!pinning_enabled()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<int>(cpu), &set);
  ::pthread_setaffinity_np(::pthread_self(), sizeof set, &set);
}

/// Constructs a RouteService whose pool worker lands on kServeCpu.
std::unique_ptr<RouteService> make_service(const Graph& g,
                                           const RouteServiceOptions& opt) {
  pin_to(kServeCpu);
  std::unique_ptr<RouteService> svc;
  try {
    svc = std::make_unique<RouteService>(g, opt);
  } catch (...) {
    pin_to(kMainCpu);
    throw;
  }
  pin_to(kMainCpu);
  return svc;
}

// --- tracing --------------------------------------------------------------

/// Spans around public calls, one obs::TraceRecorder for the run. Each
/// span carries (req, span, parent) args: the request it served, its own
/// id and its parent's id, so self time can be computed per layer. A
/// disabled tracer records nothing and costs a branch.
class Tracer {
 public:
  explicit Tracer(bool on)
      : rec_(on ? std::make_unique<obs::TraceRecorder>(kCapacity) : nullptr) {
    if (rec_ != nullptr) {
      epoch_ns_ = now_ns() - static_cast<std::uint64_t>(rec_->now_us() * 1e3);
    }
  }
  bool on() const noexcept { return rec_ != nullptr; }
  obs::TraceRecorder* recorder() const noexcept { return rec_.get(); }
  std::uint64_t epoch_ns() const noexcept { return epoch_ns_; }
  std::uint64_t next_id() noexcept {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  class Scope {
   public:
    Scope(Tracer& t, const char* name, const char* layer, double req,
          std::uint64_t parent)
        : id_(t.on() ? t.next_id() : 0), span_(t.recorder(), name, layer) {
      span_.arg("req", req);
      span_.arg("span", static_cast<double>(id_));
      span_.arg("parent", static_cast<double>(parent));
    }
    std::uint64_t id() const noexcept { return id_; }

   private:
    std::uint64_t id_;
    obs::TraceRecorder::Span span_;
  };

  /// What to add to a time on \p other's clock to put it on this one's.
  double shift_from(const obs::TraceRecorder& other) const {
    return rec_->now_us() - other.now_us();
  }

  /// A span measured elsewhere (the generator's frame timestamps, the
  /// library's own spans).
  void record(const char* name, const char* layer, double ts_us,
              double dur_us, double req, std::uint64_t id,
              std::uint64_t parent) {
    if (rec_ == nullptr) return;
    obs::TraceEvent e;
    e.name = name;
    e.cat = layer;
    e.ts_us = ts_us;
    e.dur_us = dur_us;
    e.num_args = 3;
    e.arg_name[0] = "req";
    e.arg_value[0] = req;
    e.arg_name[1] = "span";
    e.arg_value[1] = static_cast<double>(id);
    e.arg_name[2] = "parent";
    e.arg_value[2] = static_cast<double>(parent);
    rec_->record(e);
  }

 private:
  static constexpr std::uint32_t kCapacity = 1u << 17;
  std::unique_ptr<obs::TraceRecorder> rec_;
  std::uint64_t epoch_ns_ = 0;
  std::atomic<std::uint64_t> next_id_{1};
};

/// Per-layer self time: each span's duration minus its children's.
std::map<std::string, double> self_seconds(
    const std::vector<obs::TraceEvent>& events) {
  std::map<double, double> child_us;  // parent id -> children's time
  for (const obs::TraceEvent& e : events) child_us[e.arg_value[2]] += e.dur_us;
  std::map<std::string, double> out;
  for (const obs::TraceEvent& e : events) {
    const auto it = child_us.find(e.arg_value[1]);
    const double kids = it == child_us.end() ? 0 : it->second;
    out[e.cat] += std::max(0.0, e.dur_us - kids) / 1e6;
  }
  return out;
}

/// The first span named \p name that starts at or after \p since_us, in
/// events read from the library's own recorder (a service's
/// trace_recorder(): SchemeManager and ArtifactStore record there on the
/// production path).
std::optional<obs::TraceEvent> find_span(
    const std::vector<obs::TraceEvent>& events, const char* name,
    double since_us) {
  for (const obs::TraceEvent& e : events) {
    if (e.ts_us >= since_us && std::strcmp(e.name, name) == 0) return e;
  }
  return std::nullopt;
}

double span_arg(const obs::TraceEvent& e, const char* key) {
  for (std::uint32_t i = 0; i < e.num_args; ++i) {
    if (std::strcmp(e.arg_name[i], key) == 0) return e.arg_value[i];
  }
  return 0;
}

// --- checks and counters --------------------------------------------------

struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< any failed query also fails the run
  std::vector<std::string> failures;  ///< failed correctness checks

  void check(bool ok, const std::string& what) {
    std::printf("check %-58s %s\n", what.c_str(), ok ? "ok" : "FAILED");
    if (!ok) failures.push_back(what);
  }
  void count(const PointResult& p) {
    attempted += p.sent_queries;
    failed += p.failed_queries();
  }
};

bool same_answer(const RouteAnswer& a, const RouteAnswer& b) {
  return a.status == b.status && a.hops == b.hops &&
         a.header_bits == b.header_bits && a.length == b.length;
}

// --- the served stack -----------------------------------------------------

/// A RouteService behind a NetServer on an ephemeral loopback port, with
/// one generator connection. The server loop runs on its own thread; an
/// exception escaping it is kept and rethrown by stop().
class Stack {
 public:
  Stack() = default;
  Stack(const Stack&) = delete;  // the server thread holds `this`
  Stack& operator=(const Stack&) = delete;

  std::unique_ptr<RouteService> service;
  std::unique_ptr<Generator> gen;  ///< load connection while serving
  net::NetClient client;           ///< probes and label fetches

  void start(const WireTraffic& traffic) {
    server_ = std::make_unique<net::NetServer>(*service,
                                               net::NetServerOptions{});
    error_ = nullptr;
    thread_ = std::thread([this] {
      pin_to(kServeCpu);
      try {
        server_->run();
      } catch (...) {
        error_ = std::current_exception();
      }
    });
    gen = std::make_unique<Generator>(server_->port(), traffic);
    client.connect("127.0.0.1", server_->port());
  }

  void stop() {
    gen.reset();
    client.close();
    if (server_ != nullptr) {
      server_->stop();
      thread_.join();
      server_.reset();
    }
    if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
  }

  bool running() const noexcept { return server_ != nullptr; }

  ~Stack() {
    gen.reset();
    client.close();
    if (server_ != nullptr) {
      server_->stop();
      thread_.join();
    }
  }

 private:
  std::unique_ptr<net::NetServer> server_;
  std::thread thread_;
  std::exception_ptr error_;
};

// --- host facts -----------------------------------------------------------

/// Fixed work timed at the start and end of a run: a dependent walk over
/// a 32 MiB permutation plus an integer loop. Recorded only, never used
/// to rescale a metric.
double host_probe_ms() {
  static std::vector<std::uint32_t> next;
  constexpr std::uint32_t kSlots = 1u << 23;
  if (next.empty()) {
    next.resize(kSlots);
    std::vector<std::uint32_t> perm(kSlots);
    for (std::uint32_t i = 0; i < kSlots; ++i) perm[i] = i;
    Rng rng(1);
    for (std::uint32_t i = kSlots - 1; i > 0; --i) {
      std::swap(perm[i], perm[rng.next_below(i + 1)]);
    }
    for (std::uint32_t i = 0; i < kSlots; ++i) {
      next[perm[i]] = perm[(i + 1) % kSlots];
    }
  }
  const std::uint64_t t0 = now_ns();
  std::uint32_t at = 0;
  for (std::uint32_t i = 0; i < (1u << 21); ++i) at = next[at];
  std::uint64_t x = at;
  for (std::uint32_t i = 0; i < (1u << 24); ++i) x = x * 6364136223846793005ull + i;
  const double ms = static_cast<double>(now_ns() - t0) / 1e6;
  return x == 42 ? -ms : ms;  // keeps the loops observable
}

std::string filesystem_of(const std::string& dir) {
  struct statfs fs {};
  struct stat st {};
  if (::statfs(dir.c_str(), &fs) != 0 || ::stat(dir.c_str(), &st) != 0) {
    return "unknown";
  }
  const auto magic = static_cast<unsigned long>(fs.f_type);
  const char* name = "other";
  switch (magic) {
    case 0xEF53: name = "ext4"; break;
    case 0x01021994: name = "tmpfs"; break;
    case 0x794c7630: name = "overlayfs"; break;
    case 0x58465342: name = "xfs"; break;
    case 0x9123683E: name = "btrfs"; break;
    case 0x6969: name = "nfs"; break;
    default: break;
  }
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s (magic 0x%lx) on device %u:%u", name,
                magic, major(st.st_dev), minor(st.st_dev));
  return buf;
}

double peak_rss_mib() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- the run --------------------------------------------------------------

struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void put(const std::string& name, double value, const std::string& unit) {
    items.push_back({name, {value, unit}});
  }
  std::optional<double> get(const std::string& name) const {
    for (const auto& [n, v] : items) {
      if (n == name) return v.first;
    }
    return std::nullopt;
  }
};

class Run {
 public:
  Run(const Args& args, Plan plan)
      : args_(args), plan_(std::move(plan)), tracer_(args.trace) {}

  int execute();

 private:
  void scheme_phase();
  void prepare_traffic();
  void start_serving();
  void refresh_traffic();
  void setup_once(int index);
  void wire_phase(int pairs);
  /// Capacity is the achieved rate at the highest rung any of three
  /// scans passed: one over every other rung between the halves of the
  /// wire segments, then two over every rung from a rung below the best
  /// so far, one after the segments and one after the generation block.
  /// The serving path's speed switches between modes about 1.4x apart
  /// that last seconds to minutes; scans at three times keep one slow
  /// stretch from setting capacity.
  void ladder_scan(int first_rung, int stride);
  void finish_capacity();
  void generation_phase();
  void segment(bool high, std::uint64_t parent);
  void churn_window(const Graph& next, int index, std::uint64_t parent);
  void replay_phase();
  void delta(const Graph& next, int index, std::uint64_t parent);
  void restart(int index, std::uint64_t parent);
  void fresh_build_check();
  void report();

  RouteServiceOptions options() const {
    RouteServiceOptions o;
    o.k = kK;
    o.seed = kSchemeSeed;
    o.threads = 1;
    o.compile_threads = 1;
    o.persist.dir = store_dir_;
    return o;
  }

  /// One generator point on the generator's CPU; its bytes and error
  /// frames go into the run's wire totals.
  PointResult point(double qps, double seconds, bool exact);
  void account_wire(const PointResult& p);

  const Args& args_;
  Plan plan_;
  Tracer tracer_;
  Ledger ledger_;
  Metrics e2e_, layer_;
  Stack stack_;
  std::string store_dir_;
  Graph graph_;  ///< topology of the serving generation
  VertexId n_ = 0;

  WireTraffic traffic_;
  std::vector<RouteQuery> ring_;
  std::vector<RouteAnswer> probe_ref_;  ///< in-process answers, probe set

  // Samples.
  std::vector<double> setup_s_, graph_s_;
  std::vector<double> low_p50_, high_p50_;   ///< per segment / window
  std::vector<double> low_all_, high_all_;   ///< every frame's sojourn
  std::vector<double> slip_low_, slip_high_;
  std::uint64_t batches_low_ = 0, queries_low_ = 0;
  std::uint64_t batches_high_ = 0, queries_high_ = 0;
  std::uint64_t wire_query_bytes_ = 0, wire_answer_bytes_ = 0;
  std::uint64_t wire_queries_ = 0, error_frames_ = 0;
  double capacity_qps_ = 0;
  int best_rung_ = -1;  ///< highest ladder rung that passed
  std::vector<double> to_serve_s_, to_durable_s_, recover_s_;
  std::vector<double> build_s_, flip_us_, persist_s_, parts_gap_;
  std::vector<double> recover_newest_s_, reuse_, full_build_s_;
  double pool_mib_ = 0, artifact_mib_ = 0;
  double blackout_us_ = 0;
  std::uint64_t rejected_ = 0;
  std::vector<FrameTrace> frame_traces_;
};

PointResult Run::point(double qps, double seconds, bool exact) {
  PointResult p;
  std::exception_ptr err;
  std::thread gen([&] {
    pin_to(kGenCpu);
    try {
      p = stack_.gen->run_point(qps, seconds, exact, kP99LimitUs / 1e6,
                                tracer_.on() ? 16 : 0,
                                tracer_.on() ? &frame_traces_ : nullptr,
                                tracer_.epoch_ns());
    } catch (...) {
      err = std::current_exception();
    }
  });
  gen.join();
  if (err) std::rethrow_exception(err);
  account_wire(p);
  return p;
}

void Run::account_wire(const PointResult& p) {
  wire_query_bytes_ += p.query_bytes;
  wire_answer_bytes_ += p.answer_bytes;
  wire_queries_ += p.sent_queries;
  error_frames_ += p.error_frames;
}

void Run::setup_once(int index) {
  // Each setup starts from an empty store, so it preprocesses and pays
  // the initial persist.
  stack_.service.reset();
  std::filesystem::remove_all(store_dir_);
  Tracer::Scope root(tracer_, "setup", "bench", index, 0);
  const std::uint64_t t0 = now_ns();
  {
    Tracer::Scope s(tracer_, "graph.build", "graph", index, root.id());
    Rng rng(kGraphSeed);
    graph_ = make_workload(GraphFamily::kErdosRenyi, kN, rng);
    n_ = graph_.num_vertices();
  }
  graph_s_.push_back(seconds_since(t0));
  std::uint64_t construct_id = 0;
  {
    Tracer::Scope s(tracer_, "service.construct", "service", index, root.id());
    construct_id = s.id();
    stack_.service = make_service(graph_, options());
  }
  {
    Tracer::Scope s(tracer_, "service.first_answer", "service", index,
                    root.id());
    const RouteQuery q{0, n_ - 1, kUnknownDistance};
    const std::vector<RouteAnswer> a =
        stack_.service->route_collect(std::span<const RouteQuery>(&q, 1));
    ledger_.attempted += 1;
    if (a.size() != 1 || !a[0].delivered()) ledger_.failed += 1;
  }
  setup_s_.push_back(seconds_since(t0));
  const SchemePackagePtr pkg = stack_.service->package();
  full_build_s_.push_back(pkg->build_seconds);
  if (tracer_.on()) {
    // The constructor's build and initial persist, as children of the
    // construct span: the build from the package's own build time, which
    // ends where the persist the store recorded begins.
    const obs::TraceRecorder& lib = *stack_.service->trace_recorder();
    const auto publish = find_span(lib.events(), "artifact_publish", 0);
    ledger_.check(publish.has_value(),
                  "setup " + std::to_string(index) +
                      ": the store recorded its initial persist");
    if (publish) {
      const double shift = tracer_.shift_from(lib);
      const double build_us = pkg->build_seconds * 1e6;
      tracer_.record("core.full_build", "core",
                     publish->ts_us + shift - build_us, build_us, index,
                     tracer_.next_id(), construct_id);
      tracer_.record("persist.publish", "persist", publish->ts_us + shift,
                     publish->dur_us, index, tracer_.next_id(), construct_id);
    }
  }
  const ServiceTelemetry t = stack_.service->snapshot();
  ledger_.check(t.artifacts_persisted == 1 && t.persist_failures == 0,
                "setup " + std::to_string(index) +
                    ": initial generation persisted");
  pool_mib_ = static_cast<double>(t.flat_pool_bytes) / (1 << 20);
}

void Run::scheme_phase() {
  RouteService& svc = *stack_.service;
  const TZScheme* tz = svc.tz_scheme();
  // The paper's size bounds, with the closed forms tests/test_tz_scheme.cpp
  // uses: labels (and so headers) within c·k·log²n bits, bunches within
  // O(k·n^{1/k}·log n) entries.
  const double logn = std::log2(static_cast<double>(n_));
  const double label_bound = 4.0 * kK * logn * logn + 64;
  const double bunch_bound =
      4.0 * kK * std::pow(static_cast<double>(n_), 1.0 / kK) * logn;
  std::uint64_t label_max = 0, table_max = 0;
  for (VertexId v = 0; v < n_; ++v) {
    label_max = std::max(label_max, tz->label_bits(v));
    table_max = std::max(table_max, svc.table_bits(v));
  }
  std::uint32_t bunch_max = 0;
  for (const std::uint32_t b : tz->bunch_sizes()) bunch_max = std::max(bunch_max, b);

  // Stretch over a fixed sample: same pairs in every run, exact
  // distances computed here, off the clock.
  Rng rng(kStretchSeed);
  TrafficOptions topt;
  topt.source_pool = kStretchSources;
  std::vector<RouteQuery> sample =
      make_traffic(graph_, WorkloadKind::kUniform, kStretchQueries, rng, topt);
  attach_exact_distances(graph_, sample);
  const std::vector<RouteAnswer> ans = svc.route_collect(sample);
  double sum = 0, worst = 0;
  std::uint64_t delivered = 0, header_max = 0;
  bool within = true;
  const double stretch_bound = 4.0 * kK - 5.0;
  for (const RouteAnswer& a : ans) {
    if (!a.delivered()) continue;
    ++delivered;
    sum += a.stretch;
    worst = std::max(worst, a.stretch);
    header_max = std::max(header_max, a.header_bits);
    within = within && a.stretch <= stretch_bound + 1e-9;
  }
  ledger_.attempted += sample.size();
  ledger_.failed += sample.size() - delivered;
  ledger_.check(delivered == sample.size(),
                "stretch sample: every query delivered");
  ledger_.check(within, "stretch sample: stretch <= 4k-5");
  ledger_.check(static_cast<double>(label_max) <= label_bound &&
                    static_cast<double>(header_max) <= label_bound,
                "label and header bits within 4k log^2 n + 64");
  ledger_.check(bunch_max <= bunch_bound, "bunch sizes within 4k n^{1/k} log n");
  e2e_.put("stretch_mean", sum / static_cast<double>(std::max<std::uint64_t>(1, delivered)), "ratio");
  e2e_.put("stretch_max", worst, "ratio");
  e2e_.put("table_bits_max", static_cast<double>(table_max), "bit");
  e2e_.put("header_bits_max", static_cast<double>(header_max), "bit");
  e2e_.put("label_bits_max", static_cast<double>(label_max), "bit");
}

void Run::prepare_traffic() {
  // The query ring (seeded), with the in-process answers every wire
  // answer is checked against.
  Rng rng(args_.seed * 0x9e3779b97f4a7c15ull + 1);
  ring_ = make_traffic(graph_, plan_.traffic, kRingQueries, rng);
  const std::vector<RouteAnswer> ans = stack_.service->route_collect(ring_);
  traffic_.labeled = plan_.labeled;
  traffic_.frame_queries = kFrameQueries;
  traffic_.expected.resize(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    traffic_.expected[i] = {static_cast<std::uint8_t>(ans[i].status),
                            ans[i].hops, ans[i].header_bits};
  }
  probe_ref_.assign(ans.begin(), ans.begin() + kProbeQueries);
  traffic_.queries.resize(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    traffic_.queries[i] = {ring_[i].s, ring_[i].t, {}, 0};
  }
}

void Run::start_serving() {
  stack_.start(traffic_);
  refresh_traffic();
  // Byte-identity: socket answers equal the in-process answers.
  const std::vector<net::WireAnswer> got = stack_.client.query(
      std::span<const net::WireQuery>(traffic_.queries.data(), kProbeQueries),
      traffic_.labeled);
  bool same = got.size() == probe_ref_.size();
  for (std::size_t i = 0; same && i < got.size(); ++i) {
    same = got[i].status == static_cast<std::uint8_t>(probe_ref_[i].status) &&
           got[i].hops == probe_ref_[i].hops &&
           got[i].header_bits == probe_ref_[i].header_bits;
  }
  ledger_.attempted += kProbeQueries;
  if (!same) ledger_.failed += kProbeQueries;
  ledger_.check(same, "socket answers identical to route_collect (" +
                          std::to_string(kProbeQueries) + " probes)");
  ledger_.count(point(kLowQps, 0.3, true));  // warm-up
  ledger_.count(point(kHighQps, 0.3, true));
}

void Run::wire_phase(int pairs) {
  Tracer::Scope root(tracer_, "wire", "bench", 0, 0);
  for (int i = 0; i < pairs; ++i) {
    segment(false, root.id());
    segment(true, root.id());
  }
}

void Run::refresh_traffic() {
  // A new generation answers differently: take its answers as the new
  // expectation (route_one, while the server is idle) and, for label
  // addressing, its labels.
  RouteService& svc = *stack_.service;
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    const RouteAnswer a = svc.route_one(ring_[i]);
    traffic_.expected[i] = {static_cast<std::uint8_t>(a.status), a.hops,
                            a.header_bits};
  }
  if (!plan_.labeled) return;
  // Labels come over the wire like a client's would, in LABEL_REQ
  // chunks small enough that each LABEL_RESP fits kMaxPayload (one
  // unsplit request for every destination would overflow the frame).
  std::vector<VertexId> dests;
  std::vector<char> seen(n_, 0);
  for (const RouteQuery& q : ring_) {
    if (!seen[q.t]) {
      seen[q.t] = 1;
      dests.push_back(q.t);
    }
  }
  std::uint64_t max_bits = 0;
  for (const VertexId t : dests) {
    max_bits = std::max(max_bits, svc.tz_scheme()->label_bits(t));
  }
  const std::uint64_t per_label = (max_bits + 7) / 8 + 10;  // + varints
  const auto chunk = static_cast<std::size_t>(
      std::max<std::uint64_t>(1, (net::kMaxPayload - 16) / per_label));
  traffic_.labels.assign(n_, {});
  std::vector<std::uint32_t> label_bits(n_, 0);
  for (std::size_t off = 0; off < dests.size(); off += chunk) {
    const std::span<const VertexId> part(
        dests.data() + off, std::min(chunk, dests.size() - off));
    std::vector<net::OwnedLabel> labels = stack_.client.fetch_labels(part);
    if (labels.size() != part.size()) {
      throw std::runtime_error("LABEL_RESP does not match its LABEL_REQ");
    }
    for (std::size_t i = 0; i < part.size(); ++i) {
      traffic_.labels[part[i]] = std::move(labels[i].bytes);
      label_bits[part[i]] = labels[i].bits;
    }
  }
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    const VertexId t = ring_[i].t;
    traffic_.queries[i] = {ring_[i].s, kNoVertex, traffic_.labels[t],
                           label_bits[t]};
  }
}

void Run::segment(bool high, std::uint64_t parent) {
  const double seconds = args_.seconds / 40.0;
  const ServiceTelemetry before = stack_.service->snapshot();
  Tracer::Scope span(tracer_, high ? "wire.segment.high" : "wire.segment.low",
                     "bench", 0, parent);
  const PointResult p = point(high ? kHighQps : kLowQps, seconds, true);
  const ServiceTelemetry after = stack_.service->snapshot();
  ledger_.count(p);
  // churn-persist keeps the same alternation, so its .high segments see
  // the same server state as the wire workloads', but takes its .low
  // figures beside the rebuilds.
  if (!high && plan_.traffic_during_deltas) return;
  (high ? high_p50_ : low_p50_).push_back(median(p.sojourn_us));
  auto& all = high ? high_all_ : low_all_;
  all.insert(all.end(), p.sojourn_us.begin(), p.sojourn_us.end());
  auto& slip = high ? slip_high_ : slip_low_;
  slip.insert(slip.end(), p.slip_us.begin(), p.slip_us.end());
  (high ? batches_high_ : batches_low_) += after.batches - before.batches;
  (high ? queries_high_ : queries_low_) += after.queries - before.queries;
}

void Run::ladder_scan(int first_rung, int stride) {
  // Scans the fixed ladder upward from first_rung, every stride-th rung.
  // A rung passes when a
  // try keeps up (achieved >= 99 % of offered), keeps p99 <= 20 ms and
  // fails no query; a try that missed without a clear backlog (achieved
  // still >= 95 %) is taken again, since a host stall near the knee can
  // sink one try. The scan stops after two failed rungs in a row.
  // Overload rejections on a rung are that rung's failure signal, not
  // query failures; wrong answers still are.
  Tracer::Scope root(tracer_, "ladder", "bench", first_rung, 0);
  constexpr int kRungs = static_cast<int>(std::size(kLadderQps));
  int consecutive_fail = 0;
  for (int r = first_rung; r < kRungs && consecutive_fail < 2; r += stride) {
    const double rate = kLadderQps[r];
    bool pass = false, backlog = false;
    for (int attempt = 0; attempt < 2 && !pass && !backlog; ++attempt) {
      Tracer::Scope span(tracer_, "ladder.rung", "bench", rate, root.id());
      const PointResult p = point(rate, kRungSeconds, true);
      ledger_.attempted += p.ok_queries + p.wrong_queries;
      ledger_.failed += p.wrong_queries;
      const double p99 = quantile(p.sojourn_us, 0.99);
      backlog = p.achieved_qps < kBacklogShare * p.offered_qps;
      pass = p.achieved_qps >= kMinAchievedShare * p.offered_qps &&
             p99 <= kP99LimitUs && p.failed_queries() == 0;
      std::printf("  rung %8.0f achieved %8.0f p50 %8.1f p99 %8.1f us "
                  "errors %llu %s\n",
                  p.offered_qps, p.achieved_qps, median(p.sojourn_us), p99,
                  static_cast<unsigned long long>(p.error_queries +
                                                  p.lost_queries),
                  pass ? "pass" : "fail");
      if (pass && r > best_rung_) {
        best_rung_ = r;
        capacity_qps_ = p.achieved_qps;
      }
      // Let an overloaded server drain before the next try.
      if (!pass) std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    consecutive_fail = pass ? 0 : consecutive_fail + 1;
  }
}

void Run::finish_capacity() {
  if (capacity_qps_ == 0) {
    // No rung passed: fall back to the fixed rates, judged on the wire
    // segments with the same p99 limit.
    capacity_qps_ =
        quantile(high_all_, 0.99) <= kP99LimitUs ? kHighQps : kLowQps;
  }
}

void Run::replay_phase() {
  // Traced only, with the server stopped (route() is driver-thread-only):
  // the workload's own frames through each layer alone.
  RouteService& svc = *stack_.service;
  Tracer::Scope root(tracer_, "replay", "bench", 0, 0);

  // net: the four codec calls over the ring's frames.
  {
    const std::uint32_t frames = traffic_.frames();
    std::vector<std::vector<std::uint8_t>> qpay(frames), apay(frames);
    std::vector<net::WireQuery> dq;
    std::vector<net::WireAnswer> wa(kFrameQueries), da;
    std::uint64_t req = 0;
    const std::uint64_t t0 = now_ns();
    {
      Tracer::Scope s(tracer_, "net.encode_query", "net", 0, root.id());
      for (std::uint32_t f = 0; f < frames; ++f) {
        net::encode_query(qpay[f], f + 1, traffic_.frame(f), traffic_.labeled);
      }
    }
    {
      Tracer::Scope s(tracer_, "net.decode_query", "net", 0, root.id());
      for (std::uint32_t f = 0; f < frames; ++f) {
        dq.clear();
        if (!net::decode_query(qpay[f], traffic_.labeled, req, dq)) {
          throw std::runtime_error("decode_query rejected its own frame");
        }
      }
    }
    {
      Tracer::Scope s(tracer_, "net.encode_answer", "net", 0, root.id());
      for (std::uint32_t f = 0; f < frames; ++f) {
        for (std::uint32_t j = 0; j < kFrameQueries; ++j) {
          const Expected& e = traffic_.expected[f * kFrameQueries + j];
          wa[j] = {e.status, e.hops, e.header_bits, 1000, 100};
        }
        net::encode_answer(apay[f], f + 1, net::kProtocolVersion, wa);
      }
    }
    {
      Tracer::Scope s(tracer_, "net.decode_answer", "net", 0, root.id());
      for (std::uint32_t f = 0; f < frames; ++f) {
        da.clear();
        if (!net::decode_answer(apay[f], net::kProtocolVersion, req, da)) {
          throw std::runtime_error("decode_answer rejected its own frame");
        }
      }
    }
    layer_.put("net.codec_ns_per_query",
               static_cast<double>(now_ns() - t0) /
                   (static_cast<double>(frames) * kFrameQueries),
               "ns");
  }

  // service: batches of the coalesced size seen at each rate, replayed
  // through RouteService::route in the workload's own addressing.
  std::vector<RouteRequest> reqs(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    reqs[i].s = ring_[i].s;
    if (plan_.labeled) {
      reqs[i].label = traffic_.queries[i].label;
      reqs[i].label_bits = traffic_.queries[i].label_bits;
    } else {
      reqs[i].t = ring_[i].t;
    }
  }
  struct WaitSink final : RouteSink {
    std::vector<double>* waits;
    void on_answers(std::uint32_t, std::span<const RouteAnswer> a) override {
      for (const RouteAnswer& x : a) waits->push_back(x.queue_wait_us);
    }
  };
  std::vector<double> waits;
  WaitSink sink;
  sink.waits = &waits;
  double distinct_sum = 0;
  std::uint64_t distinct_batches = 0;
  for (const bool high : {false, true}) {
    const std::uint64_t b = high ? batches_high_ : batches_low_;
    const std::uint64_t q = high ? queries_high_ : queries_low_;
    const auto size = static_cast<std::uint32_t>(std::clamp<double>(
        std::round(b > 0 ? static_cast<double>(q) / b : kFrameQueries), 1,
        4096));
    std::vector<double> per_batch;
    const std::uint32_t batches = std::min<std::uint32_t>(
        2000, static_cast<std::uint32_t>(reqs.size() / size));
    for (std::uint32_t i = 0; i < batches; ++i) {
      const std::span<const RouteRequest> batch(reqs.data() + i * size, size);
      const std::uint64_t t0 = now_ns();
      {
        Tracer::Scope s(tracer_, "service.route", "service", i, root.id());
        svc.route(batch, sink);
      }
      per_batch.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      if (high) {
        std::unordered_set<VertexId> d;
        for (std::uint32_t j = 0; j < size; ++j) d.insert(ring_[i * size + j].t);
        distinct_sum += static_cast<double>(d.size()) / size;
        ++distinct_batches;
      }
    }
    layer_.put(std::string("service.route_us_per_batch.p50.") +
                   (high ? "high" : "low"),
               median(per_batch), "us");
    layer_.put(std::string("net.coalesced_batch_queries.") +
                   (high ? "high" : "low"),
               b > 0 ? static_cast<double>(q) / b : 0, "count");
  }
  layer_.put("service.pool_queue_wait_us.p50", median(waits), "us");
  layer_.put("service.distinct_dest_fraction",
             distinct_batches > 0 ? distinct_sum / distinct_batches : 0,
             "fraction");

  // core: the engine alone at the service's group size, on the pinned
  // generation's pooled labels.
  {
    const SchemePackagePtr pkg = svc.package();
    FlatBatchTarget target;
    target.graph = pkg->graph.get();
    target.flat = pkg->flat.get();
    target.kind = FlatServeKind::kTZDirect;
    FlatBatchEngine engine(svc.options().batch_group);
    const std::uint32_t chunk = std::max<std::uint32_t>(32, 2 * engine.group());
    std::vector<FlatBatchQuery> qs(chunk);
    std::vector<FlatBatchAnswer> as(chunk);
    std::uint64_t hops = 0, n = 0;
    const std::uint64_t t0 = now_ns();
    {
      Tracer::Scope s(tracer_, "core.engine", "core", 0, root.id());
      for (std::size_t lo = 0; lo + chunk <= ring_.size(); lo += chunk) {
        for (std::uint32_t j = 0; j < chunk; ++j) {
          const RouteQuery& q = ring_[lo + j];
          qs[j] = {q.s, q.t, pkg->flat->label(q.t), nullptr};
        }
        engine.route(target, qs, as);
        for (const FlatBatchAnswer& a : as) hops += a.hops;
        n += chunk;
      }
    }
    layer_.put("core.engine_ns_per_query",
               static_cast<double>(now_ns() - t0) / static_cast<double>(n),
               "ns");
    layer_.put("core.hops_mean", static_cast<double>(hops) / n, "count");
  }
}

void Run::delta(const Graph& next, int index, std::uint64_t parent) {
  RouteService& svc = *stack_.service;
  const RouteQuery probe{1, n_ / 2, kUnknownDistance};
  Graph handoff = next;  // the copy is made off the clock
  const ServiceTelemetry before = svc.snapshot();
  const obs::TraceRecorder& lib = *svc.trace_recorder();
  const double lib_since_us = lib.now_us();
  // The production path in both modes: the rebuild thread builds, flips
  // and persists; this thread watches for the flip.
  Tracer::Scope root(tracer_, "churn.delta", "bench", index, parent);
  SchemeManager mgr(svc);
  const std::uint64_t swaps = svc.swap_count();
  const std::uint64_t t0 = now_ns();
  mgr.rebuild_async(std::move(handoff));
  while (svc.swap_count() == swaps && mgr.rebuild_in_flight()) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  RouteAnswer a;
  {
    Tracer::Scope s(tracer_, "service.first_answer", "service", index,
                    root.id());
    a = svc.route_one(probe);
  }
  to_serve_s_.push_back(seconds_since(t0));
  mgr.wait();
  const double durable = seconds_since(t0);
  to_durable_s_.push_back(durable);
  ledger_.attempted += 1;
  if (!a.delivered()) ledger_.failed += 1;
  const ServiceTelemetry after = svc.snapshot();
  ledger_.check(after.swaps == before.swaps + 1 &&
                    after.artifacts_persisted ==
                        before.artifacts_persisted + 1 &&
                    after.persist_failures == before.persist_failures,
                "delta " + std::to_string(index) +
                    ": flipped and persisted once");
  if (!tracer_.on()) return;

  // The parts, from what the rebuild thread recorded on that path: the
  // package's build time, SchemeManager's publish_flip span and the
  // store's artifact_publish span. They are read right after wait(),
  // before the server's per-frame spans can wrap the service's ring.
  const std::vector<obs::TraceEvent> events = lib.events();
  const auto rebuild = find_span(events, "rebuild", lib_since_us);
  const auto flip = find_span(events, "publish_flip", lib_since_us);
  const auto publish = find_span(events, "artifact_publish", lib_since_us);
  ledger_.check(rebuild && flip && publish,
                "delta " + std::to_string(index) +
                    ": rebuild, flip and persist spans recorded");
  if (!rebuild || !flip || !publish) return;
  const SchemePackagePtr pkg = svc.package();
  const double shift = tracer_.shift_from(lib);
  const double build_s = pkg->build_seconds;
  const double flip_s = flip->dur_us / 1e6;
  const double persist_s = publish->dur_us / 1e6;
  tracer_.record("core.incremental_build", "core", rebuild->ts_us + shift,
                 build_s * 1e6, index, tracer_.next_id(), root.id());
  tracer_.record("service.publish_flip", "service", flip->ts_us + shift,
                 flip->dur_us, index, tracer_.next_id(), root.id());
  tracer_.record("persist.publish", "persist", publish->ts_us + shift,
                 publish->dur_us, index, tracer_.next_id(), root.id());
  build_s_.push_back(build_s);
  flip_us_.push_back(flip_s * 1e6);
  persist_s_.push_back(persist_s);
  parts_gap_.push_back((durable - build_s - flip_s - persist_s) / durable);
  reuse_.push_back(pkg->incr_stats.reuse_ratio());
  artifact_mib_ = span_arg(*publish, "bytes") / (1 << 20);
  pool_mib_ = static_cast<double>(pkg->flat_stats.pool_bytes) / (1 << 20);
}

void Run::restart(int index, std::uint64_t parent) {
  const bool serve_after = stack_.running();
  stack_.stop();
  const std::vector<RouteQuery> probes(ring_.begin(),
                                       ring_.begin() + kProbeQueries);
  const std::vector<RouteAnswer> before = stack_.service->route_collect(probes);
  stack_.service.reset();

  Tracer::Scope root(tracer_, "restart", "bench", index, parent);
  const std::uint64_t t0 = now_ns();
  std::uint64_t construct_id = 0;
  {
    Tracer::Scope s(tracer_, "service.construct", "service", index, root.id());
    construct_id = s.id();
    stack_.service = make_service(graph_, options());
  }
  std::vector<RouteAnswer> first;
  {
    Tracer::Scope s(tracer_, "service.first_answer", "service", index,
                    root.id());
    first = stack_.service->route_collect(
        std::span<const RouteQuery>(probes.data(), 1));
  }
  recover_s_.push_back(seconds_since(t0));
  RouteService& svc = *stack_.service;
  std::uint64_t rejected = 0;
  if (const obs::MetricRegistry* reg = svc.metrics_registry()) {
    const obs::MetricsSnapshot snap = obs::snapshot_metrics(*reg);
    if (const auto* c =
            snap.find_counter("croute_persist_artifacts_rejected_total")) {
      rejected = c->value;
    }
  }
  rejected_ += rejected;
  if (tracer_.on()) {
    // The store's recovery inside the constructor, from the span it
    // recorded there (the server is not up yet, so nothing else has).
    const obs::TraceRecorder& lib = *svc.trace_recorder();
    const auto recover = find_span(lib.events(), "artifact_recover", 0);
    ledger_.check(recover.has_value(),
                  "restart " + std::to_string(index) +
                      ": the store recorded its recovery");
    if (recover) {
      tracer_.record("persist.recover_newest", "persist",
                     recover->ts_us + tracer_.shift_from(lib),
                     recover->dur_us, index, tracer_.next_id(), construct_id);
      recover_newest_s_.push_back(recover->dur_us / 1e6);
    }
  }
  const std::vector<RouteAnswer> after = svc.route_collect(probes);
  bool same = after.size() == before.size();
  for (std::size_t i = 0; same && i < after.size(); ++i) {
    same = same_answer(after[i], before[i]);
  }
  ledger_.attempted += kProbeQueries;
  if (!same) ledger_.failed += kProbeQueries;
  ledger_.check(svc.recovered_from_artifact() && rejected == 0,
                "restart " + std::to_string(index) +
                    ": recovered, nothing rejected (" + svc.recovery_note() +
                    ")");
  ledger_.check(same, "restart " + std::to_string(index) +
                          ": answers equal the generation it came from");
  if (serve_after) stack_.start(traffic_);
}

void Run::fresh_build_check() {
  // The last rebuilt generation equals a from-scratch build on its graph.
  const SchemePackagePtr served = stack_.service->package();
  RouteServiceOptions opt = options();
  opt.persist.dir.clear();
  SchemePackagePtr fresh;
  {
    Tracer::Scope s(tracer_, "core.full_build", "core", 0, 0);
    fresh = build_scheme_package(std::make_shared<const Graph>(graph_), opt);
  }
  const auto answers = [&](const SchemePackage& pkg) {
    FlatBatchTarget target;
    target.graph = pkg.graph.get();
    target.flat = pkg.flat.get();
    target.kind = FlatServeKind::kTZDirect;
    FlatBatchEngine engine(16);
    std::vector<FlatBatchQuery> qs;
    for (std::uint32_t i = 0; i < 8192; ++i) {
      const RouteQuery& q = ring_[i];
      qs.push_back({q.s, q.t, pkg.flat->label(q.t), nullptr});
    }
    std::vector<FlatBatchAnswer> as(qs.size());
    engine.route(target, qs, as);
    return as;
  };
  const auto a = answers(*served);
  const auto b = answers(*fresh);
  bool same = true;
  for (std::size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].status == b[i].status && a[i].hops == b[i].hops &&
           a[i].header_bits == b[i].header_bits && a[i].length == b[i].length;
  }
  ledger_.check(same && served->flat_stats.pool_bytes ==
                            fresh->flat_stats.pool_bytes,
                "last rebuilt generation equals a fresh build (8192 queries)");
}

void Run::churn_window(const Graph& next, int index, std::uint64_t parent) {
  // .low traffic beside one rebuild, in back-to-back quarter-second
  // points that start before the delta and end after it; answers may
  // come from either side of the flip, so only delivery is checked.
  std::atomic<bool> stop{false};
  std::vector<PointResult> points;
  std::exception_ptr error;
  const ServiceTelemetry before = stack_.service->snapshot();
  std::thread traffic([&] {
    pin_to(kGenCpu);
    try {
      while (!stop.load(std::memory_order_acquire)) {
        points.push_back(stack_.gen->run_point(
            kLowQps, 0.25, false, kP99LimitUs / 1e6, tracer_.on() ? 16 : 0,
            tracer_.on() ? &frame_traces_ : nullptr, tracer_.epoch_ns()));
      }
    } catch (...) {
      error = std::current_exception();
    }
  });
  try {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    delta(next, index, parent);
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
  } catch (...) {
    stop.store(true, std::memory_order_release);
    traffic.join();
    throw;
  }
  stop.store(true, std::memory_order_release);
  traffic.join();
  if (error) std::rethrow_exception(error);
  const ServiceTelemetry after = stack_.service->snapshot();
  batches_low_ += after.batches - before.batches;
  queries_low_ += after.queries - before.queries;
  blackout_us_ = std::max(blackout_us_, after.max_swap_blackout_us);
  std::vector<double> sojourn;
  for (const PointResult& p : points) {
    ledger_.count(p);
    sojourn.insert(sojourn.end(), p.sojourn_us.begin(), p.sojourn_us.end());
    slip_low_.insert(slip_low_.end(), p.slip_us.begin(), p.slip_us.end());
    account_wire(p);
  }
  low_p50_.push_back(median(sojourn));
  low_all_.insert(low_all_.end(), sojourn.begin(), sojourn.end());
}

void Run::generation_phase() {
  Rng delta_rng(args_.seed * 0x2545f4914f6cdd1dull + 3);
  const DeltaOptions dopt = churn_delta();
  const int deltas = std::max(1, static_cast<int>(args_.seconds / 2));
  for (int d = 0; d < deltas; ++d) {
    Tracer::Scope root(tracer_, "generation", "bench", d, 0);
    const Graph next = perturb_graph(graph_, delta_rng, dopt);
    if (plan_.traffic_during_deltas) {
      churn_window(next, d, root.id());
    } else {
      delta(next, d, root.id());
    }
    graph_ = next;
    const bool last = d + 1 == deltas;
    if (last) fresh_build_check();
    if (last || (d + 1) % kRestartEvery == 0) restart(d, root.id());
  }
  // What follows (a ladder scan, the replay) checks answers and sends
  // labels of the generation now serving; a label from an older
  // generation can make route() throw.
  refresh_traffic();
}

void print_samples(const char* name, const std::vector<double>& v) {
  std::printf("samples %-20s", name);
  for (const double x : v) std::printf(" %.4g", x);
  std::printf("\n");
}

void Run::report() {
  print_samples("setup_s", setup_s_);
  print_samples("delta_to_serve_s", to_serve_s_);
  print_samples("delta_to_durable_s", to_durable_s_);
  print_samples("recover_s", recover_s_);
  print_samples("sojourn_p50_us.low", low_p50_);
  print_samples("sojourn_p50_us.high", high_p50_);
  // The median over every frame sent at the rate, pooled across the
  // run's segments: a mixture of fast and slow wake-up modes moves it
  // smoothly, and a segment hit by a host stall moves it by that
  // segment's share of the frames only.
  const double low = median(low_all_), high = median(high_all_);
  e2e_.put("sojourn_p50_us.low", low, "us");
  e2e_.put("sojourn_p50_us.high", high, "us");
  e2e_.put("capacity_qps", capacity_qps_, "1/s");
  e2e_.put("setup_s", median(setup_s_), "s");
  e2e_.put("delta_to_serve_s", median(to_serve_s_), "s");
  e2e_.put("delta_to_durable_s", median(to_durable_s_), "s");
  e2e_.put("recover_s", median(recover_s_), "s");

  // Generator self-check at the fixed rates.
  const double slip_low = median(slip_low_), slip_high = median(slip_high_);
  const double low_iv = kFrameQueries * 1e6 / kLowQps;
  const double high_iv = kFrameQueries * 1e6 / kHighQps;
  ledger_.check(slip_low <= kMaxSlipShare * low_iv &&
                    slip_high <= kMaxSlipShare * high_iv,
                "generator: send slip p50 <= 10% of the frame interval");
  if (tracer_.on()) {
    layer_.put("driver.send_slip_us.p50.low", slip_low, "us");
    layer_.put("driver.send_slip_us.p99.low", quantile(slip_low_, 0.99), "us");
    layer_.put("driver.send_slip_us.p50.high", slip_high, "us");
    layer_.put("driver.send_slip_us.p99.high", quantile(slip_high_, 0.99), "us");
    layer_.put("net.frame_bytes_per_query",
               static_cast<double>(wire_query_bytes_ + wire_answer_bytes_) /
                   static_cast<double>(std::max<std::uint64_t>(1, wire_queries_)),
               "bytes");
    layer_.put("net.error_frames", static_cast<double>(error_frames_),
               "count");
    layer_.put("service.publish_flip_us.p50", median(flip_us_), "us");
    layer_.put("service.swap_blackout_us", blackout_us_, "us");
    layer_.put("core.full_build_s", median(full_build_s_), "s");
    layer_.put("core.incremental_build_s.p50", median(build_s_), "s");
    layer_.put("core.clusters_reused_fraction", median(reuse_), "fraction");
    layer_.put("core.flat_pool_mib", pool_mib_, "MiB");
    layer_.put("persist.publish_s.p50", median(persist_s_), "s");
    layer_.put("persist.artifact_mib", artifact_mib_, "MiB");
    layer_.put("persist.recover_newest_s.p50", median(recover_newest_s_), "s");
    layer_.put("persist.rejected_candidates", static_cast<double>(rejected_),
               "count");
    layer_.put("graph.build_s", median(graph_s_), "s");

    // The wire remainder: what slip, codec and the route replay leave of
    // the median sojourn — kernel, coalescing wait and wake-ups.
    const double codec_us = *layer_.get("net.codec_ns_per_query") *
                            kFrameQueries / 1e3;
    const double rem_low = low - slip_low - codec_us -
                           *layer_.get("service.route_us_per_batch.p50.low");
    const double rem_high = high - slip_high - codec_us -
                            *layer_.get("service.route_us_per_batch.p50.high");
    layer_.put("wire.remainder_us.low", rem_low, "us");
    layer_.put("wire.remainder_us.high", rem_high, "us");
    std::printf("wire: p50 .low %.1f us = slip %.1f + codec %.1f + route "
                "%.1f + remainder %.1f (kernel, coalescing, wake-ups)\n",
                low, slip_low, codec_us,
                *layer_.get("service.route_us_per_batch.p50.low"), rem_low);
    std::printf("wire: p50 .high %.1f us = slip %.1f + codec %.1f + route "
                "%.1f + remainder %.1f\n",
                high, slip_high, codec_us,
                *layer_.get("service.route_us_per_batch.p50.high"), rem_high);
    if (low > high) {
      std::printf("wire: .low - .high = %.1f us, of which the remainder "
                  "explains %.1f us\n",
                  low - high, rem_low - rem_high);
    }

    // Churn: build + flip + persist against delta_to_durable_s.
    const double gap = median(parts_gap_);
    layer_.put("churn.parts_gap_fraction", gap, "fraction");
    ledger_.check(std::fabs(gap) <= kPartsTolerance,
                  "churn: build + flip + persist within 2% of "
                  "delta_to_durable_s");

    // Spans: ring sized so nothing was dropped; self time per layer.
    obs::TraceRecorder& rec = *tracer_.recorder();
    std::uint64_t id = 1ull << 40;
    for (const FrameTrace& f : frame_traces_) {
      if (f.answered_us <= 0) continue;
      const std::uint64_t frame_id = id++;
      tracer_.record("wire.frame", "wire", f.scheduled_us,
                     f.answered_us - f.scheduled_us,
                     static_cast<double>(f.seq), frame_id, 0);
      tracer_.record("driver.send", "driver", f.sent_us,
                     f.send_done_us - f.sent_us,
                     static_cast<double>(f.seq), id++, frame_id);
    }
    ledger_.check(rec.dropped() == 0, "trace ring dropped no spans");
    const std::vector<obs::TraceEvent> events = rec.events();
    for (const auto& [layer, s] : self_seconds(events)) {
      if (layer == "bench") continue;
      layer_.put(layer + ".self_s", s, "s");
    }
    const std::string path = args_.out_dir + "/trace-" + plan_.name + "-" +
                             std::to_string(args_.seed) + ".json";
    obs::write_text_file(path, obs::to_chrome_trace(events));
    std::printf("trace: %zu spans -> %s\n", events.size(), path.c_str());
  }
  e2e_.put("peak_rss_mib", peak_rss_mib(), "MiB");
  e2e_.put("ok_fraction",
           ledger_.attempted > 0
               ? static_cast<double>(ledger_.attempted - ledger_.failed) /
                     static_cast<double>(ledger_.attempted)
               : 0,
           "fraction");
}

int Run::execute() {
  pin_to(kMainCpu);
  std::filesystem::create_directories(args_.out_dir);
  store_dir_ = args_.out_dir + "/store-" + plan_.name;
  const double probe_start = host_probe_ms();
  std::printf("perfbench: workload %s seed %llu seconds %.0f trace %d\n",
              plan_.name.c_str(), static_cast<unsigned long long>(args_.seed),
              args_.seconds, tracer_.on() ? 1 : 0);

  setup_once(0);
  scheme_phase();
  prepare_traffic();
  start_serving();
  wire_phase(kSegmentPairs / 2);
  ladder_scan(0, 2);
  wire_phase(kSegmentPairs - kSegmentPairs / 2);
  ladder_scan(std::max(0, best_rung_ - 1), 1);
  generation_phase();
  ladder_scan(std::max(0, best_rung_ - 1), 1);
  finish_capacity();
  stack_.stop();
  if (tracer_.on()) replay_phase();
  for (int i = 1; i < kSetups; ++i) setup_once(i);
  stack_.service.reset();
  report();

  // Run metadata: everything needed to interpret the numbers.
  bench::JsonReport meta;
  meta.set("workload", plan_.name)
      .set("seed", args_.seed)
      .set("seconds", args_.seconds)
      .set("trace", tracer_.on() ? 1 : 0)
      .set("graph", std::string("er n=10000 graph_seed=7 k=3 scheme_seed=8"))
      .set("low_qps", kLowQps)
      .set("high_qps", kHighQps)
      .set("frame_queries", std::uint64_t{kFrameQueries})
      .set("connections", 1)
      .set("service_threads", 1)
      .set("thread_cpus",
           std::string(pinning_enabled()
                           ? "main+rebuild 0, server loop+pool worker 1, "
                             "generator 2"
                           : "unpinned (fewer than 4 CPUs)"));
  bench::add_host_metadata(meta);
  meta.set("artifact_fs", filesystem_of(store_dir_))
      .set("host_probe_start_ms", probe_start)
      .set("host_probe_end_ms", host_probe_ms());
  std::printf("run metadata:\n%s", meta.dump().c_str());
  std::filesystem::remove_all(store_dir_);

  ledger_.check(ledger_.failed == 0,
                "no query failed (" + std::to_string(ledger_.failed) + " of " +
                    std::to_string(ledger_.attempted) + ")");
  const Metrics& out = tracer_.on() ? layer_ : e2e_;
  const bool correct = ledger_.failures.empty();
  std::ostringstream js;
  js.precision(17);
  js << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << ledger_.attempted
     << ", \"failed\": " << ledger_.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.items.size(); ++i) {
    const auto& [name, v] = out.items[i];
    js << (i ? ", " : "") << "\"" << name << "\": {\"value\": " << v.first
       << ", \"unit\": \"" << v.second << "\"}";
  }
  js << "}}";
  // Tracing overhead: this run's end-to-end values against the untraced
  // run of the same workload and seed, which leaves its values here.
  const std::string untraced_path = args_.out_dir + "/e2e-" + plan_.name +
                                    "-" + std::to_string(args_.seed) + ".txt";
  if (!tracer_.on()) {
    std::ofstream f(untraced_path, std::ios::trunc);
    f.precision(17);
    for (const auto& [name, v] : e2e_.items) f << name << ' ' << v.first << '\n';
  } else {
    std::map<std::string, double> untraced;
    std::ifstream f(untraced_path);
    std::string name;
    double value = 0;
    while (f >> name >> value) untraced[name] = value;
    std::printf("tracing overhead (traced vs the --trace 0 run, seed %llu):\n",
                static_cast<unsigned long long>(args_.seed));
    for (const auto& [n, v] : e2e_.items) {
      const auto it = untraced.find(n);
      if (it == untraced.end()) {
        std::printf("  %-24s traced %.6g %s, untraced run not found\n",
                    n.c_str(), v.first, v.second.c_str());
      } else {
        std::printf("  %-24s traced %.6g untraced %.6g %s gap %+.1f%%\n",
                    n.c_str(), v.first, it->second, v.second.c_str(),
                    it->second != 0 ? 100.0 * (v.first / it->second - 1) : 0.0);
      }
    }
  }
  std::printf("%s\n", js.str().c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    Run run(args, plan_for(args.workload));
    return run.execute();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
