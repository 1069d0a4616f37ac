#include "service/hot_swap.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

namespace croute {

SchemeManager::~SchemeManager() {
  if (worker_.joinable()) worker_.join();
}

namespace {

/// Emits the rebuild's phase attribution as retrospective child spans of
/// \p rebuild_start, laid back-to-back in phase order. The phase wall
/// times come from the build's own stats structs, so the trace's
/// "rebuild.tz" spans sum to exactly the incremental_preprocess_seconds
/// (resp. flat_compile_seconds) the telemetry attributes — the trace is
/// the same accounting on a timeline, not a second clock.
void emit_rebuild_spans(obs::TraceRecorder& trace, const SchemePackage& pkg,
                        double rebuild_start_us) {
  double at = rebuild_start_us;
  const auto emit = [&](const char* name, const char* cat, double dur_s) {
    if (dur_s <= 0) return;
    trace.record_complete(name, cat, at, dur_s * 1e6);
    at += dur_s * 1e6;
  };
  const IncrementalRebuildStats& inc = pkg.incr_stats;
  emit("diff", "rebuild", inc.diff_s);
  if (inc.used) {
    // The delta-aware preprocessing phases (core/incremental_rebuild.hpp);
    // pre+analysis+sweep+finalize == total_s == what the telemetry adds
    // to incremental_preprocess_seconds.
    emit("sampling_pivots", "rebuild.tz", inc.pre_s);
    emit("reuse_analysis", "rebuild.tz", inc.analysis_s);
    {
      obs::TraceEvent e;
      e.name = "cluster_sweep";
      e.cat = "rebuild.tz";
      e.ts_us = at;
      e.dur_us = inc.sweep_s * 1e6;
      e.num_args = 3;
      e.arg_name[0] = "clusters_reused";
      e.arg_value[0] = static_cast<double>(inc.clusters_reused);
      e.arg_name[1] = "clusters_total";
      e.arg_value[1] = static_cast<double>(inc.clusters_total);
      e.arg_name[2] = "top_update_pops";
      e.arg_value[2] = static_cast<double>(inc.top_update_pops);
      if (inc.sweep_s > 0) {
        trace.record(e);
        // The sweep's branches, back to back inside it. Their own
        // category keeps "rebuild.tz" summing to the telemetry's total.
        const double sweep_end_us = at + inc.sweep_s * 1e6;
        emit("sweep_top", "rebuild.sweep", inc.sweep_top_s);
        emit("sweep_lower", "rebuild.sweep", inc.sweep_lower_s);
        emit("sweep_splice", "rebuild.sweep", inc.sweep_splice_s);
        at = sweep_end_us;
      }
    }
    emit("finalize", "rebuild.tz", inc.finalize_s);
  } else {
    // Full preprocessing is one opaque phase: everything build_seconds
    // covers except the separately-attributed diff and flat compile.
    const double flat_s = pkg.flat_stats.total_ms / 1e3;
    emit("tz_preprocess", "rebuild.tz",
         pkg.build_seconds - inc.diff_s - flat_s);
  }
  const FlatCompileStats& fs = pkg.flat_stats;
  emit("flat_tables", "rebuild.flat", fs.tables_ms / 1e3);
  emit("flat_directories", "rebuild.flat", fs.directories_ms / 1e3);
  emit("flat_labels", "rebuild.flat", fs.labels_ms / 1e3);
}

}  // namespace

SchemePackagePtr SchemeManager::rebuild_now(Graph g, RebuildMode mode) {
  const RouteServiceOptions& opt = service_->options();
  obs::TraceRecorder* trace = service_->trace_recorder();
  obs::TraceRecorder::Span rebuild_span(trace, "rebuild", "rebuild");
  const double rebuild_start_us = trace != nullptr ? trace->now_us() : 0;
  auto graph = std::make_shared<const Graph>(std::move(g));
  SchemePackagePtr pkg;
  if (mode == RebuildMode::kIncremental) {
    // Pin the serving generation as the reuse donor. The pin keeps it
    // alive for the whole build even if a concurrent publish retires
    // it; a stale donor only costs reuse, never correctness (the result
    // is byte-identical either way).
    pkg = build_scheme_package_incremental(service_->package(),
                                           std::move(graph), opt);
  } else {
    pkg = build_scheme_package(std::move(graph), opt);
  }
  if (trace != nullptr) emit_rebuild_spans(*trace, *pkg, rebuild_start_us);
  service_->record_rebuild(*pkg);
  {
    obs::TraceRecorder::Span publish_span(trace, "publish_flip", "swap");
    service_->publish(pkg);
  }
  // Persist the just-published generation. On rebuild_async this runs on
  // the rebuild thread — the disk write happens in the background while
  // batches already serve the new generation; a persist failure is
  // graceful (the disk copy goes one generation stale, counted in the
  // telemetry) and never fails the rebuild.
  service_->persist_current();
  rebuild_span.arg("build_seconds", pkg->build_seconds);
  rebuild_span.arg("incremental", pkg->incr_stats.used ? 1 : 0);
  return pkg;
}

void SchemeManager::rebuild_async(Graph g, RebuildMode mode) {
  wait();  // at most one rebuild in flight; surfaces a prior failure
  in_flight_.store(true, std::memory_order_release);
  worker_ = std::thread([this, g = std::move(g), mode]() mutable {
    // Capped exponential backoff (options.rebuild_retries; default 0 =
    // fail fast). A transient failure — ENOSPC during persist's encode,
    // an allocation blip — costs a delay, not the rebuild; a
    // deterministic one (disconnected graph) exhausts the budget and
    // surfaces on wait() exactly like the retry-free path. The service
    // serves the old generation throughout.
    const std::uint32_t retries = service_->options().persist.rebuild_retries;
    for (std::uint32_t attempt = 0;; ++attempt) {
      try {
        // The final attempt consumes the graph; earlier ones copy it so
        // a retry still has something to rebuild.
        rebuild_now(attempt < retries ? Graph(g) : std::move(g), mode);
        break;
      } catch (...) {
        if (attempt >= retries) {
          error_ = std::current_exception();
          break;
        }
        service_->note_rebuild_retry();
        const std::uint64_t delay_ms =
            std::min<std::uint64_t>(std::uint64_t{10} << attempt, 500);
        std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      }
    }
    in_flight_.store(false, std::memory_order_release);
  });
}

void SchemeManager::wait() {
  if (worker_.joinable()) worker_.join();
  if (error_) {
    std::exception_ptr err = std::exchange(error_, nullptr);
    std::rethrow_exception(err);
  }
}

}  // namespace croute
