#include "core/flat_batch.hpp"

#include <algorithm>

namespace croute {

namespace {

/// Appends one vertex to a lane's path buffer (diagnostic mode only).
CROUTE_HOT inline void path_append(std::vector<VertexId>* path, VertexId v) {
  if (path == nullptr) return;
  CROUTE_LINT_SUPPRESS(hot_path,
                       "opt-in path recording: the per-lane buffers keep "
                       "their high-water capacity across batches");
  path->push_back(v);
}

}  // namespace

void FlatBatchEngine::ensure_scratch(bool want_paths) {
  lanes_.resize(group_);
  live_.resize(group_);
  scan_.resize(group_);
  scan_next_.resize(group_);
  batch_.reserve(group_);
  if (want_paths) lane_paths_.resize(group_);
}

CROUTE_HOT void FlatBatchEngine::finish(Lane& lane, FlatBatchAnswer& answer,
                             RouteStatus status,
                             std::vector<VertexId>* path_arena) const {
  answer.status = status;
  answer.length = lane.length;
  answer.hops = lane.hops;
  answer.header_bits = lane.bits;
  if (lane.path != nullptr && path_arena != nullptr) {
    answer.path_off = static_cast<std::uint32_t>(path_arena->size());
    answer.path_len = static_cast<std::uint32_t>(lane.path->size());
    CROUTE_LINT_SUPPRESS(hot_path,
                         "opt-in path recording flushes into the "
                         "caller-owned arena, which keeps its high-water "
                         "capacity across batches");
    path_arena->insert(path_arena->end(), lane.path->begin(),
                       lane.path->end());
  }
}

CROUTE_HOT void FlatBatchEngine::route(const FlatBatchTarget& target,
                                       std::span<const FlatBatchQuery> queries,
                                       std::span<FlatBatchAnswer> answers,
                                       std::vector<VertexId>* path_arena) {
  CROUTE_REQUIRE(queries.size() == answers.size(),
                 "answers must be pre-sized to the query count");
  CROUTE_REQUIRE(target.graph != nullptr, "batch target needs a graph");
  CROUTE_REQUIRE(target.flat != nullptr, "batch target needs the flat view");
  if (queries.empty()) return;

  const Graph& g = *target.graph;
  const std::uint32_t max_hops = default_hop_budget(g);
  CROUTE_LINT_SUPPRESS(hot_path,
                       "scratch warmup: every resize is a no-op once the "
                       "engine has served its first batch");
  ensure_scratch(path_arena != nullptr);
  using clock = std::chrono::steady_clock;

  for (std::size_t base = 0; base < queries.size(); base += group_) {
    const auto m = static_cast<std::uint32_t>(
        std::min<std::size_t>(group_, queries.size() - base));
    const auto gen_begin = clock::now();
    live_count_ = 0;
    gen_searches_ = 0;
    for (std::uint32_t j = 0; j < m; ++j) {
      Lane& lane = lanes_[j];
      const FlatBatchQuery& q = queries[base + j];
      lane.qi = static_cast<std::uint32_t>(base + j);
      lane.s = q.s;
      lane.t = q.t;
      lane.here = q.s;
      lane.root = kNoVertex;
      lane.bits = 0;
      lane.length = 0;
      lane.hops = 0;
      lane.path = path_arena != nullptr ? &lane_paths_[j] : nullptr;
      if (lane.path != nullptr) {
        lane.path->clear();
        path_append(lane.path, q.s);
      }
      if (q.s == q.t) {
        // Self-query: the packet never leaves the source — delivered, 0
        // hops, 0 header bits (same defined answer as route_one's walk).
        finish(lane, answers[lane.qi], RouteStatus::kDelivered, path_arena);
        continue;
      }
      if (target.kind == FlatServeKind::kTZDirect) {
        CROUTE_REQUIRE(!q.label.empty(), "malformed destination label");
        lane.lab_it = q.label.data();
        lane.lab_end = q.label.data() + q.label.size();
        lane.lab_pool = q.light_pool != nullptr
                            ? q.light_pool
                            : target.flat->label_light_pool();
        CROUTE_PREFETCH(lane.lab_it);
        lane.probe = FlatScheme::FindProbe{q.s, q.t};
        target.flat->dir_find_stage0(lane.probe);
      } else {
        lane.hs_u = q.s;
        lane.hs_v = q.t;
        lane.hs_w = q.s;  // ŵ_0(u) = u
        lane.hs_i = 0;
        lane.hs_done = false;
      }
      live_[live_count_++] = j;
    }

    if (target.kind == FlatServeKind::kTZDirect) {
      prepare_tz_direct(target);
    } else {
      prepare_tz_handshake(target);
    }
    walk_tz(target, answers, path_arena, max_hops);

    // Each query's latency is its amortized share of the generation's
    // wall time (the lanes ran interleaved; per-lane wall time would
    // charge every query for the whole group).
    const double share_us =
        std::chrono::duration<double>(clock::now() - gen_begin).count() *
        1e6 / m;
    for (std::uint32_t j = 0; j < m; ++j) {
      answers[base + j].latency_us = share_us;
    }

    // Sampled occupancy and search accounting, from the drained
    // generation's finished answers and search count — the stage loops
    // above never see it.
    if (stats_sample_every_ != 0 && ++gen_seq_ % stats_sample_every_ == 0) {
      std::uint32_t longest = 0;
      std::uint64_t useful = 0;
      for (std::uint32_t j = 0; j < m; ++j) {
        const std::uint32_t h = answers[base + j].hops;
        useful += h;
        if (h > longest) longest = h;
      }
      ++stats_.generations;
      stats_.lanes += m;
      stats_.lane_hops += useful;
      stats_.slots += static_cast<std::uint64_t>(longest) * m;
      stats_.searches += gen_searches_;
    }
  }
}

CROUTE_HOT void FlatBatchEngine::search(const FlatScheme& f,
                                        const std::uint32_t* ids,
                                        std::uint32_t count, bool directory) {
  if (directory) {
    for (std::uint32_t i = 0; i < count; ++i) {
      f.dir_find_stage1(lanes_[ids[i]].probe);
    }
  } else {
    for (std::uint32_t i = 0; i < count; ++i) {
      f.find_stage1(lanes_[ids[i]].probe);
    }
  }
  batch_.clear();
  for (std::uint32_t i = 0; i < count; ++i) {
    const FlatScheme::FindProbe& p = lanes_[ids[i]].probe;
    batch_.push_slice(p.off, p.len, p.w);
  }
  if (directory) {
    f.dir_find_stage2_batch(batch_);
  } else {
    f.find_stage2_batch(batch_);
    gen_searches_ += count;
  }
}

CROUTE_HOT void FlatBatchEngine::adopt_candidate(const FlatScheme& f,
                                                 Lane& lane) const {
  const FlatScheme::LabelEntryView& e = *lane.lab_it;
  lane.root = e.w;
  lane.dfs_in = e.dfs_in;
  lane.light = lane.lab_pool + e.light_off;
  lane.light_len = e.light_len;
  lane.bits = f.header_bits_for(e.light_len);
}

CROUTE_HOT bool FlatBatchEngine::next_candidate(const FlatScheme& f,
                                                Lane& lane) const {
  if (lane.lab_it == lane.lab_end) return false;
  if (f.top_rank(lane.lab_it->w) != FlatScheme::kNotFound) {
    adopt_candidate(f, lane);
    return false;
  }
  lane.probe = FlatScheme::FindProbe{lane.s, lane.lab_it->w};
  f.find_stage0(lane.probe);
  return true;
}

CROUTE_HOT bool FlatBatchEngine::stage_meeting(const FlatScheme& f,
                                               Lane& lane) const {
  const std::uint32_t rank = f.top_rank(lane.hs_w);
  if (rank != FlatScheme::kNotFound) {
    lane.pool_idx = f.top_index(lane.t, rank);
    f.prefetch_record(lane.pool_idx);
    return false;
  }
  lane.probe = FlatScheme::FindProbe{lane.hs_v, lane.hs_w};
  f.find_stage0(lane.probe);
  return true;
}

CROUTE_HOT void FlatBatchEngine::stage_hop(const FlatScheme& f,
                                           std::uint32_t id) {
  Lane& lane = lanes_[id];
  if (lane.rank != FlatScheme::kNotFound) {
    lane.pool_idx = f.top_index(lane.here, lane.rank);
    f.prefetch_record(lane.pool_idx);
    return;
  }
  lane.probe = FlatScheme::FindProbe{lane.here, lane.root};
  f.find_stage0(lane.probe);
  scan_[scan_count_++] = id;
}

CROUTE_HOT void FlatBatchEngine::prepare_tz_direct(
    const FlatBatchTarget& target) {
  const FlatScheme& f = *target.flat;
  // Rule 0, lockstep: every lane probes its source's cluster directory
  // (stage0 prefetches were issued at lane init).
  search(f, live_.data(), live_count_, true);
  for (std::uint32_t pos = 0; pos < live_count_; ++pos) {
    Lane& lane = lanes_[live_[pos]];
    lane.pool_idx = batch_.out[pos];
    if (lane.pool_idx != FlatScheme::kNotFound) {
      f.prefetch_dir_payload(lane.pool_idx);
    }
  }
  for (std::uint32_t pos = 0; pos < live_count_; ++pos) {
    Lane& lane = lanes_[live_[pos]];
    if (lane.pool_idx == FlatScheme::kNotFound) continue;
    const std::span<const Port> ports = f.dir_light_ports(lane.pool_idx);
    lane.root = lane.s;
    lane.dfs_in = f.dir_dfs(lane.pool_idx);
    lane.light = ports.data();
    lane.light_len = static_cast<std::uint32_t>(ports.size());
    lane.bits = f.header_bits_for(lane.light_len);
  }
  // Min-level label scan for the rule-0 misses, lockstep over entries:
  // each round probes every unresolved lane's current lower-level entry
  // (next_candidate issues stage0, search() runs stages 1 and 2 lane
  // after lane, so lane A's slice prefetch flies while lanes B…G
  // descend); the first entry whose pivot is in B(s) wins, and a
  // top-level entry always is.
  scan_count_ = 0;
  for (std::uint32_t pos = 0; pos < live_count_; ++pos) {
    Lane& lane = lanes_[live_[pos]];
    if (lane.root == kNoVertex && next_candidate(f, lane)) {
      scan_[scan_count_++] = live_[pos];
    }
  }
  while (scan_count_ > 0) {
    search(f, scan_.data(), scan_count_, false);
    scan_next_count_ = 0;
    for (std::uint32_t i = 0; i < scan_count_; ++i) {
      Lane& lane = lanes_[scan_[i]];
      if (batch_.out[i] != FlatScheme::kNotFound) {
        adopt_candidate(f, lane);
        continue;
      }
      ++lane.lab_it;  // the scan continues with the next entry
      if (next_candidate(f, lane)) {
        scan_next_[scan_next_count_++] = scan_[i];
      }
    }
    scan_.swap(scan_next_);
    scan_count_ = scan_next_count_;
  }
}

CROUTE_HOT void FlatBatchEngine::prepare_tz_handshake(
    const FlatBatchTarget& target) {
  const FlatScheme& f = *target.flat;
  // Bidirectional pivot walks, lockstep: each round runs one membership
  // probe per unresolved lane (as TZRouter::prepare_handshake, with flat
  // probes). A lane whose walk meets switches to the final find(t, w) —
  // unless the meeting probe already was one — and resolves to its
  // destination-side own label. A walk that reaches a top-level pivot
  // meets there without a probe (stage_meeting).
  scan_count_ = 0;
  for (std::uint32_t pos = 0; pos < live_count_; ++pos) {
    if (stage_meeting(f, lanes_[live_[pos]])) {
      scan_[scan_count_++] = live_[pos];
    }
  }
  while (scan_count_ > 0) {
    search(f, scan_.data(), scan_count_, false);
    scan_next_count_ = 0;
    for (std::uint32_t i = 0; i < scan_count_; ++i) {
      Lane& lane = lanes_[scan_[i]];
      const std::uint32_t idx = batch_.out[i];
      if (idx != FlatScheme::kNotFound) {
        if (lane.hs_done || lane.hs_v == lane.t) {
          lane.pool_idx = idx;
          f.prefetch_record(idx);
          continue;
        }
        lane.hs_done = true;  // meeting found; resolve t's own label next
        lane.probe = FlatScheme::FindProbe{lane.t, lane.hs_w};
        f.find_stage0(lane.probe);
        scan_next_[scan_next_count_++] = scan_[i];
        continue;
      }
      CROUTE_ASSERT(!lane.hs_done,
                    "handshake meeting tree misses the destination");
      ++lane.hs_i;
      CROUTE_ASSERT(lane.hs_i < f.k(),
                    "handshake walk exceeded the hierarchy height");
      std::swap(lane.hs_u, lane.hs_v);
      lane.hs_w =
          f.base().preprocessing().effective_pivot(lane.hs_i, lane.hs_u);
      if (stage_meeting(f, lane)) scan_next_[scan_next_count_++] = scan_[i];
    }
    scan_.swap(scan_next_);
    scan_count_ = scan_next_count_;
  }
  for (std::uint32_t pos = 0; pos < live_count_; ++pos) {
    Lane& lane = lanes_[live_[pos]];
    const std::span<const Port> ports = f.own_light_ports(lane.pool_idx);
    lane.root = lane.hs_w;
    lane.dfs_in = f.record(lane.pool_idx).dfs_in;
    lane.light = ports.data();
    lane.light_len = static_cast<std::uint32_t>(ports.size());
    lane.bits = f.header_bits_for(lane.light_len);
  }
}

CROUTE_HOT void FlatBatchEngine::walk_tz(const FlatBatchTarget& target,
                                         std::span<FlatBatchAnswer> answers,
                                         std::vector<VertexId>* path_arena,
                                         std::uint32_t max_hops) {
  const FlatScheme& f = *target.flat;
  const Graph& g = *target.graph;
  // Enter the walk: every lane decides first at its source. A direct
  // lane whose label named no pivot in B(s) has no tree to walk.
  scan_count_ = 0;
  for (std::uint32_t pos = 0; pos < live_count_;) {
    Lane& lane = lanes_[live_[pos]];
    if (lane.root == kNoVertex) {
      finish(lane, answers[lane.qi], RouteStatus::kBadPort, path_arena);
      retire(pos);
      continue;
    }
    lane.rank = f.top_rank(lane.root);
    stage_hop(f, live_[pos]);
    g.prefetch_offsets(lane.here);
    ++pos;
  }
  while (live_count_ > 0) {
    // A + B, for the lower-level lanes only (stage_hop listed them in
    // scan_): offsets → key prefetch, then one SIMD kernel call, then
    // the record prefetch. Top-level lanes computed their record index
    // and prefetched it at the previous advance.
    if (scan_count_ > 0) {
      search(f, scan_.data(), scan_count_, false);
      for (std::uint32_t i = 0; i < scan_count_; ++i) {
        const std::uint32_t idx = batch_.out[i];
        lanes_[scan_[i]].pool_idx = idx;
        if (idx != FlatScheme::kNotFound) f.prefetch_record(idx);
      }
    }
    // C: the O(1) tree decision (FlatNodeRecord::decide, as
    // FlatRouter::step); completed lanes retire, survivors prefetch their
    // arc. A lane whose label walked it out of its cluster (no entry
    // here), or gave no valid port, finishes with kBadPort.
    for (std::uint32_t pos = 0; pos < live_count_;) {
      Lane& lane = lanes_[live_[pos]];
      FlatBatchAnswer& a = answers[lane.qi];
      if (lane.pool_idx == FlatScheme::kNotFound) {
        finish(lane, a, RouteStatus::kBadPort, path_arena);
        retire(pos);
        continue;
      }
      const TreeDecision d = f.record(lane.pool_idx)
                                 .decide(lane.dfs_in, lane.light,
                                         lane.light_len);
      if (d.deliver) {
        finish(lane, a,
               lane.here == lane.t ? RouteStatus::kDelivered
                                   : RouteStatus::kWrongDeliver,
               path_arena);
        retire(pos);
        continue;
      }
      if (d.port >= g.degree(lane.here)) {
        finish(lane, a, RouteStatus::kBadPort, path_arena);
        retire(pos);
        continue;
      }
      lane.port = d.port;
      g.prefetch_arc(lane.here, lane.port);
      ++pos;
    }
    // D: traverse the arc, stage the next vertex's record read.
    scan_count_ = 0;
    for (std::uint32_t pos = 0; pos < live_count_;) {
      Lane& lane = lanes_[live_[pos]];
      const Arc& arc = g.arc(lane.here, lane.port);
      lane.length += arc.weight;
      ++lane.hops;
      lane.here = arc.head;
      path_append(lane.path, lane.here);
      if (lane.hops >= max_hops) {
        finish(lane, answers[lane.qi], RouteStatus::kHopLimit, path_arena);
        retire(pos);
        continue;
      }
      stage_hop(f, live_[pos]);
      g.prefetch_offsets(lane.here);
      ++pos;
    }
  }
}

}  // namespace croute
