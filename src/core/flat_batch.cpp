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
        lane.probe = FlatScheme::FindProbe{lane.hs_v, lane.hs_w};
        target.flat->find_stage0(lane.probe);
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

    // Sampled occupancy accounting, from the drained generation's
    // finished answers — the stage loops above never see it.
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
    }
  }
}

CROUTE_HOT void FlatBatchEngine::prepare_tz_direct(
    const FlatBatchTarget& target) {
  const FlatScheme* f = target.flat;
  // Rule 0, lockstep: every lane probes its source's cluster directory
  // (stage0 prefetches were issued at lane init); the compacted probes
  // resolve in one SIMD kernel call.
  for (std::uint32_t pos = 0; pos < live_count_; ++pos) {
    f->dir_find_stage1(lanes_[live_[pos]].probe);
  }
  batch_.clear();
  for (std::uint32_t pos = 0; pos < live_count_; ++pos) {
    const FlatScheme::FindProbe& p = lanes_[live_[pos]].probe;
    batch_.push_slice(p.off, p.len, p.w);
  }
  f->dir_find_stage2_batch(batch_);
  for (std::uint32_t pos = 0; pos < live_count_; ++pos) {
    Lane& lane = lanes_[live_[pos]];
    lane.pool_idx = batch_.out[pos];
    if (lane.pool_idx != FlatScheme::kNotFound) {
      f->prefetch_dir_payload(lane.pool_idx);
    }
  }
  for (std::uint32_t pos = 0; pos < live_count_; ++pos) {
    Lane& lane = lanes_[live_[pos]];
    if (lane.pool_idx == FlatScheme::kNotFound) continue;
    const std::span<const Port> ports = f->dir_light_ports(lane.pool_idx);
    lane.root = lane.s;
    lane.dfs_in = f->dir_dfs(lane.pool_idx);
    lane.light = ports.data();
    lane.light_len = static_cast<std::uint32_t>(ports.size());
    lane.bits = f->header_bits_for(lane.light_len);
  }
  // Min-level label scan for the rule-0 misses, lockstep over entries:
  // each round probes every unresolved lane's current entry (three loops
  // = the three find stages, so lane A's slice prefetch flies while lanes
  // B…G descend); the first entry whose pivot is in B(s) wins.
  scan_count_ = 0;
  for (std::uint32_t pos = 0; pos < live_count_; ++pos) {
    Lane& lane = lanes_[live_[pos]];
    if (lane.root != kNoVertex) continue;  // rule-0 hit
    lane.probe = FlatScheme::FindProbe{lane.s, lane.lab_it->w};
    f->find_stage0(lane.probe);
    scan_[scan_count_++] = live_[pos];
  }
  while (scan_count_ > 0) {
    for (std::uint32_t i = 0; i < scan_count_; ++i) {
      f->find_stage1(lanes_[scan_[i]].probe);
    }
    batch_.clear();
    for (std::uint32_t i = 0; i < scan_count_; ++i) {
      const FlatScheme::FindProbe& p = lanes_[scan_[i]].probe;
      batch_.push_slice(p.off, p.len, p.w);
    }
    f->find_stage2_batch(batch_);
    scan_next_count_ = 0;
    for (std::uint32_t i = 0; i < scan_count_; ++i) {
      Lane& lane = lanes_[scan_[i]];
      if (batch_.out[i] == FlatScheme::kNotFound) {
        // The scan continues with the next entry.
        ++lane.lab_it;
        CROUTE_ASSERT(lane.lab_it != lane.lab_end,
                      "no candidate pivot found: top-level landmark "
                      "missing from the source bunch");
        lane.probe = FlatScheme::FindProbe{lane.s, lane.lab_it->w};
        f->find_stage0(lane.probe);
        scan_next_[scan_next_count_++] = scan_[i];
        continue;
      }
      const FlatScheme::LabelEntryView* chosen = lane.lab_it;
      lane.root = chosen->w;
      lane.dfs_in = chosen->dfs_in;
      lane.light = lane.lab_pool + chosen->light_off;
      lane.light_len = chosen->light_len;
      lane.bits = f->header_bits_for(chosen->light_len);
    }
    scan_.swap(scan_next_);
    scan_count_ = scan_next_count_;
  }
  // Enter the walk: every lane decides first at its source.
  for (std::uint32_t pos = 0; pos < live_count_; ++pos) {
    Lane& lane = lanes_[live_[pos]];
    lane.probe = FlatScheme::FindProbe{lane.here, lane.root};
    f->find_stage0(lane.probe);
    target.graph->prefetch_offsets(lane.here);
  }
}

CROUTE_HOT void FlatBatchEngine::prepare_tz_handshake(
    const FlatBatchTarget& target) {
  const FlatScheme* f = target.flat;
  // Bidirectional pivot walks, lockstep: each round runs one membership
  // probe per unresolved lane (as TZRouter::prepare_handshake, with flat
  // probes). A lane whose walk meets switches to the final find(t, w) —
  // unless the meeting probe already was one — and resolves to its
  // destination-side own label.
  for (std::uint32_t pos = 0; pos < live_count_; ++pos) {
    scan_[pos] = live_[pos];
  }
  scan_count_ = live_count_;
  while (scan_count_ > 0) {
    for (std::uint32_t i = 0; i < scan_count_; ++i) {
      f->find_stage1(lanes_[scan_[i]].probe);
    }
    batch_.clear();
    for (std::uint32_t i = 0; i < scan_count_; ++i) {
      const FlatScheme::FindProbe& p = lanes_[scan_[i]].probe;
      batch_.push_slice(p.off, p.len, p.w);
    }
    f->find_stage2_batch(batch_);
    scan_next_count_ = 0;
    for (std::uint32_t i = 0; i < scan_count_; ++i) {
      Lane& lane = lanes_[scan_[i]];
      const std::uint32_t idx = batch_.out[i];
      if (idx != FlatScheme::kNotFound) {
        if (lane.hs_done || lane.hs_v == lane.t) {
          lane.pool_idx = idx;
          f->prefetch_own_label(idx);
          continue;
        }
        lane.hs_done = true;  // meeting found; resolve t's own label next
        lane.probe = FlatScheme::FindProbe{lane.t, lane.hs_w};
        f->find_stage0(lane.probe);
        scan_next_[scan_next_count_++] = scan_[i];
        continue;
      }
      CROUTE_ASSERT(!lane.hs_done,
                    "handshake meeting tree misses the destination");
      ++lane.hs_i;
      CROUTE_ASSERT(lane.hs_i < f->k(),
                    "handshake walk exceeded the hierarchy height");
      std::swap(lane.hs_u, lane.hs_v);
      lane.hs_w =
          f->base().preprocessing().effective_pivot(lane.hs_i, lane.hs_u);
      lane.probe = FlatScheme::FindProbe{lane.hs_v, lane.hs_w};
      f->find_stage0(lane.probe);
      scan_next_[scan_next_count_++] = scan_[i];
    }
    scan_.swap(scan_next_);
    scan_count_ = scan_next_count_;
  }
  for (std::uint32_t pos = 0; pos < live_count_; ++pos) {
    Lane& lane = lanes_[live_[pos]];
    const std::span<const Port> ports = f->own_light_ports(lane.pool_idx);
    lane.root = lane.hs_w;
    lane.dfs_in = f->own_dfs(lane.pool_idx);
    lane.light = ports.data();
    lane.light_len = static_cast<std::uint32_t>(ports.size());
    lane.bits = f->header_bits_for(lane.light_len);
    lane.probe = FlatScheme::FindProbe{lane.here, lane.root};
    f->find_stage0(lane.probe);
    target.graph->prefetch_offsets(lane.here);
  }
}

CROUTE_HOT void FlatBatchEngine::walk_tz(const FlatBatchTarget& target,
                                         std::span<FlatBatchAnswer> answers,
                                         std::vector<VertexId>* path_arena,
                                         std::uint32_t max_hops) {
  const FlatScheme* f = target.flat;
  const Graph& g = *target.graph;
  while (live_count_ > 0) {
    // A: per-vertex index metadata → key memory prefetch.
    for (std::uint32_t pos = 0; pos < live_count_; ++pos) {
      f->find_stage1(lanes_[live_[pos]].probe);
    }
    // B: resolve every lane's probe in one SIMD kernel call, prefetch
    // the node records.
    batch_.clear();
    for (std::uint32_t pos = 0; pos < live_count_; ++pos) {
      const FlatScheme::FindProbe& p = lanes_[live_[pos]].probe;
      batch_.push_slice(p.off, p.len, p.w);
    }
    f->find_stage2_batch(batch_);
    for (std::uint32_t pos = 0; pos < live_count_; ++pos) {
      Lane& lane = lanes_[live_[pos]];
      const std::uint32_t idx = batch_.out[pos];
      CROUTE_ASSERT(idx != FlatScheme::kNotFound,
                    "packet left the routing tree: vertex has no entry "
                    "for it");
      lane.pool_idx = idx;
      f->prefetch_record(idx);
    }
    // C: the O(1) tree decision (same comparisons as FlatRouter::step, in
    // the same order); completed lanes retire, survivors prefetch their
    // arc.
    for (std::uint32_t pos = 0; pos < live_count_;) {
      Lane& lane = lanes_[live_[pos]];
      const TreeNodeRecord& here = f->record(lane.pool_idx);
      FlatBatchAnswer& a = answers[lane.qi];
      if (lane.dfs_in == here.dfs_in) {
        finish(lane, a,
               lane.here == lane.t ? RouteStatus::kDelivered
                                   : RouteStatus::kWrongDeliver,
               path_arena);
        retire(pos);
        continue;
      }
      if (lane.dfs_in < here.dfs_in || lane.dfs_in >= here.dfs_out) {
        CROUTE_ASSERT(here.parent_port != kNoPort,
                      "destination outside the tree reached the root");
        lane.port = here.parent_port;
      } else if (lane.dfs_in >= here.heavy_in &&
                 lane.dfs_in < here.heavy_out && here.heavy_port != kNoPort) {
        lane.port = here.heavy_port;
      } else {
        CROUTE_ASSERT(here.light_depth < lane.light_len,
                      "label misses the light port for this branch point");
        lane.port = lane.light[here.light_depth];
      }
      if (lane.port >= g.degree(lane.here)) {
        finish(lane, a, RouteStatus::kBadPort, path_arena);
        retire(pos);
        continue;
      }
      g.prefetch_arc(lane.here, lane.port);
      ++pos;
    }
    // D: traverse the arc, prefetch the next vertex's index metadata.
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
      lane.probe = FlatScheme::FindProbe{lane.here, lane.root};
      f->find_stage0(lane.probe);
      g.prefetch_offsets(lane.here);
      ++pos;
    }
  }
}

}  // namespace croute
