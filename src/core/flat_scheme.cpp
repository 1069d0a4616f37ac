#include "core/flat_scheme.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <type_traits>

#include "util/parallel.hpp"

namespace croute {

namespace {

using flat_detail::eytzinger_find;

/// Fills slot[sorted_pos] = eytzinger_pos for a slice of \p len keys.
/// Standard in-order construction over the implicit heap (1-based \p k).
std::uint32_t fill_eytzinger(std::vector<std::uint32_t>& slot,
                             std::uint32_t len, std::uint32_t k,
                             std::uint32_t next) {
  if (k <= len) {
    next = fill_eytzinger(slot, len, 2 * k, next);
    slot[next++] = k - 1;
    next = fill_eytzinger(slot, len, 2 * k + 1, next);
  }
  return next;
}

/// Runs fn(v, slot_scratch) for every vertex, sharded over \p pool when it
/// has more than one worker. Callers write only to slots derived from v
/// (all offsets are prefix-summed up front), so the result is
/// byte-identical at every pool size — including the serial fallback.
void for_vertices(
    ThreadPool* pool, VertexId n,
    const std::function<void(VertexId, std::vector<std::uint32_t>&)>& fn) {
  if (pool != nullptr && pool->size() > 1 && n > 1) {
    std::vector<std::vector<std::uint32_t>> slots(pool->size());
    pool->for_each(
        n,
        [&](std::uint64_t v, unsigned worker) {
          fn(static_cast<VertexId>(v), slots[worker]);
        },
        64);
  } else {
    std::vector<std::uint32_t> slot;
    for (VertexId v = 0; v < n; ++v) fn(v, slot);
  }
}

double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

CROUTE_DETERMINISTIC FlatScheme::FlatScheme(const TZScheme& scheme,
                                            ThreadPool* pool)
    : base_(&scheme) {
  using clock = std::chrono::steady_clock;
  stats_.threads = pool != nullptr ? std::max(1u, pool->size()) : 1;

  const auto t0 = clock::now();
  std::uint32_t max_len = compile_tables(pool);  // longest own label
  const auto t1 = clock::now();
  compile_directories(pool);
  const auto t2 = clock::now();
  compile_labels(pool);
  const auto t3 = clock::now();

  // Precompute wire sizes: tree root id + dfs + gamma-coded light count +
  // the light ports themselves (the exact layout TZRouter::header_bits
  // serializes through a BitWriter).
  const std::uint32_t id_bits = bits_for_universe(graph().num_vertices());
  const TreeRoutingScheme::Codec& codec = base_->tree_codec();
  header_fixed_bits_ = std::uint64_t{id_bits} + codec.dfs_bits;
  port_bits_ = codec.port_bits;
  for (const std::uint32_t len : dir_light_len_) {
    max_len = std::max(max_len, len);
  }
  for (const LabelEntryView& e : lab_entries_) {
    max_len = std::max(max_len, e.light_len);
  }
  bits_by_len_.resize(std::size_t{max_len} + 1);
  for (std::uint32_t len = 0; len <= max_len; ++len) {
    bits_by_len_[len] = id_bits + codec.dfs_bits +
                        gamma_bits(std::uint64_t{len} + 1) +
                        std::uint64_t{len} * codec.port_bits;
  }

  stats_.tables_ms = ms_between(t0, t1);
  stats_.directories_ms = ms_between(t1, t2);
  stats_.labels_ms = ms_between(t2, t3);
  stats_.pool_bytes = pool_bytes();
  stats_.total_ms = ms_between(t0, clock::now());
}

std::uint32_t FlatScheme::compile_tables(ThreadPool* pool) {
  const VertexId n = graph().num_vertices();
  const std::vector<VertexId>& top =
      base_->preprocessing().hierarchy().levels[k() - 1];
  top_count_ = static_cast<std::uint32_t>(top.size());
  top_rank_.assign(n, kNotFound);
  for (std::uint32_t r = 0; r < top_count_; ++r) top_rank_[top[r]] = r;
  // Sizing pass (serial, O(total entries), allocation-free): CSR offsets
  // of the lower-level slices plus each vertex's base into the shared
  // light-port pool — the fill pass can then write disjoint slices in
  // parallel. Each table lists its entries in ascending w, as A_{k−1}
  // lists the top level, so one merge walk checks that every bunch holds
  // exactly A_{k−1} and splits the top-level entries (ranks 0, 1, …, T−1
  // in order) from the rest.
  low_off_.assign(std::size_t{n} + 1, 0);
  std::vector<std::uint32_t> light_base(std::size_t{n} + 1, 0);
  std::uint64_t running = 0;       // 64-bit: detect overflow before it wraps
  std::uint64_t light_running = 0;
  std::uint32_t max_light_len = 0;
  for (VertexId v = 0; v < n; ++v) {
    std::uint32_t rank = 0;  // next top-level entry expected
    for (const TableEntry& e : base_->table(v).entries()) {
      if (rank < top_count_ && e.w == top[rank]) {
        ++rank;
      } else {
        CROUTE_REQUIRE(rank == top_count_ || e.w < top[rank],
                       "a bunch misses part of the top level A_{k-1}");
        ++running;
      }
      light_running += e.light_len;
      max_light_len = std::max(max_light_len, e.light_len);
    }
    CROUTE_REQUIRE(rank == top_count_,
                   "a bunch misses part of the top level A_{k-1}");
    low_off_[v + 1] = static_cast<std::uint32_t>(running);
    CROUTE_REQUIRE(light_running < kNotFound,
                   "light-port pool exceeds the index space");
    light_base[v + 1] = static_cast<std::uint32_t>(light_running);
  }
  const std::uint64_t top_total = std::uint64_t{n} * top_count_;
  CROUTE_REQUIRE(top_total + running < kNotFound,
                 "table pool exceeds the index space");
  low_base_ = static_cast<std::uint32_t>(top_total);
  low_key_.resize(running);
  tbl_record_.resize(top_total + running);
  tbl_light_pool_.resize(light_base[n]);

  for_vertices(pool, n, [&](VertexId v, std::vector<std::uint32_t>& slot) {
    const VertexTable& table = base_->table(v);
    const std::uint32_t low_begin = low_off_[v];
    const std::uint32_t low_len = low_off_[v + 1] - low_begin;
    slot.resize(low_len);
    fill_eytzinger(slot, low_len, 1, 0);
    std::uint32_t rank = 0;      // next top-level entry (the same merge)
    std::uint32_t low_next = 0;  // sorted position among the lower ones
    std::uint32_t light_off = light_base[v];
    for (const TableEntry& e : table.entries()) {  // sorted by w
      std::uint32_t idx = 0;
      if (rank < top_count_ && e.w == top[rank]) {
        idx = top_index(v, rank++);  // v's run of T records, rank order
      } else {
        const std::uint32_t key = low_begin + slot[low_next++];
        low_key_[key] = e.w;
        idx = low_base_ + key;
      }
      const TreeNodeRecord& rec = e.record;
      CROUTE_REQUIRE(
          rec.heavy_port == kNoPort || rec.heavy_in == rec.dfs_in + 1,
          "heavy child is not numbered first");
      const std::span<const Port> ports = table.own_light_ports(e);
      tbl_record_[idx] = FlatNodeRecord{
          rec.dfs_in,      rec.dfs_out,     rec.heavy_out,
          rec.heavy_port,  rec.parent_port, rec.light_depth,
          light_off,       static_cast<std::uint32_t>(ports.size())};
      std::copy(ports.begin(), ports.end(),
                tbl_light_pool_.begin() + light_off);
      light_off += static_cast<std::uint32_t>(ports.size());
    }
  });
  return max_light_len;
}

void FlatScheme::compile_directories(ThreadPool* pool) {
  const VertexId n = graph().num_vertices();
  dir_off_.assign(std::size_t{n} + 1, 0);
  std::vector<std::uint32_t> light_base(std::size_t{n} + 1, 0);
  std::uint64_t running = 0;  // 64-bit: detect overflow before it wraps
  std::uint64_t light_running = 0;
  for (VertexId v = 0; v < n; ++v) {
    const ClusterDirectory& dir = base_->directory(v);
    running += dir.size();
    CROUTE_REQUIRE(running < kNotFound,
                   "directory pool exceeds the index space");
    dir_off_[v + 1] = static_cast<std::uint32_t>(running);
    light_running += dir.light_pool_size();
    CROUTE_REQUIRE(light_running < kNotFound,
                   "light-port pool exceeds the index space");
    light_base[v + 1] = static_cast<std::uint32_t>(light_running);
  }
  const std::uint32_t total = dir_off_[n];
  dir_key_.resize(total);
  dir_dfs_.resize(total);
  dir_light_off_.resize(total);
  dir_light_len_.resize(total);
  dir_light_pool_.resize(light_base[n]);

  for_vertices(pool, n, [&](VertexId v, std::vector<std::uint32_t>& slot) {
    const ClusterDirectory& dir = base_->directory(v);
    const std::span<const VertexId> members = dir.members();  // sorted
    const auto len = static_cast<std::uint32_t>(members.size());
    slot.resize(len);
    fill_eytzinger(slot, len, 1, 0);
    std::uint32_t light_off = light_base[v];
    for (std::uint32_t src = 0; src < len; ++src) {
      const std::uint32_t idx = dir_off_[v] + slot[src];
      dir_key_[idx] = members[src];
      dir_dfs_[idx] = dir.dfs_at(src);
      const std::span<const Port> ports = dir.light_ports_at(src);
      dir_light_off_[idx] = light_off;
      dir_light_len_[idx] = static_cast<std::uint32_t>(ports.size());
      std::copy(ports.begin(), ports.end(),
                dir_light_pool_.begin() + light_off);
      light_off += static_cast<std::uint32_t>(ports.size());
    }
  });
}

void FlatScheme::compile_labels(ThreadPool* pool) {
  const VertexId n = graph().num_vertices();
  lab_off_.assign(std::size_t{n} + 1, 0);
  std::vector<std::uint32_t> light_base(std::size_t{n} + 1, 0);
  std::uint64_t running = 0;  // 64-bit: detect overflow before it wraps
  std::uint64_t light_running = 0;
  for (VertexId t = 0; t < n; ++t) {
    const RoutingLabel& label = base_->label(t);
    running += label.entries.size();
    CROUTE_REQUIRE(running < kNotFound, "label pool exceeds the index space");
    lab_off_[t + 1] = static_cast<std::uint32_t>(running);
    for (const LabelEntry& e : label.entries) {
      light_running += e.tree.light_ports.size();
    }
    CROUTE_REQUIRE(light_running < kNotFound,
                   "light-port pool exceeds the index space");
    light_base[t + 1] = static_cast<std::uint32_t>(light_running);
  }
  lab_entries_.resize(lab_off_[n]);
  lab_light_pool_.resize(light_base[n]);
  for_vertices(pool, n, [&](VertexId t, std::vector<std::uint32_t>&) {
    const RoutingLabel& label = base_->label(t);
    std::uint32_t light_off = light_base[t];
    for (std::size_t j = 0; j < label.entries.size(); ++j) {
      const LabelEntry& e = label.entries[j];
      LabelEntryView& out = lab_entries_[lab_off_[t] + j];
      out.w = e.w;
      out.dfs_in = e.tree.dfs_in;
      out.light_off = light_off;
      out.light_len = static_cast<std::uint32_t>(e.tree.light_ports.size());
      std::copy(e.tree.light_ports.begin(), e.tree.light_ports.end(),
                lab_light_pool_.begin() + light_off);
      light_off += out.light_len;
    }
  });
}

CROUTE_HOT std::uint32_t FlatScheme::find(VertexId v,
                                          VertexId w) const noexcept {
  const std::uint32_t rank = top_rank_[w];
  if (rank != kNotFound) return top_index(v, rank);
  const std::uint32_t off = low_off_[v];
  const std::uint32_t len = low_off_[v + 1] - off;
  const std::uint32_t pos = eytzinger_find(low_key_.data() + off, len, w);
  return pos == len ? kNotFound : low_base_ + off + pos;
}

CROUTE_HOT std::uint32_t FlatScheme::dir_find(VertexId v,
                                              VertexId t) const noexcept {
  const std::uint32_t off = dir_off_[v];
  const std::uint32_t len = dir_off_[v + 1] - off;
  const std::uint32_t pos = eytzinger_find(dir_key_.data() + off, len, t);
  return pos == len ? kNotFound : off + pos;
}

std::uint64_t FlatScheme::pool_bytes() const noexcept {
  auto bytes = [](const auto& vec) {
    return vec.size() * sizeof(typename std::decay_t<decltype(vec)>::value_type);
  };
  return bytes(top_rank_) + bytes(low_off_) + bytes(low_key_) +
         bytes(tbl_record_) + bytes(tbl_light_pool_) + bytes(dir_off_) +
         bytes(dir_key_) + bytes(dir_dfs_) + bytes(dir_light_off_) +
         bytes(dir_light_len_) + bytes(dir_light_pool_) + bytes(lab_off_) +
         bytes(lab_entries_) + bytes(lab_light_pool_) + bytes(bits_by_len_);
}

CROUTE_HOT FlatHeader FlatRouter::prepare(VertexId s, VertexId t) const {
  const FlatScheme& f = *flat_;
  // Rule 0: t ∈ C(s) — one directory probe (index + payload views).
  const std::uint32_t di = f.dir_find(s, t);
  if (di != FlatScheme::kNotFound) {
    const std::span<const Port> ports = f.dir_light_ports(di);
    return FlatHeader{t,
                      s,
                      f.dir_dfs(di),
                      ports.data(),
                      static_cast<std::uint32_t>(ports.size()),
                      f.header_bits_for(
                          static_cast<std::uint32_t>(ports.size()))};
  }
  // Min-level rule: the first label entry whose pivot is in B(s).
  const FlatScheme::LabelEntryView* chosen = nullptr;
  for (const FlatScheme::LabelEntryView& e : f.label(t)) {
    if (f.find(s, e.w) != FlatScheme::kNotFound) {
      chosen = &e;
      break;
    }
  }
  CROUTE_ASSERT(chosen != nullptr,
                "no candidate pivot found: top-level landmark missing from "
                "the source bunch");
  return FlatHeader{t,
                    chosen->w,
                    chosen->dfs_in,
                    f.label_light_pool() + chosen->light_off,
                    chosen->light_len,
                    f.header_bits_for(chosen->light_len)};
}

CROUTE_HOT FlatHeader FlatRouter::prepare_handshake(VertexId s,
                                                    VertexId t) const {
  const FlatScheme& f = *flat_;
  const TZPreprocessing& pre = f.base().preprocessing();
  const std::uint32_t k = f.k();
  // Bidirectional pivot walk, as TZRouter::prepare_handshake, with flat
  // membership probes.
  VertexId u = s, v = t;
  VertexId w = u;  // ŵ_0(u) = u
  std::uint32_t i = 0;
  while (f.find(v, w) == FlatScheme::kNotFound) {
    ++i;
    CROUTE_ASSERT(i < k, "handshake walk exceeded the hierarchy height");
    std::swap(u, v);
    w = pre.effective_pivot(i, u);
  }
  const std::uint32_t idx = f.find(t, w);
  CROUTE_ASSERT(idx != FlatScheme::kNotFound,
                "handshake meeting tree misses the destination");
  const std::span<const Port> ports = f.own_light_ports(idx);
  return FlatHeader{t,
                    w,
                    f.record(idx).dfs_in,
                    ports.data(),
                    static_cast<std::uint32_t>(ports.size()),
                    f.header_bits_for(static_cast<std::uint32_t>(ports.size()))};
}

CROUTE_HOT TreeDecision FlatRouter::step(VertexId v,
                                         const FlatHeader& header) const {
  const std::uint32_t idx = flat_->find(v, header.tree_root);
  CROUTE_ASSERT(idx != FlatScheme::kNotFound,
                "packet left the routing tree: vertex has no entry for it");
  const TreeDecision d = flat_->record(idx).decide(
      header.dfs_in, header.light, header.light_len);
  CROUTE_ASSERT(d.deliver || d.port != kNoPort,
                "label cannot be routed here: its destination lies outside "
                "the tree at the root, or it misses the light port for "
                "this branch point");
  return d;
}

VertexId decode_wire_label(const LabelCodec& codec, VertexId n, BitReader& r,
                           std::vector<FlatScheme::LabelEntryView>& entries,
                           std::vector<Port>& ports) {
  // Mirrors LabelCodec::encode field-for-field (tz_labels.cpp); any drift
  // between the two is caught by the round-trip tests. Every size read
  // from the stream drives a loop that consumes at least one bit per
  // claimed element, so the stream's bit budget bounds the append.
  const auto t = static_cast<VertexId>(r.read_bits(codec.id_bits()));
  CROUTE_REQUIRE(t < n, "label target out of range");
  const std::uint64_t count = r.read_gamma();
  CROUTE_REQUIRE(count >= 1, "empty routing label");
  const std::uint32_t dfs_bits = codec.tree_codec().dfs_bits;
  const std::uint32_t port_bits = codec.tree_codec().port_bits;
  for (std::uint64_t i = 0; i < count; ++i) {
    FlatScheme::LabelEntryView e;
    (void)r.read_gamma();  // level: the view keeps label order instead
    e.w = static_cast<VertexId>(r.read_bits(codec.id_bits()));
    CROUTE_REQUIRE(e.w < n, "label pivot out of range");
    if (codec.carries_distances()) (void)r.read_bits(64);  // d(w, t)
    e.dfs_in = static_cast<std::uint32_t>(r.read_bits(dfs_bits));
    const std::uint64_t nports = r.read_gamma() - 1;
    e.light_off = static_cast<std::uint32_t>(ports.size());
    for (std::uint64_t p = 0; p < nports; ++p) {
      ports.push_back(static_cast<Port>(r.read_bits(port_bits)));
    }
    e.light_len = static_cast<std::uint32_t>(ports.size()) - e.light_off;
    entries.push_back(e);
  }
  return t;
}

}  // namespace croute
