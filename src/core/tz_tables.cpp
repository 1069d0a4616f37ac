#include "core/tz_tables.hpp"

#include <algorithm>

namespace croute {

VertexTable::VertexTable(std::vector<TableEntry> entries,
                         std::vector<Port> light_pool,
                         const TreeRoutingScheme::Codec& codec,
                         std::uint32_t vertex_id_bits)
    : entries_(std::move(entries)), light_pool_(std::move(light_pool)) {
  for (std::size_t i = 1; i < entries_.size(); ++i) {
    CROUTE_REQUIRE(entries_[i - 1].w < entries_[i].w,
                   "vertex table entries must have strictly increasing "
                   "tree roots");
  }
  // Exact serialized size: key + level + record + own tree label.
  // Accounted arithmetically (record_bits/label_bits mirror the
  // encoders bit-for-bit) — finalization is on the rebuild path and
  // actually writing the bits was a measurable slice of it.
  for (const TableEntry& e : entries_) {
    bit_size_ += vertex_id_bits + gamma_bits(std::uint64_t{e.level} + 1) +
                 TreeRoutingScheme::record_bits(e.record, codec) +
                 TreeRoutingScheme::label_bits(e.light_len, codec);
  }
}

const TableEntry* VertexTable::find(VertexId w) const noexcept {
  if (hash_) {
    const auto idx = hash_->find(w);
    if (!idx) return nullptr;
    return &entries_[*idx];
  }
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), w,
      [](const TableEntry& e, VertexId key) { return e.w < key; });
  if (it == entries_.end() || it->w != w) return nullptr;
  return &*it;
}

TreeLabel VertexTable::own_label(const TableEntry& e) const {
  CROUTE_DCHECK(std::uint64_t{e.light_off} + e.light_len <= light_pool_.size(),
                "light pool slice out of range");
  TreeLabel l;
  l.dfs_in = e.record.dfs_in;
  l.light_ports.assign(light_pool_.begin() + e.light_off,
                       light_pool_.begin() + e.light_off + e.light_len);
  return l;
}

ClusterDirectory::ClusterDirectory(const LocalTree& tree,
                                   const TreeRoutingScheme& trs,
                                   const TreeRoutingScheme::Codec& codec,
                                   std::uint32_t vertex_id_bits) {
  const std::uint32_t n = tree.size();
  // Sort member indices by global vertex id for binary-searchable keys.
  std::vector<std::uint32_t> order(n);
  for (std::uint32_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return tree.global[a] < tree.global[b];
            });
  ts_.resize(n);
  dfs_.resize(n);
  light_off_.resize(std::size_t{n} + 1, 0);
  std::size_t pool_size = 0;
  for (std::uint32_t i = 0; i < n; ++i) pool_size += trs.light_ports(i).size();
  pool_.reserve(pool_size);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t local = order[i];
    const std::span<const Port> ports = trs.light_ports(local);
    ts_[i] = tree.global[local];
    dfs_[i] = trs.record(local).dfs_in;
    light_off_[i] = static_cast<std::uint32_t>(pool_.size());
    pool_.insert(pool_.end(), ports.begin(), ports.end());
    bit_size_ +=
        vertex_id_bits + TreeRoutingScheme::label_bits(ports.size(), codec);
  }
  light_off_[n] = static_cast<std::uint32_t>(pool_.size());
}

std::uint32_t ClusterDirectory::find_index(VertexId t) const noexcept {
  const auto it = std::lower_bound(ts_.begin(), ts_.end(), t);
  if (it == ts_.end() || *it != t) return kNoIndex;
  return static_cast<std::uint32_t>(it - ts_.begin());
}

TreeLabel ClusterDirectory::label_at(std::uint32_t index) const {
  CROUTE_DCHECK(index < ts_.size(), "directory index out of range");
  TreeLabel l;
  l.dfs_in = dfs_[index];
  l.light_ports.assign(pool_.begin() + light_off_[index],
                       pool_.begin() + light_off_[index + 1]);
  return l;
}

std::optional<TreeLabel> ClusterDirectory::find(VertexId t) const {
  const std::uint32_t i = find_index(t);
  if (i == kNoIndex) return std::nullopt;
  return label_at(i);
}

void VertexTable::build_hash_index(Rng& rng) {
  std::vector<std::pair<std::uint64_t, std::uint32_t>> kv;
  kv.reserve(entries_.size());
  for (std::uint32_t i = 0; i < entries_.size(); ++i) {
    kv.emplace_back(entries_[i].w, i);
  }
  hash_ = PerfectHashMap::build(kv, rng);
}

}  // namespace croute
