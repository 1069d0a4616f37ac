#include "tree/tree_router.hpp"

namespace croute {

TreeRoutingScheme::TreeRoutingScheme(const LocalTree& local) {
  const Tree tree = Tree::from_local_tree(local);
  const HeavyPathDecomposition hpd(tree);
  const std::uint32_t n = tree.size();
  records_.resize(n);
  light_off_.resize(n);

  std::uint64_t pool_size = 0;
  for (std::uint32_t v = 0; v < n; ++v) {
    TreeNodeRecord& r = records_[v];
    r.dfs_in = hpd.dfs_in(v);
    r.dfs_out = hpd.dfs_out(v);
    r.parent_port = local.parent_port[v];  // kNoPort at the root
    r.light_depth = hpd.light_depth(v);
    const std::uint32_t h = hpd.heavy_child(v);
    if (h != kNoLocal) {
      r.heavy_in = hpd.dfs_in(h);
      r.heavy_out = hpd.dfs_out(h);
      r.heavy_port = local.down_port[h];
    } else {
      r.heavy_in = r.heavy_out = 0;  // empty interval
      r.heavy_port = kNoPort;
    }
    if (hpd.is_light(v)) pool_size += r.light_depth;
  }
  CROUTE_REQUIRE(pool_size <= ~std::uint32_t{0},
                 "light-port pool exceeds its 32-bit offsets");

  // Light ports in heavy-first preorder (parents before children). The
  // pool is reserved to its final size, so reading a parent's slice while
  // appending never reallocates under the reader.
  light_pool_.reserve(pool_size);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t v = hpd.node_at(i);
    if (tree.is_root(v)) continue;  // empty slice at offset 0
    const std::uint32_t p = tree.parent(v);
    if (!hpd.is_light(v)) {
      light_off_[v] = light_off_[p];
      continue;
    }
    light_off_[v] = static_cast<std::uint32_t>(light_pool_.size());
    for (std::uint32_t j = 0; j < records_[p].light_depth; ++j) {
      const Port inherited = light_pool_[light_off_[p] + j];
      light_pool_.push_back(inherited);
    }
    light_pool_.push_back(local.down_port[v]);
  }
  CROUTE_ASSERT(light_pool_.size() == pool_size, "light-port pool miscounted");
}

TreeLabel TreeRoutingScheme::label(std::uint32_t local) const {
  const std::span<const Port> ports = light_ports(local);
  return TreeLabel{records_[local].dfs_in, {ports.begin(), ports.end()}};
}

TreeDecision TreeRoutingScheme::decide(const TreeNodeRecord& here,
                                       const TreeLabel& dest) {
  if (dest.dfs_in == here.dfs_in) return TreeDecision{true, kNoPort};
  if (dest.dfs_in < here.dfs_in || dest.dfs_in >= here.dfs_out) {
    CROUTE_ASSERT(here.parent_port != kNoPort,
                  "destination outside the tree reached the root");
    return TreeDecision{false, here.parent_port};
  }
  if (dest.dfs_in >= here.heavy_in && dest.dfs_in < here.heavy_out &&
      here.heavy_port != kNoPort) {
    return TreeDecision{false, here.heavy_port};
  }
  CROUTE_ASSERT(here.light_depth < dest.light_ports.size(),
                "label misses the light port for this branch point");
  return TreeDecision{false, dest.light_ports[here.light_depth]};
}

void TreeRoutingScheme::encode_label(const TreeLabel& l, const Codec& c,
                                     BitWriter& w) {
  w.write_bits(l.dfs_in, c.dfs_bits);
  w.write_gamma(l.light_ports.size() + 1);
  for (const Port p : l.light_ports) w.write_bits(p, c.port_bits);
}

TreeLabel TreeRoutingScheme::decode_label(const Codec& c, BitReader& r) {
  TreeLabel l;
  l.dfs_in = static_cast<std::uint32_t>(r.read_bits(c.dfs_bits));
  const std::uint64_t count = r.read_gamma() - 1;
  l.light_ports.resize(count);
  for (auto& p : l.light_ports) {
    p = static_cast<Port>(r.read_bits(c.port_bits));
  }
  return l;
}

std::uint64_t TreeRoutingScheme::label_bits(std::uint64_t light_port_count,
                                            const Codec& c) {
  return c.dfs_bits + gamma_bits(light_port_count + 1) +
         light_port_count * c.port_bits;
}

std::uint64_t TreeRoutingScheme::label_bits(const TreeLabel& l,
                                            const Codec& c) {
  return label_bits(l.light_ports.size(), c);
}

void TreeRoutingScheme::encode_record(const TreeNodeRecord& rec,
                                      const Codec& c, BitWriter& w) {
  w.write_bits(rec.dfs_in, c.dfs_bits);
  w.write_bits(rec.dfs_out, c.dfs_bits);
  w.write_bits(rec.heavy_in, c.dfs_bits);
  w.write_bits(rec.heavy_out, c.dfs_bits);
  // Ports may be kNoPort (root / leaf): shift by one so 0 means "none".
  w.write_gamma(rec.heavy_port == kNoPort ? 1 : std::uint64_t{rec.heavy_port} + 2);
  w.write_gamma(rec.parent_port == kNoPort ? 1
                                           : std::uint64_t{rec.parent_port} + 2);
  w.write_gamma(std::uint64_t{rec.light_depth} + 1);
}

TreeNodeRecord TreeRoutingScheme::decode_record(const Codec& c, BitReader& r) {
  TreeNodeRecord rec;
  rec.dfs_in = static_cast<std::uint32_t>(r.read_bits(c.dfs_bits));
  rec.dfs_out = static_cast<std::uint32_t>(r.read_bits(c.dfs_bits));
  rec.heavy_in = static_cast<std::uint32_t>(r.read_bits(c.dfs_bits));
  rec.heavy_out = static_cast<std::uint32_t>(r.read_bits(c.dfs_bits));
  const std::uint64_t hp = r.read_gamma();
  rec.heavy_port = hp == 1 ? kNoPort : static_cast<Port>(hp - 2);
  const std::uint64_t pp = r.read_gamma();
  rec.parent_port = pp == 1 ? kNoPort : static_cast<Port>(pp - 2);
  rec.light_depth = static_cast<std::uint32_t>(r.read_gamma() - 1);
  return rec;
}

std::uint64_t TreeRoutingScheme::record_bits(const TreeNodeRecord& rec,
                                             const Codec& c) {
  return 4 * std::uint64_t{c.dfs_bits} +
         gamma_bits(rec.heavy_port == kNoPort
                        ? 1
                        : std::uint64_t{rec.heavy_port} + 2) +
         gamma_bits(rec.parent_port == kNoPort
                        ? 1
                        : std::uint64_t{rec.parent_port} + 2) +
         gamma_bits(std::uint64_t{rec.light_depth} + 1);
}

}  // namespace croute
