#include "topo/fattree.hpp"

#include <cassert>

namespace xmp::topo {

FatTree::FatTree(net::Network& netw, const Config& cfg) : cfg_{cfg} {
  const int k = cfg_.k;
  assert(k >= 2 && k % 2 == 0);
  const int half = k / 2;
  hosts_per_pod_ = half * half;

  // --- create switches ---
  // Shard annotation (inert without a fabric): one logical shard per pod.
  // Core switches are spread round-robin over the pod shards, so every
  // shard owns ~(k/4) cores and the per-shard event load stays balanced.
  // Only begin_shard() calls are added — creation order (and with it every
  // NodeId and LinkId) is exactly the serial build's.
  std::vector<std::vector<net::Switch*>> edge(k), agg(k);
  for (int p = 0; p < k; ++p) {
    netw.begin_shard(p);
    for (int i = 0; i < half; ++i) {
      edge[p].push_back(&netw.add_switch());
      agg[p].push_back(&netw.add_switch());
    }
  }
  // core[g][j]: core group g is wired to aggregation switch #g of each pod.
  std::vector<std::vector<net::Switch*>> core(half);
  for (int g = 0; g < half; ++g) {
    for (int j = 0; j < half; ++j) {
      netw.begin_shard((g * half + j) % k);
      core[g].push_back(&netw.add_switch());
    }
  }
  for (int p = 0; p < k; ++p) {
    edge_switches_.insert(edge_switches_.end(), edge[p].begin(), edge[p].end());
    agg_switches_.insert(agg_switches_.end(), agg[p].begin(), agg[p].end());
  }
  for (int g = 0; g < half; ++g) {
    core_switches_.insert(core_switches_.end(), core[g].begin(), core[g].end());
  }

  // --- hosts + rack layer ---
  for (int p = 0; p < k; ++p) {
    netw.begin_shard(p);
    for (int e = 0; e < half; ++e) {
      for (int h = 0; h < half; ++h) {
        net::Host& host = netw.add_host();
        const std::size_t before = netw.links().size();
        netw.attach_host(host, *edge[p][e], cfg_.link_rate_bps, cfg_.rack_delay, cfg_.queue);
        rack_links_.push_back(netw.links()[before].get());      // host -> edge
        rack_links_.push_back(netw.links()[before + 1].get());  // edge -> host
        hosts_.push_back(&host);
      }
    }
  }

  // --- aggregation layer: every edge to every agg in the pod ---
  for (int p = 0; p < k; ++p) {
    for (int e = 0; e < half; ++e) {
      for (int a = 0; a < half; ++a) {
        const auto ports = netw.connect_switches(*edge[p][e], *agg[p][a], cfg_.link_rate_bps,
                                                 cfg_.agg_delay, cfg_.queue);
        agg_links_.push_back(ports.a_to_b);
        agg_links_.push_back(ports.b_to_a);
        edge[p][e]->add_up_port(ports.on_a);
        // Agg routes the hosts of this edge switch downward through it.
        for (int h = 0; h < half; ++h) {
          const int host_index = p * hosts_per_pod_ + e * half + h;
          agg[p][a]->set_host_route(hosts_[host_index]->id(), ports.on_b);
        }
      }
    }
  }

  // --- core layer: agg #g of every pod to all cores in group g ---
  for (int p = 0; p < k; ++p) {
    for (int g = 0; g < half; ++g) {
      for (int j = 0; j < half; ++j) {
        const auto ports = netw.connect_switches(*agg[p][g], *core[g][j], cfg_.link_rate_bps,
                                                 cfg_.core_delay, cfg_.queue);
        core_links_.push_back(ports.a_to_b);
        core_links_.push_back(ports.b_to_a);
        agg[p][g]->add_up_port(ports.on_a);
        // The core switch reaches every host of pod p through this agg.
        for (int h = 0; h < hosts_per_pod_; ++h) {
          const int host_index = p * hosts_per_pod_ + h;
          core[g][j]->set_host_route(hosts_[host_index]->id(), ports.on_b);
        }
      }
    }
  }
}

std::vector<net::Link*> FatTree::path_links(int src, int dst, int agg_choice,
                                            int core_choice) const {
  const int half = cfg_.k / 2;
  assert(src != dst);
  assert(agg_choice >= 0 && agg_choice < half);
  assert(core_choice >= 0 && core_choice < half);
  // Link vectors mirror the construction loops exactly:
  //   rack_links_[2i]   = host i → edge,   [2i+1] = edge → host i
  //   agg_links_ at idx2 = (p·half + e)·half + a:
  //     [2·idx2] = edge → agg (up),        [2·idx2+1] = agg → edge (down)
  //   core_links_ at idx3 = (p·half + g)·half + j:
  //     [2·idx3] = agg → core (up),        [2·idx3+1] = core → agg (down)
  const int p_src = pod_of(src), p_dst = pod_of(dst);
  const int e_src = edge_of(src) - p_src * half;  // edge index within pod
  const int e_dst = edge_of(dst) - p_dst * half;
  std::vector<net::Link*> path;
  path.push_back(rack_links_[2 * static_cast<std::size_t>(src)]);
  if (edge_of(src) != edge_of(dst)) {
    const int g = agg_choice;  // agg switch (and core group) on the way up
    const std::size_t up2 = static_cast<std::size_t>((p_src * half + e_src) * half + g);
    path.push_back(agg_links_[2 * up2]);
    if (p_src != p_dst) {
      const std::size_t up3 = static_cast<std::size_t>((p_src * half + g) * half + core_choice);
      const std::size_t down3 = static_cast<std::size_t>((p_dst * half + g) * half + core_choice);
      path.push_back(core_links_[2 * up3]);
      path.push_back(core_links_[2 * down3 + 1]);
    }
    const std::size_t down2 = static_cast<std::size_t>((p_dst * half + e_dst) * half + g);
    path.push_back(agg_links_[2 * down2 + 1]);
  }
  path.push_back(rack_links_[2 * static_cast<std::size_t>(dst) + 1]);
  return path;
}

FatTree::Category FatTree::category(int src, int dst) const {
  if (pod_of(src) != pod_of(dst)) return Category::InterPod;
  if (edge_of(src) != edge_of(dst)) return Category::InterRack;
  return Category::InnerRack;
}

const std::vector<net::Link*>& FatTree::links(Layer l) const {
  switch (l) {
    case Layer::Rack:
      return rack_links_;
    case Layer::Aggregation:
      return agg_links_;
    case Layer::Core:
      return core_links_;
  }
  return rack_links_;  // unreachable
}

const std::vector<net::Switch*>& FatTree::switches(Layer l) const {
  switch (l) {
    case Layer::Rack:
      return edge_switches_;
    case Layer::Aggregation:
      return agg_switches_;
    case Layer::Core:
      return core_switches_;
  }
  return edge_switches_;  // unreachable
}

const char* FatTree::category_name(Category c) {
  switch (c) {
    case Category::InnerRack:
      return "Inner-Rack";
    case Category::InterRack:
      return "Inter-Rack";
    case Category::InterPod:
      return "Inter-Pod";
  }
  return "?";
}

const char* FatTree::layer_name(Layer l) {
  switch (l) {
    case Layer::Rack:
      return "Rack";
    case Layer::Aggregation:
      return "Aggregation";
    case Layer::Core:
      return "Core";
  }
  return "?";
}

}  // namespace xmp::topo
