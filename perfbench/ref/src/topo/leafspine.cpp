#include "topo/leafspine.hpp"

#include <cassert>

namespace xmp::topo {

LeafSpine::LeafSpine(net::Network& netw, const Config& cfg) : cfg_{cfg} {
  assert(cfg_.n_leaves > 0 && cfg_.n_spines > 0 && cfg_.hosts_per_leaf > 0);

  // Shard annotation (inert without a fabric): one logical shard per leaf,
  // spines spread round-robin. Creation order is exactly the serial build's.
  for (int l = 0; l < cfg_.n_leaves; ++l) {
    netw.begin_shard(l);
    leaves_.push_back(&netw.add_switch());
  }
  for (int s = 0; s < cfg_.n_spines; ++s) {
    netw.begin_shard(s % cfg_.n_leaves);
    spines_.push_back(&netw.add_switch());
  }

  // Hosts onto leaves.
  for (int l = 0; l < cfg_.n_leaves; ++l) {
    netw.begin_shard(l);
    for (int h = 0; h < cfg_.hosts_per_leaf; ++h) {
      net::Host& host = netw.add_host();
      const std::size_t before = netw.links().size();
      netw.attach_host(host, *leaves_[static_cast<std::size_t>(l)], cfg_.host_rate_bps,
                       cfg_.host_delay, cfg_.queue);
      host_links_.push_back(netw.links()[before].get());
      host_links_.push_back(netw.links()[before + 1].get());
      hosts_.push_back(&host);
    }
  }

  // Full leaf <-> spine mesh; the spine learns the downward route for every
  // host of the leaf it connects to. A spine's links may be derated
  // (spine_rate_factor) to model an asymmetric fabric; WCMP tables pick up
  // the reduced rate as a reduced weight.
  for (int l = 0; l < cfg_.n_leaves; ++l) {
    for (int s = 0; s < cfg_.n_spines; ++s) {
      double factor = 1.0;
      if (s < static_cast<int>(cfg_.spine_rate_factor.size())) {
        factor = cfg_.spine_rate_factor[static_cast<std::size_t>(s)];
        assert(factor > 0.0);
      }
      const auto rate = static_cast<std::int64_t>(
          static_cast<double>(cfg_.fabric_rate_bps) * factor);
      const auto ports = netw.connect_switches(*leaves_[static_cast<std::size_t>(l)],
                                               *spines_[static_cast<std::size_t>(s)], rate,
                                               cfg_.fabric_delay, cfg_.queue);
      fabric_links_.push_back(ports.a_to_b);
      fabric_links_.push_back(ports.b_to_a);
      leaves_[static_cast<std::size_t>(l)]->add_up_port(ports.on_a);
      for (int h = 0; h < cfg_.hosts_per_leaf; ++h) {
        const int host_index = l * cfg_.hosts_per_leaf + h;
        spines_[static_cast<std::size_t>(s)]->set_host_route(
            hosts_[static_cast<std::size_t>(host_index)]->id(), ports.on_b);
      }
    }
  }
}

}  // namespace xmp::topo
