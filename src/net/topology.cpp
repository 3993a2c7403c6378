#include "src/net/topology.hpp"

#include "src/common/error.hpp"

namespace splitmed::net {

const std::vector<WanProfile>& hospital_wan_profiles() {
  static const std::vector<WanProfile> kProfiles = {
      {"metro-hospital-a", 1000.0, 5.0},  {"metro-hospital-b", 600.0, 8.0},
      {"regional-clinic-a", 400.0, 15.0}, {"regional-clinic-b", 300.0, 20.0},
      {"rural-hospital-a", 200.0, 35.0},  {"rural-hospital-b", 200.0, 45.0},
      {"research-institute", 800.0, 12.0}, {"overseas-partner", 250.0, 60.0},
  };
  return kProfiles;
}

StarTopology build_hospital_star(Network& network,
                                 std::int64_t num_platforms) {
  SPLITMED_CHECK(num_platforms > 0, "need at least one platform");
  StarTopology topo;
  topo.server = network.add_node("central-server");
  const auto& profiles = hospital_wan_profiles();
  for (std::int64_t k = 0; k < num_platforms; ++k) {
    const WanProfile& p = profiles[static_cast<std::size_t>(k) %
                                   profiles.size()];
    const NodeId id = network.add_node(p.name + "-" + std::to_string(k));
    network.set_link(id, topo.server,
                     Link::mbps(p.bandwidth_mbps, p.latency_ms));
    topo.platforms.push_back(id);
  }
  return topo;
}

}  // namespace splitmed::net
