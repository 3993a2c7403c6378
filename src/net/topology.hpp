// Geo-distributed topology presets.
//
// The paper's deployment scenario is K hospitals and one central server
// connected over a WAN (its future-work names Seoul National University
// Hospitals). build_hospital_star builds it: one server node plus K platform
// nodes with heterogeneous WAN links drawn from realistic hospital-to-
// datacenter profiles.
#pragma once

#include <string>
#include <vector>

#include "src/net/network.hpp"

namespace splitmed::net {

struct StarTopology {
  NodeId server = 0;
  std::vector<NodeId> platforms;
};

/// Per-platform WAN profile.
struct WanProfile {
  std::string name;
  double bandwidth_mbps = 0.0;
  double latency_ms = 0.0;
};

/// Eight metro-hospital profiles (bandwidth 200..1000 Mbps, latency
/// 5..60 ms); selected round-robin when num_platforms > 8.
const std::vector<WanProfile>& hospital_wan_profiles();

/// Builds the star into `network`: adds 1 server + K platforms and installs
/// heterogeneous links per hospital_wan_profiles().
StarTopology build_hospital_star(Network& network, std::int64_t num_platforms);

}  // namespace splitmed::net
