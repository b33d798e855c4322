#include "sim/datacenter.h"

#include <string>

namespace willow::sim {

std::optional<std::size_t> DatacenterLayout::node_count() const {
  std::size_t racks = 0;
  std::size_t servers = 0;
  std::size_t nodes = 0;
  if (__builtin_mul_overflow(zones, racks_per_zone, &racks) ||
      __builtin_mul_overflow(racks, servers_per_rack, &servers) ||
      __builtin_add_overflow(zones, racks, &nodes) ||
      __builtin_add_overflow(nodes, servers, &nodes) ||
      __builtin_add_overflow(nodes, std::size_t{1}, &nodes)) {
    return std::nullopt;
  }
  return nodes;
}

std::unique_ptr<Datacenter> build_datacenter(const DatacenterOptions& options) {
  auto dc = std::make_unique<Datacenter>(options.smoothing_alpha);
  auto& cluster = dc->cluster;
  dc->root = cluster.add_root("datacenter");
  std::size_t server_index = 0;
  for (std::size_t z = 0; z < options.layout.zones; ++z) {
    const auto zone = cluster.add_group(dc->root, "zone" + std::to_string(z),
                                        hier::NodeKind::kGeneric);
    dc->zones.push_back(zone);
    for (std::size_t r = 0; r < options.layout.racks_per_zone; ++r) {
      const auto rack = cluster.add_group(
          zone, "zone" + std::to_string(z) + "/rack" + std::to_string(r),
          hier::NodeKind::kRack);
      dc->racks.push_back(rack);
      for (std::size_t s = 0; s < options.layout.servers_per_rack; ++s) {
        core::ServerConfig cfg = options.server;
        if (server_index < options.ambient_overrides.size()) {
          cfg.thermal.ambient = options.ambient_overrides[server_index];
        }
        const auto node = cluster.add_server(
            rack, "server" + std::to_string(server_index + 1), cfg);
        dc->servers.push_back(node);
        ++server_index;
      }
    }
  }
  return dc;
}

namespace {
core::ServerConfig paper_server_config() {
  core::ServerConfig cfg;
  cfg.thermal.c1 = 0.08;
  cfg.thermal.c2 = 0.05;
  cfg.thermal.ambient = Celsius{25.0};
  cfg.thermal.limit = Celsius{70.0};
  cfg.thermal.nameplate = Watts{450.0};
  cfg.power_model = power::ServerPowerModel::paper_simulation();
  return cfg;
}
}  // namespace

std::unique_ptr<Datacenter> build_paper_datacenter() {
  DatacenterOptions options;
  options.server = paper_server_config();
  return build_datacenter(options);
}

std::unique_ptr<Datacenter> build_paper_datacenter_hot_zone(Celsius hot) {
  DatacenterOptions options;
  options.server = paper_server_config();
  options.ambient_overrides.assign(options.layout.total_servers(),
                                   Celsius{25.0});
  // Paper numbering: servers 15..18 (1-based) sit in the hot zone.
  for (std::size_t i = 14; i < options.layout.total_servers(); ++i) {
    options.ambient_overrides[i] = hot;
  }
  return build_datacenter(options);
}

}  // namespace willow::sim
