// Topology builders for the paper's simulation set-up.
//
// Figure 3: a four-level power-control hierarchy with 18 server nodes
// (datacenter -> 2 zones -> 3 racks each -> 3 servers each).  Figure 8's
// switch configuration mirrors it one-for-one, which net::Fabric derives
// directly from the PMU tree.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/cluster.h"
#include "util/units.h"

namespace willow::sim {

using util::Celsius;
using util::Watts;

struct DatacenterLayout {
  std::size_t zones = 2;
  std::size_t racks_per_zone = 3;
  std::size_t servers_per_rack = 3;

  [[nodiscard]] std::size_t total_servers() const {
    return zones * racks_per_zone * servers_per_rack;
  }

  /// PMU tree nodes of this layout (1 + zones + zones * racks_per_zone +
  /// servers), or nullopt when the count overflows size_t.
  [[nodiscard]] std::optional<std::size_t> node_count() const;

  /// True when every node of the layout gets a hier::NodeId below
  /// hier::kNoNode (NodeId is 32-bit).
  [[nodiscard]] bool fits_node_ids() const {
    const auto nodes = node_count();
    return nodes && *nodes < hier::kNoNode;
  }
};

struct DatacenterOptions {
  DatacenterLayout layout{};
  /// Eq. (4) smoothing constant for every PMU node.
  double smoothing_alpha = 0.7;
  /// Thermal constants chosen in Sec. V-B2 (c1 = 0.08, c2 = 0.05, 450 W).
  core::ServerConfig server{};
  /// Ambient temperature per server index; missing entries default to the
  /// server config's ambient.  Used for the hot-zone scenarios (Sec. V-B3).
  std::vector<Celsius> ambient_overrides{};
};

/// The built plant: the Cluster plus convenient handles.
struct Datacenter {
  explicit Datacenter(double smoothing_alpha) : cluster(smoothing_alpha) {}

  core::Cluster cluster;
  hier::NodeId root = hier::kNoNode;
  std::vector<hier::NodeId> zones;
  std::vector<hier::NodeId> racks;
  std::vector<hier::NodeId> servers;  ///< in paper numbering order (0-based)
};

/// Build a datacenter with the given shape.  Server i's ambient temperature
/// comes from ambient_overrides[i] when present.
std::unique_ptr<Datacenter> build_datacenter(const DatacenterOptions& options);

/// The exact Fig.-3 configuration: 4 levels, 18 servers, paper thermal
/// constants, all-25degC ambient.
std::unique_ptr<Datacenter> build_paper_datacenter();

/// Fig.-3 configuration with the Sec. V-B3 hot zone: servers 1..14 at 25degC
/// ambient, servers 15..18 at `hot` (paper: 40degC).
std::unique_ptr<Datacenter> build_paper_datacenter_hot_zone(
    Celsius hot = Celsius{40.0});

}  // namespace willow::sim
