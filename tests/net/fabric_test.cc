#include "net/fabric.h"

#include <gtest/gtest.h>

namespace willow::net {
namespace {

using namespace willow::util::literals;
using hier::NodeKind;
using hier::Tree;

/// Fig.-8-style fabric over a 2-zone, 2-racks-each, 2-servers-each tree.
struct Fixture {
  Tree tree{0.5};
  NodeId root, z0, z1, r00, r01, r10, r11;
  std::vector<NodeId> servers;  // 8, in order

  Fixture() {
    root = tree.add_root("dc");
    z0 = tree.add_child(root, "z0");
    z1 = tree.add_child(root, "z1");
    r00 = tree.add_child(z0, "r00", NodeKind::kRack);
    r01 = tree.add_child(z0, "r01", NodeKind::kRack);
    r10 = tree.add_child(z1, "r10", NodeKind::kRack);
    r11 = tree.add_child(z1, "r11", NodeKind::kRack);
    for (NodeId rack : {r00, r01, r10, r11}) {
      for (int s = 0; s < 2; ++s) {
        servers.push_back(tree.add_child(rack, "srv", NodeKind::kServer));
      }
    }
  }

  FabricConfig config() {
    FabricConfig cfg;
    cfg.redundancy = 2;
    cfg.switch_capacity = 10.0;
    cfg.migration_cost_w_per_unit = 2.0;
    return cfg;
  }
};

TEST(Fabric, ValidatesConfig) {
  Fixture f;
  FabricConfig bad = f.config();
  bad.redundancy = 0;
  EXPECT_THROW(Fabric(f.tree, bad), std::invalid_argument);
  bad = f.config();
  bad.switch_capacity = 0.0;
  EXPECT_THROW(Fabric(f.tree, bad), std::invalid_argument);
}

TEST(Fabric, MirrorsInternalNodes) {
  Fixture f;
  Fabric fabric(f.tree, f.config());
  // 1 root + 2 zones + 4 racks have switch groups; servers do not.
  EXPECT_EQ(fabric.groups().size(), 7u);
  EXPECT_THROW((void)fabric.stats(f.servers[0]), std::out_of_range);
}

TEST(Fabric, Level1GroupsAreRacks) {
  Fixture f;
  Fabric fabric(f.tree, f.config());
  const auto l1 = fabric.level1_groups();
  ASSERT_EQ(l1.size(), 4u);
  EXPECT_EQ(l1[0], f.r00);
  EXPECT_EQ(l1[3], f.r11);
}

TEST(Fabric, ServerTrafficDepositsAlongRootPath) {
  Fixture f;
  Fabric fabric(f.tree, f.config());
  fabric.begin_period();
  fabric.add_server_traffic(f.servers[0], 0.8);  // under r00 in z0
  EXPECT_DOUBLE_EQ(fabric.stats(f.r00).period_traffic, 0.8);
  EXPECT_DOUBLE_EQ(fabric.stats(f.z0).period_traffic, 0.8);
  EXPECT_DOUBLE_EQ(fabric.stats(f.root).period_traffic, 0.8);
  EXPECT_DOUBLE_EQ(fabric.stats(f.r01).period_traffic, 0.0);
  EXPECT_DOUBLE_EQ(fabric.stats(f.z1).period_traffic, 0.0);
}

TEST(Fabric, NegativeTrafficRejected) {
  Fixture f;
  Fabric fabric(f.tree, f.config());
  EXPECT_THROW(fabric.add_server_traffic(f.servers[0], -0.1),
               std::invalid_argument);
  EXPECT_THROW(fabric.add_migration(f.servers[0], f.servers[1], -0.1),
               std::invalid_argument);
}

TEST(Fabric, IntraRackMigrationTouchesOnlyRackSwitch) {
  Fixture f;
  Fabric fabric(f.tree, f.config());
  fabric.begin_period();
  const auto hops = fabric.add_migration(f.servers[0], f.servers[1], 1.5);
  EXPECT_EQ(hops, 1u);  // LCA is the rack itself
  EXPECT_DOUBLE_EQ(fabric.stats(f.r00).period_migration_traffic, 1.5);
  EXPECT_DOUBLE_EQ(fabric.stats(f.z0).period_migration_traffic, 0.0);
  EXPECT_DOUBLE_EQ(fabric.stats(f.root).period_migration_traffic, 0.0);
}

TEST(Fabric, CrossZoneMigrationClimbsToRoot) {
  Fixture f;
  Fabric fabric(f.tree, f.config());
  fabric.begin_period();
  // servers[0] under r00/z0; servers[6] under r11/z1.
  const auto hops = fabric.add_migration(f.servers[0], f.servers[6], 1.0);
  EXPECT_EQ(hops, 5u);  // r00, z0, root, z1, r11
  for (NodeId g : {f.r00, f.z0, f.root, f.z1, f.r11}) {
    EXPECT_DOUBLE_EQ(fabric.stats(g).period_migration_traffic, 1.0) << g;
  }
  for (NodeId g : {f.r01, f.r10}) {
    EXPECT_DOUBLE_EQ(fabric.stats(g).period_migration_traffic, 0.0) << g;
  }
}

TEST(Fabric, CrossRackSameZone) {
  Fixture f;
  Fabric fabric(f.tree, f.config());
  fabric.begin_period();
  const auto hops = fabric.add_migration(f.servers[0], f.servers[2], 1.0);
  EXPECT_EQ(hops, 3u);  // r00, z0, r01
  EXPECT_DOUBLE_EQ(fabric.stats(f.root).period_migration_traffic, 0.0);
}

TEST(Fabric, MigrationCostProportionalToPayload) {
  Fixture f;
  Fabric fabric(f.tree, f.config());
  fabric.begin_period();
  fabric.add_migration(f.servers[0], f.servers[1], 3.0);
  EXPECT_DOUBLE_EQ(fabric.stats(f.r00).period_migration_cost.value(),
                   2.0 * 3.0);
  EXPECT_DOUBLE_EQ(fabric.total_migration_cost().value(), 6.0);
}

TEST(Fabric, BeginPeriodResetsPeriodNotTotals) {
  Fixture f;
  Fabric fabric(f.tree, f.config());
  fabric.begin_period();
  fabric.add_server_traffic(f.servers[0], 1.0);
  fabric.add_migration(f.servers[0], f.servers[1], 2.0);
  fabric.begin_period();
  EXPECT_DOUBLE_EQ(fabric.stats(f.r00).period_traffic, 0.0);
  EXPECT_DOUBLE_EQ(fabric.stats(f.r00).period_migration_traffic, 0.0);
  EXPECT_DOUBLE_EQ(fabric.stats(f.r00).period_migration_cost.value(), 0.0);
  EXPECT_DOUBLE_EQ(fabric.stats(f.r00).total_traffic, 3.0);
  EXPECT_DOUBLE_EQ(fabric.stats(f.r00).total_migration_traffic, 2.0);
}

TEST(Fabric, RedundancySplitsLoadEvenly) {
  // Sec. V-B5: "the load is balanced evenly between the switches".
  Fixture f;
  Fabric fabric(f.tree, f.config());  // redundancy 2
  fabric.begin_period();
  fabric.add_server_traffic(f.servers[0], 4.0);
  const auto& model = fabric.config().power;
  // Per-switch power sees half the traffic.
  EXPECT_DOUBLE_EQ(fabric.switch_power(f.r00).value(),
                   model.power(2.0).value());
  EXPECT_DOUBLE_EQ(fabric.group_power(f.r00).value(),
                   2.0 * model.power(2.0).value());
}

TEST(Fabric, UtilizationAgainstGroupCapacity) {
  Fixture f;
  Fabric fabric(f.tree, f.config());  // capacity 10 x redundancy 2 = 20
  fabric.begin_period();
  fabric.add_server_traffic(f.servers[0], 5.0);
  EXPECT_DOUBLE_EQ(fabric.utilization(f.r00), 0.25);
}

TEST(Fabric, NormalizedMigrationTrafficAcrossFabric) {
  Fixture f;
  Fabric fabric(f.tree, f.config());
  fabric.begin_period();
  EXPECT_DOUBLE_EQ(fabric.normalized_migration_traffic(), 0.0);
  fabric.add_migration(f.servers[0], f.servers[1], 7.0);  // 1 group crossed
  // Total capacity = 7 groups * 2 switches * 10 = 140.
  EXPECT_NEAR(fabric.normalized_migration_traffic(), 7.0 / 140.0, 1e-12);
}

TEST(Fabric, SingleRackTreeRoutesThroughRoot) {
  // A flat hierarchy: the root is the only switch group.
  Tree tree(0.5);
  const NodeId root = tree.add_root("dc");
  const NodeId a = tree.add_child(root, "a", NodeKind::kServer);
  const NodeId b = tree.add_child(root, "b", NodeKind::kServer);
  Fabric fabric(tree, FabricConfig{});
  EXPECT_EQ(fabric.groups().size(), 1u);
  EXPECT_EQ(fabric.level1_groups().size(), 1u);
  fabric.begin_period();
  EXPECT_EQ(fabric.add_migration(a, b, 1.0), 1u);
  EXPECT_DOUBLE_EQ(fabric.stats(root).period_migration_traffic, 1.0);
}

TEST(Fabric, RedundancyOneCarriesFullLoadPerSwitch) {
  Fixture f;
  FabricConfig cfg = f.config();
  cfg.redundancy = 1;
  Fabric fabric(f.tree, cfg);
  fabric.begin_period();
  fabric.add_server_traffic(f.servers[0], 4.0);
  EXPECT_DOUBLE_EQ(fabric.switch_power(f.r00).value(),
                   cfg.power.power(4.0).value());
  EXPECT_DOUBLE_EQ(fabric.group_power(f.r00).value(),
                   fabric.switch_power(f.r00).value());
  // Capacity normalization shrinks accordingly.
  EXPECT_DOUBLE_EQ(fabric.utilization(f.r00), 4.0 / 10.0);
}

TEST(Fabric, OversubscriptionShowsAboveUnityUtilization) {
  Fixture f;
  Fabric fabric(f.tree, f.config());  // capacity 10 x 2
  fabric.begin_period();
  fabric.add_server_traffic(f.servers[0], 50.0);
  EXPECT_GT(fabric.utilization(f.r00), 1.0);
}

TEST(Fabric, SelfMigrationIsDegenerate) {
  // from == to: the path is just the server's parent switch (LCA = rack).
  Fixture f;
  Fabric fabric(f.tree, f.config());
  fabric.begin_period();
  const auto hops = fabric.add_migration(f.servers[0], f.servers[0], 1.0);
  EXPECT_EQ(hops, 1u);
}

}  // namespace
}  // namespace willow::net
