#include "core/cluster.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "workload/mix.h"

namespace willow::core {
namespace {

using namespace willow::util::literals;
using workload::Application;

ServerConfig small_server() {
  ServerConfig cfg;
  cfg.thermal.c1 = 0.08;
  cfg.thermal.c2 = 0.05;
  cfg.thermal.ambient = 25_degC;
  cfg.thermal.limit = 70_degC;
  cfg.thermal.nameplate = 450_W;
  cfg.power_model = power::ServerPowerModel(30_W, 450_W);
  return cfg;
}

struct Fixture {
  Cluster cluster{1.0};
  NodeId root, rack, sa, sb;

  Fixture() {
    root = cluster.add_root("dc");
    rack = cluster.add_group(root, "rack");
    sa = cluster.add_server(rack, "a", small_server());
    sb = cluster.add_server(rack, "b", small_server());
  }

  Application app(workload::AppId id, double watts) {
    return Application(id, 0, Watts{watts}, 512_MB);
  }
};

TEST(Cluster, ServerRegistry) {
  Fixture f;
  EXPECT_EQ(f.cluster.server_ids().size(), 2u);
  EXPECT_TRUE(f.cluster.is_server(f.sa));
  EXPECT_FALSE(f.cluster.is_server(f.rack));
  EXPECT_EQ(f.cluster.server(f.sa).node(), f.sa);
}

TEST(Cluster, SlotMappingIsDenseAndBidirectional) {
  // Two racks of three servers: slots follow creation order, and slot_of
  // inverts server_ids().
  Cluster cluster{1.0};
  const NodeId root = cluster.add_root("dc");
  std::vector<NodeId> servers;
  std::vector<NodeId> racks;
  for (int r = 0; r < 2; ++r) {
    racks.push_back(cluster.add_group(root, "rack"));
    for (int i = 0; i < 3; ++i) {
      servers.push_back(cluster.add_server(racks.back(), "srv", small_server()));
    }
  }
  EXPECT_EQ(cluster.server_ids(), servers);
  ASSERT_EQ(cluster.server_count(), 6u);
  for (std::uint32_t slot = 0; slot < 6; ++slot) {
    EXPECT_EQ(cluster.slot_of(servers[slot]), slot);
    EXPECT_EQ(cluster.server_at(slot).node(), servers[slot]);
  }
  // The root, the racks and out-of-range ids are not servers.
  EXPECT_EQ(cluster.slot_of(root), Cluster::kNoSlot);
  for (const NodeId rack : racks) {
    EXPECT_EQ(cluster.slot_of(rack), Cluster::kNoSlot);
  }
  EXPECT_EQ(cluster.slot_of(NodeId{10'000}), Cluster::kNoSlot);
  EXPECT_THROW((void)cluster.server(root), std::out_of_range);
  EXPECT_THROW((void)cluster.server(NodeId{10'000}), std::out_of_range);
  EXPECT_THROW(cluster.place(Application(1, 0, 10_W, 512_MB), racks[0]),
               std::out_of_range);
  EXPECT_THROW(cluster.set_report_fault(racks[1], true), std::out_of_range);
}

TEST(Cluster, CircuitLimitDefaultsToNameplate) {
  Fixture f;
  EXPECT_DOUBLE_EQ(f.cluster.server(f.sa).circuit_limit().value(), 450.0);
  ServerConfig cfg = small_server();
  cfg.circuit_limit = 300_W;
  const NodeId sc = f.cluster.add_server(f.rack, "c", cfg);
  EXPECT_DOUBLE_EQ(f.cluster.server(sc).circuit_limit().value(), 300.0);
}

TEST(Cluster, PlaceAndFind) {
  Fixture f;
  f.cluster.place(f.app(1, 50.0), f.sa);
  EXPECT_EQ(f.cluster.host_of(1), f.sa);
  ASSERT_NE(f.cluster.find_app(1), nullptr);
  EXPECT_DOUBLE_EQ(f.cluster.find_app(1)->mean_power().value(), 50.0);
  EXPECT_EQ(f.cluster.host_of(99), hier::kNoNode);
  EXPECT_EQ(f.cluster.find_app(99), nullptr);
}

TEST(Cluster, DoublePlacementThrows) {
  Fixture f;
  f.cluster.place(f.app(1, 50.0), f.sa);
  EXPECT_THROW(f.cluster.place(f.app(1, 50.0), f.sb), std::logic_error);
}

TEST(Cluster, MoveApp) {
  Fixture f;
  f.cluster.place(f.app(1, 50.0), f.sa);
  f.cluster.move_app(1, f.sa, f.sb);
  EXPECT_EQ(f.cluster.host_of(1), f.sb);
  EXPECT_TRUE(f.cluster.server(f.sa).apps().empty());
  EXPECT_EQ(f.cluster.server(f.sb).apps().size(), 1u);
  EXPECT_THROW(f.cluster.move_app(1, f.sa, f.sb), std::logic_error);
}

TEST(ManagedServer, PowerDemandIncludesIdleAppsAndTemp) {
  Fixture f;
  f.cluster.place(f.app(1, 50.0), f.sa);
  auto& srv = f.cluster.server(f.sa);
  EXPECT_DOUBLE_EQ(srv.power_demand().value(), 30.0 + 50.0);
  f.cluster.add_temporary_demand(f.sa, 5_W, 2);
  EXPECT_DOUBLE_EQ(srv.power_demand().value(), 85.0);
}

TEST(ManagedServer, TemporaryDemandExpires) {
  Fixture f;
  auto& srv = f.cluster.server(f.sa);
  f.cluster.add_temporary_demand(f.sa, 5_W, 2);
  f.cluster.add_temporary_demand(f.sa, 3_W, 1);
  EXPECT_DOUBLE_EQ(srv.temporary_demand().value(), 8.0);
  f.cluster.age_temporary_demands();
  EXPECT_DOUBLE_EQ(srv.temporary_demand().value(), 5.0);
  f.cluster.age_temporary_demands();
  EXPECT_DOUBLE_EQ(srv.temporary_demand().value(), 0.0);
}

TEST(ManagedServer, TemporaryDemandValidates) {
  Fixture f;
  EXPECT_THROW(f.cluster.add_temporary_demand(f.sa, Watts{-1.0}, 1),
               std::invalid_argument);
  EXPECT_THROW(f.cluster.add_temporary_demand(f.sa, 1_W, 0),
               std::invalid_argument);
}

TEST(ManagedServer, ConsumptionThrottledByBudget) {
  Fixture f;
  f.cluster.place(f.app(1, 200.0), f.sa);
  const auto& srv = f.cluster.server(f.sa);
  EXPECT_DOUBLE_EQ(srv.consumed_power(500_W).value(), 230.0);  // demand-bound
  EXPECT_DOUBLE_EQ(srv.consumed_power(100_W).value(), 100.0);  // budget-bound
  // Idle floor is drawn even under a sub-idle budget while active.
  EXPECT_DOUBLE_EQ(srv.consumed_power(10_W).value(), 30.0);
}

TEST(ManagedServer, UtilizationFromServedDynamicPower) {
  Fixture f;
  f.cluster.place(f.app(1, 210.0), f.sa);  // dynamic range is 420
  const auto& srv = f.cluster.server(f.sa);
  EXPECT_NEAR(srv.utilization(500_W), 0.5, 1e-12);
  EXPECT_NEAR(srv.utilization(Watts{30.0 + 105.0}), 0.25, 1e-12);
}

TEST(ManagedServer, AsleepDrawsAndReportsNothing) {
  Fixture f;
  const NodeId sa = f.sa;
  f.cluster.sleep_server(sa);
  const auto& srv = f.cluster.server(sa);
  EXPECT_DOUBLE_EQ(srv.power_demand().value(), 0.0);
  EXPECT_DOUBLE_EQ(srv.consumed_power(500_W).value(), 0.0);
  EXPECT_DOUBLE_EQ(srv.utilization(500_W), 0.0);
  EXPECT_FALSE(f.cluster.tree().node(sa).active());
}

TEST(Cluster, SleepRequiresEmptyServer) {
  Fixture f;
  f.cluster.place(f.app(1, 50.0), f.sa);
  EXPECT_THROW(f.cluster.sleep_server(f.sa), std::logic_error);
}

TEST(Cluster, WakeRestoresActivity) {
  Fixture f;
  f.cluster.sleep_server(f.sa);
  f.cluster.wake_server(f.sa);
  EXPECT_FALSE(f.cluster.server(f.sa).asleep());
  EXPECT_TRUE(f.cluster.tree().node(f.sa).active());
}

TEST(Cluster, ObserveLeafDemandsPushesToTree) {
  Fixture f;
  f.cluster.place(f.app(1, 50.0), f.sa);
  f.cluster.observe_leaf_demands();
  EXPECT_DOUBLE_EQ(f.cluster.tree().node(f.sa).smoothed_demand().value(), 80.0);
  EXPECT_DOUBLE_EQ(f.cluster.tree().node(f.sb).smoothed_demand().value(), 30.0);
}

TEST(Cluster, StepThermalHeatsLoadedServersMore) {
  Fixture f;
  f.cluster.place(f.app(1, 300.0), f.sa);
  f.cluster.tree().node(f.sa).set_budget(450_W);
  f.cluster.tree().node(f.sb).set_budget(450_W);
  for (int i = 0; i < 20; ++i) f.cluster.step_thermal(1_s);
  EXPECT_GT(f.cluster.server(f.sa).thermal().temperature(),
            f.cluster.server(f.sb).thermal().temperature());
}

TEST(Cluster, TotalConsumedAndActiveCount) {
  Fixture f;
  f.cluster.place(f.app(1, 100.0), f.sa);
  f.cluster.tree().node(f.sa).set_budget(450_W);
  f.cluster.tree().node(f.sb).set_budget(450_W);
  EXPECT_DOUBLE_EQ(f.cluster.total_consumed().value(), 130.0 + 30.0);
  EXPECT_EQ(f.cluster.active_server_count(), 2u);
  f.cluster.sleep_server(f.sb);
  EXPECT_DOUBLE_EQ(f.cluster.total_consumed().value(), 130.0);
  EXPECT_EQ(f.cluster.active_server_count(), 1u);
}

TEST(Cluster, RefreshDemandsConstantRestoresMeans) {
  Fixture f;
  f.cluster.place(f.app(1, 50.0), f.sa);
  f.cluster.find_app(1)->set_demand(10_W);
  f.cluster.refresh_demands_deterministic(1.0, nullptr);
  EXPECT_DOUBLE_EQ(f.cluster.find_app(1)->demand().value(), 50.0);
}

}  // namespace
}  // namespace willow::core
