// Scale: a 216-server datacenter (4 levels) runs the full control loop with
// invariants intact — the "large data centers" scalability claim of
// Section IV-A exercised beyond the paper's 18-server configuration.
#include <gtest/gtest.h>

#include "sim/simulation.h"

namespace willow::sim {
namespace {

using namespace willow::util::literals;

TEST(Scale, TwoHundredServersRunClean) {
  SimConfig cfg;
  cfg.datacenter.layout.zones = 4;
  cfg.datacenter.layout.racks_per_zone = 6;
  cfg.datacenter.layout.servers_per_rack = 9;  // 216 servers
  cfg.datacenter.server.thermal.c1 = 0.08;
  cfg.datacenter.server.thermal.c2 = 0.05;
  cfg.datacenter.server.thermal.ambient = 25_degC;
  cfg.datacenter.server.thermal.limit = 70_degC;
  cfg.datacenter.server.thermal.nameplate = 450_W;
  cfg.datacenter.server.power_model = power::ServerPowerModel::paper_simulation();
  cfg.target_utilization = 0.55;
  // A plunge partway through keeps the planner busy.
  std::vector<util::Watts> levels;
  const double envelope = 28.125 * 216.0;
  for (int i = 0; i < 60; ++i) {
    levels.emplace_back(envelope * (i < 30 ? 0.95 : 0.75));
  }
  cfg.supply = std::make_shared<power::SteppedSupply>(levels, 1_s);
  cfg.warmup_ticks = 5;
  cfg.measure_ticks = 55;
  cfg.seed = 11;

  Simulation sim(std::move(cfg));
  const auto r = sim.run();

  EXPECT_FALSE(r.thermal_violation);
  EXPECT_EQ(r.servers.size(), 216u);
  EXPECT_GT(r.controller_stats.total_migrations(), 0u);

  // Invariants at the end state.
  auto& cluster = sim.datacenter().cluster;
  const auto& tree = cluster.tree();
  EXPECT_EQ(tree.height(), 4);
  std::size_t hosted = 0;
  for (auto s : cluster.server_ids()) {
    const auto& srv = cluster.server(s);
    hosted += srv.apps().size();
    if (srv.asleep()) {
      EXPECT_TRUE(srv.apps().empty());
    }
  }
  EXPECT_GT(hosted, 0u);
  for (auto id : tree.all_nodes()) {
    const auto& n = tree.node(id);
    if (n.is_leaf()) continue;
    double sum = 0.0;
    for (auto c : n.children()) sum += tree.node(c).budget().value();
    ASSERT_LE(sum, n.budget().value() + 1e-6);
  }
  // Property 3 held at scale: at most one report per ΔD per link (the
  // messaging is event-driven, so a period whose demand estimate did not
  // move sends nothing).
  for (auto id : tree.all_nodes()) {
    if (tree.node(id).is_root()) continue;
    EXPECT_GE(tree.node(id).link().up, 1u);
    EXPECT_LE(tree.node(id).link().up, 60u);
  }
}

TEST(Scale, WideFlatHierarchyAlsoWorks) {
  // One zone, two racks of 40: an unusually flat shape (high branching
  // factor) must not break the planner or the message accounting.
  SimConfig cfg;
  cfg.datacenter.layout.zones = 1;
  cfg.datacenter.layout.racks_per_zone = 2;
  cfg.datacenter.layout.servers_per_rack = 40;
  cfg.datacenter.server.thermal.c1 = 0.08;
  cfg.datacenter.server.thermal.c2 = 0.05;
  cfg.datacenter.server.power_model = power::ServerPowerModel::paper_simulation();
  cfg.target_utilization = 0.5;
  cfg.warmup_ticks = 5;
  cfg.measure_ticks = 25;
  cfg.seed = 13;
  const auto r = run_simulation(std::move(cfg));
  EXPECT_FALSE(r.thermal_violation);
  EXPECT_EQ(r.servers.size(), 80u);
}

}  // namespace
}  // namespace willow::sim
