// Workload churn: applications arrive and depart while the controller runs —
// "variations in workload intensity and characteristics" (Sec. I).
#include <gtest/gtest.h>

#include "sim/simulation.h"

namespace willow::sim {
namespace {

using namespace willow::util::literals;
using util::Seconds;
using util::Watts;

SimConfig base_config(double churn) {
  SimConfig cfg;
  cfg.datacenter.server.thermal.c1 = 0.08;
  cfg.datacenter.server.thermal.c2 = 0.05;
  cfg.datacenter.server.power_model = power::ServerPowerModel::paper_simulation();
  cfg.target_utilization = 0.5;
  cfg.churn_probability = churn;
  cfg.warmup_ticks = 5;
  cfg.measure_ticks = 60;
  cfg.seed = 17;
  return cfg;
}

TEST(Churn, DisabledByDefault) {
  const auto r = run_simulation(base_config(0.0));
  EXPECT_EQ(r.churn_departures, 0u);
  EXPECT_EQ(r.churn_arrivals, 0u);
}

TEST(Churn, ArrivalsAndDeparturesHappen) {
  const auto r = run_simulation(base_config(0.1));
  EXPECT_GT(r.churn_departures, 20u);
  EXPECT_GT(r.churn_arrivals, 20u);
  // Roughly balanced by construction (one out, one in).
  EXPECT_NEAR(static_cast<double>(r.churn_arrivals),
              static_cast<double>(r.churn_departures),
              static_cast<double>(r.churn_arrivals) * 0.5);
}

TEST(Churn, InvariantsHoldUnderChurn) {
  auto cfg = base_config(0.15);
  Simulation sim(std::move(cfg));
  const auto r = sim.run();
  EXPECT_FALSE(r.thermal_violation);
  auto& cluster = sim.datacenter().cluster;
  const auto& tree = cluster.tree();
  // Every hosted app is registered exactly once and sleeping servers are
  // empty.
  std::size_t hosted = 0;
  for (auto s : cluster.server_ids()) {
    const auto& srv = cluster.server(s);
    if (srv.asleep()) {
      EXPECT_TRUE(srv.apps().empty());
    }
    for (const auto& a : srv.apps()) {
      EXPECT_EQ(cluster.host_of(a.id()), s);
      ++hosted;
    }
  }
  EXPECT_GT(hosted, 0u);
  for (auto id : tree.all_nodes()) {
    const auto& n = tree.node(id);
    if (n.is_leaf()) continue;
    double sum = 0.0;
    for (auto c : n.children()) sum += tree.node(c).budget().value();
    EXPECT_LE(sum, n.budget().value() + 1e-6);
  }
}

TEST(Churn, SurvivesWithMigrationLatency) {
  // Churn + in-flight transfers: departures must never yank an app out from
  // under a transfer (guarded via app_in_flight) and stale transfers of
  // departed apps resolve gracefully.
  auto cfg = base_config(0.2);
  cfg.controller.migration_periods_per_gib = 2.0;
  cfg.supply = std::make_shared<power::SinusoidSupply>(
      Watts{28.125 * 18.0 * 0.85}, Watts{28.125 * 18.0 * 0.15},
      Seconds{16.0});
  Simulation sim(std::move(cfg));
  const auto r = sim.run();
  EXPECT_FALSE(r.thermal_violation);
  EXPECT_GT(r.churn_departures, 0u);
}

TEST(ClusterRemoveApp, Validation) {
  core::Cluster cluster(1.0);
  const auto root = cluster.add_root("dc");
  const auto rack = cluster.add_group(root, "rack");
  core::ServerConfig sc;
  sc.power_model = power::ServerPowerModel(10_W, 450_W);
  const auto s = cluster.add_server(rack, "s", sc);
  workload::AppIdAllocator ids;
  const auto id = ids.next();
  cluster.place(workload::Application(id, 0, 50_W, 512_MB), s);
  const auto removed = cluster.remove_app(id);
  EXPECT_EQ(removed.id(), id);
  EXPECT_TRUE(cluster.server(s).apps().empty());
  EXPECT_EQ(cluster.host_of(id), hier::kNoNode);
  EXPECT_THROW(cluster.remove_app(id), std::logic_error);
}

TEST(MixWeights, BiasedSelection) {
  workload::MixConfig cfg;
  cfg.unit_power = 1_W;
  cfg.target_mean_per_server = 40_W;
  cfg.class_weights = {0.0, 0.0, 1.0, 3.0};  // only classes 5 and 9
  workload::AppIdAllocator ids;
  util::Rng rng(7);
  std::size_t heavy = 0, total = 0;
  for (int i = 0; i < 50; ++i) {
    for (const auto& a : workload::build_mix(cfg, ids, rng)) {
      EXPECT_GE(a.class_index(), 2u);
      heavy += a.class_index() == 3 ? 1 : 0;
      ++total;
    }
  }
  // Weighted 3:1 toward the largest class.
  EXPECT_GT(static_cast<double>(heavy) / static_cast<double>(total), 0.5);
}

TEST(MixWeights, Validation) {
  workload::MixConfig cfg;
  cfg.unit_power = 1_W;
  workload::AppIdAllocator ids;
  util::Rng rng(7);
  cfg.class_weights = {1.0};  // wrong size
  EXPECT_THROW(workload::build_mix(cfg, ids, rng), std::invalid_argument);
  cfg.class_weights = {0.0, 0.0, 0.0, 0.0};
  EXPECT_THROW(workload::build_mix(cfg, ids, rng), std::invalid_argument);
  cfg.class_weights = {1.0, 1.0, -1.0, 1.0};
  EXPECT_THROW(workload::build_mix(cfg, ids, rng), std::invalid_argument);
}

}  // namespace
}  // namespace willow::sim
