// Everything-on soak: all extensions active at once for a long run, with the
// full invariant battery checked at the end.  Catches feature interactions
// the focused suites cannot (e.g. shedding vs consolidation vs IPC flows
// under a diurnal intensity and a solar supply).
#include <gtest/gtest.h>

#include <set>

#include "sim/simulation.h"

namespace willow::sim {
namespace {

using namespace willow::util::literals;
using util::Seconds;

SimConfig everything_on(unsigned long long seed) {
  SimConfig cfg;
  cfg.datacenter.server.thermal.c1 = 0.08;
  cfg.datacenter.server.thermal.c2 = 0.05;
  cfg.datacenter.server.thermal.ambient = 25_degC;
  cfg.datacenter.server.thermal.limit = 70_degC;
  cfg.datacenter.server.thermal.nameplate = 450_W;
  cfg.datacenter.server.power_model = power::ServerPowerModel::paper_simulation();
  cfg.datacenter.ambient_overrides.assign(18, 25_degC);
  for (int i = 14; i < 18; ++i) cfg.datacenter.ambient_overrides[i] = 40_degC;

  cfg.target_utilization = 0.55;
  cfg.mix.priority_levels = 3;
  cfg.ipc_chain_fraction = 0.6;
  cfg.controller.shedding = core::SheddingPolicy::kDegradeThenDrop;

  const Seconds day{48.0};
  cfg.supply = std::make_shared<power::SolarSupply>(
      util::Watts{28.125 * 18.0 * 0.55}, util::Watts{28.125 * 18.0 * 0.55},
      day, 0.5, seed);
  cfg.ups = power::Ups(util::Joules{400.0}, util::Watts{150.0},
                       util::Watts{60.0}, 0.9);
  cfg.intensity =
      std::make_shared<workload::DiurnalIntensity>(1.0, 0.3, day, day * 0.25);
  cfg.cooling = power::CoolingModel{};

  cfg.warmup_ticks = 0;
  cfg.measure_ticks = static_cast<long>(3 * day.value());  // three days
  cfg.seed = seed;
  return cfg;
}

class SoakTest : public ::testing::TestWithParam<unsigned long long> {};

TEST_P(SoakTest, ThreeDaysAllFeaturesAllInvariants) {
  Simulation simulation(everything_on(GetParam()));
  // Snapshot every application id before the run.
  std::set<workload::AppId> all_apps;
  auto& cluster = simulation.datacenter().cluster;
  for (auto s : cluster.server_ids()) {
    for (const auto& a : cluster.server(s).apps()) all_apps.insert(a.id());
  }
  ASSERT_FALSE(all_apps.empty());

  const auto r = simulation.run();

  // 1. Thermal safety, always.
  EXPECT_FALSE(r.thermal_violation);
  EXPECT_LE(r.max_temperature_c, 70.5);

  // 2. Application conservation: everything still hosted exactly once.
  std::multiset<workload::AppId> hosted;
  for (auto s : cluster.server_ids()) {
    const auto& srv = cluster.server(s);
    if (srv.asleep()) {
      EXPECT_TRUE(srv.apps().empty());
    }
    for (const auto& a : srv.apps()) {
      hosted.insert(a.id());
      EXPECT_GE(a.service_level(), 0.5 - 1e-9);  // configured floor
    }
  }
  EXPECT_EQ(hosted.size(), all_apps.size());
  for (auto id : all_apps) EXPECT_EQ(hosted.count(id), 1u);

  // 3. Accounting identities.
  const auto& st = r.controller_stats;
  std::size_t dropped_now = 0;
  for (auto s : cluster.server_ids()) {
    for (const auto& a : cluster.server(s).apps()) {
      dropped_now += a.dropped() ? 1 : 0;
    }
  }
  EXPECT_EQ(st.drops - st.revivals, dropped_now);
  EXPECT_GE(st.degrades, st.restores);

  // 4. Budgets nest through the hierarchy at the end state.
  const auto& tree = cluster.tree();
  for (auto id : tree.all_nodes()) {
    const auto& n = tree.node(id);
    if (n.is_leaf()) continue;
    double sum = 0.0;
    for (auto c : n.children()) sum += tree.node(c).budget().value();
    EXPECT_LE(sum, n.budget().value() + 1e-6);
  }

  // 5. The scenario actually exercised the machinery.
  EXPECT_GT(st.total_migrations(), 0u);
  EXPECT_GT(st.sleeps, 0u);
  EXPECT_GT(r.intensity_series.stats().max(),
            r.intensity_series.stats().min());
  EXPECT_GT(r.pue.stats().mean(), 1.0);

  // 6. Solar nights forced shedding; days brought service back.
  EXPECT_GT(st.drops + st.degrades, 0u);
  EXPECT_GT(st.revivals + st.restores, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoakTest, ::testing::Values(1, 7, 42));

}  // namespace
}  // namespace willow::sim
